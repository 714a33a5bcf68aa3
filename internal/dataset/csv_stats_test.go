package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestReadCSVBasic(t *testing.T) {
	in := `age,polyuria,class
40,Yes,Positive
55,No,Negative
33,,Positive
`
	d, err := ReadCSV(strings.NewReader(in), "t", CSVOptions{
		LabelColumn:   "class",
		BinaryColumns: []string{"polyuria"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 || d.NumFeatures() != 2 {
		t.Fatalf("shape %dx%d", d.Len(), d.NumFeatures())
	}
	if d.Features[1].Kind != Binary || d.Features[0].Kind != Continuous {
		t.Fatal("schema kinds wrong")
	}
	if d.X[0][0] != 40 || d.X[0][1] != 1 {
		t.Fatalf("row 0 = %v", d.X[0])
	}
	if d.X[1][1] != 0 {
		t.Fatal("No did not parse as 0")
	}
	if !math.IsNaN(d.X[2][1]) {
		t.Fatal("empty cell not NaN")
	}
	if d.Y[0] != 1 || d.Y[1] != 0 || d.Y[2] != 1 {
		t.Fatalf("labels %v", d.Y)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		opt  CSVOptions
	}{
		{"missing label column", "a,b\n1,2\n", CSVOptions{LabelColumn: "class"}},
		{"bad label value", "a,class\n1,maybe\n", CSVOptions{LabelColumn: "class"}},
		{"unparseable cell", "a,class\nxyz,1\n", CSVOptions{LabelColumn: "class"}},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in), "t", c.opt); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestReadCSVMissingTokens(t *testing.T) {
	in := "a,class\nNA,1\n5,0\n"
	d, err := ReadCSV(strings.NewReader(in), "t", CSVOptions{
		LabelColumn:   "class",
		MissingTokens: []string{"NA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(d.X[0][0]) {
		t.Fatal("NA not treated as missing")
	}
}

func TestReadCSVCustomLabels(t *testing.T) {
	in := "a,outcome\n1,sick\n2,healthy\n"
	d, err := ReadCSV(strings.NewReader(in), "t", CSVOptions{
		LabelColumn:    "outcome",
		PositiveLabels: []string{"sick"},
		NegativeLabels: []string{"healthy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Y[0] != 1 || d.Y[1] != 0 {
		t.Fatalf("labels %v", d.Y)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := MustNew("rt",
		[]Feature{{Name: "a", Kind: Continuous}, {Name: "b", Kind: Binary}},
		[][]float64{{1.5, 1}, {math.NaN(), 0}},
		[]int{1, 0},
	)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "rt", CSVOptions{LabelColumn: "label", BinaryColumns: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.NumFeatures() != 2 {
		t.Fatalf("shape %dx%d", back.Len(), back.NumFeatures())
	}
	if back.X[0][0] != 1.5 || back.X[0][1] != 1 {
		t.Fatalf("row 0 = %v", back.X[0])
	}
	if !math.IsNaN(back.X[1][0]) {
		t.Fatal("NaN did not survive round trip")
	}
	if back.Y[0] != 1 || back.Y[1] != 0 {
		t.Fatalf("labels %v", back.Y)
	}
}

func TestSummarize(t *testing.T) {
	d := MustNew("s",
		[]Feature{{Name: "glucose", Kind: Continuous}},
		[][]float64{{100}, {150}, {200}, {80}, {math.NaN()}},
		[]int{0, 1, 1, 0, 1},
	)
	sum := Summarize(d)
	if len(sum) != 1 {
		t.Fatalf("%d summaries", len(sum))
	}
	s := sum[0]
	if s.Name != "glucose" {
		t.Fatalf("name %q", s.Name)
	}
	if s.PosMean != 175 || s.PosMin != 150 || s.PosMax != 200 {
		t.Fatalf("pos stats %+v", s)
	}
	if s.NegMean != 90 || s.NegMin != 80 || s.NegMax != 100 {
		t.Fatalf("neg stats %+v", s)
	}
}

func TestSummarizeEmptyClass(t *testing.T) {
	d := MustNew("s2",
		[]Feature{{Name: "x", Kind: Continuous}},
		[][]float64{{1}, {2}},
		[]int{0, 0},
	)
	s := Summarize(d)[0]
	if !math.IsNaN(s.PosMean) {
		t.Fatal("empty class mean should be NaN")
	}
	if s.NegMean != 1.5 {
		t.Fatalf("neg mean %v", s.NegMean)
	}
}
