package tables

import (
	"bytes"
	"strings"
	"testing"
)

func TestRuntimeQuick(t *testing.T) {
	res, err := Runtime(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Features <= 0 || r.Hyper <= 0 {
			t.Fatalf("%s: non-positive timing", r.Model)
		}
	}
	if res.NNEpochFeatures <= 0 || res.NNEpochHyper <= 0 {
		t.Fatal("NN epoch timings missing")
	}
	var buf bytes.Buffer
	RenderRuntime(&buf, res)
	if !strings.Contains(buf.String(), "Slowdown") {
		t.Fatal("render missing slowdown column")
	}
}

func TestRuntimeRowRatio(t *testing.T) {
	r := RuntimeRow{Features: 100, Hyper: 1000}
	if r.Ratio() != 10 {
		t.Fatalf("ratio %v", r.Ratio())
	}
	if (RuntimeRow{}).Ratio() != 0 {
		t.Fatal("zero-feature ratio")
	}
}
