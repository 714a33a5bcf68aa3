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
	if res.Encode.Records == 0 || res.Encode.IntoPerRec <= 0 || res.Encode.LegacyPerRec <= 0 {
		t.Fatalf("encode-path stats missing: %+v", res.Encode)
	}
	// The Into path recycles destination vectors and per-worker scratch;
	// the legacy path allocates at least one hypervector per record.
	if res.Encode.IntoAllocsRec >= res.Encode.LegacyAllocsRec {
		t.Fatalf("Into path allocs/record %.2f not below legacy %.2f",
			res.Encode.IntoAllocsRec, res.Encode.LegacyAllocsRec)
	}
	// Serving stage split: both stages measured, shares sum to one.
	if res.Stages.Records == 0 || res.Stages.EncodePerRec <= 0 || res.Stages.DistancePerRec <= 0 {
		t.Fatalf("stage split missing: %+v", res.Stages)
	}
	if sh := res.Stages.EncodeShare(); sh <= 0 || sh >= 1 {
		t.Fatalf("encode share %v outside (0,1)", sh)
	}
	var buf bytes.Buffer
	RenderRuntime(&buf, res)
	if !strings.Contains(buf.String(), "Slowdown") {
		t.Fatal("render missing slowdown column")
	}
	if !strings.Contains(buf.String(), "Encode path") {
		t.Fatal("render missing encode-path section")
	}
	if !strings.Contains(buf.String(), "Serving stage split") {
		t.Fatal("render missing serving stage split section")
	}
}

func TestStageSplitEncodeShare(t *testing.T) {
	s := StageSplitStats{EncodePerRec: 300, DistancePerRec: 100}
	if s.EncodeShare() != 0.75 {
		t.Fatalf("share %v", s.EncodeShare())
	}
	if (StageSplitStats{}).EncodeShare() != 0 {
		t.Fatal("zero split share")
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
