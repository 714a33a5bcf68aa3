package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdfe/internal/encode"
	"hdfe/internal/hv"
)

// goldenV1Score is the pinned score of row {1, 0.5} under the committed
// testdata/dep_v1_golden.bin artifact (see testdata/gen_golden.go).
const goldenV1Score = 0.5714285714285714

func TestDeploymentScoreSeparates(t *testing.T) {
	d := toyDataset()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, Options{Dim: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, row := range d.X {
		if (dep.Score(row) >= 0.5) == (d.Y[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(d.Len()); acc < 0.9 {
		t.Fatalf("deployment accuracy %v", acc)
	}
	for _, row := range d.X {
		if s := dep.Score(row); s < 0 || s > 1 {
			t.Fatalf("score %v out of range", s)
		}
	}
}

func TestDeploymentRoundTrip(t *testing.T) {
	d := toyDataset()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, Options{Dim: 1024, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := dep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDeployment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Scores must match exactly: same codebook, same prototypes.
	for _, row := range d.X {
		if back.Score(row) != dep.Score(row) {
			t.Fatal("score changed after round trip")
		}
	}
	if !back.NegProto.Equal(dep.NegProto) || !back.PosProto.Equal(dep.PosProto) {
		t.Fatal("prototypes changed after round trip")
	}
	// The drift reference block must survive: same histograms, same
	// baseline — serving rebuilds its monitor from this.
	if back.Ref == nil {
		t.Fatal("drift reference lost in round trip")
	}
	if back.Ref.Baseline != dep.Ref.Baseline {
		t.Fatalf("baseline changed: %+v vs %+v", back.Ref.Baseline, dep.Ref.Baseline)
	}
	if len(back.Ref.Features) != len(dep.Ref.Features) {
		t.Fatalf("reference features %d, want %d", len(back.Ref.Features), len(dep.Ref.Features))
	}
	for j := range dep.Ref.Features {
		w, g := dep.Ref.Features[j], back.Ref.Features[j]
		if g.Name != w.Name || g.Min != w.Min || g.Max != w.Max || g.Observed != w.Observed {
			t.Errorf("reference feature %d: got %+v want %+v", j, g, w)
		}
	}
}

// TestBuildDeploymentReference pins the fit-time drift capture: the
// reference describes the training matrix and the baseline matches an
// independently computed LOOCV over the same encoding.
func TestBuildDeploymentReference(t *testing.T) {
	d := toyDataset()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, Options{Dim: 1024, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := dep.Ref
	if ref == nil {
		t.Fatal("BuildDeployment produced no drift reference")
	}
	if len(ref.Features) != len(d.Features) {
		t.Fatalf("reference has %d features, dataset %d", len(ref.Features), len(d.Features))
	}
	for j, f := range ref.Features {
		if f.Name != d.Features[j].Name {
			t.Errorf("feature %d name %q, want %q", j, f.Name, d.Features[j].Name)
		}
		if f.Observed+f.Missing != uint64(d.Len()) {
			t.Errorf("feature %d mass %d+%d, want %d", j, f.Observed, f.Missing, d.Len())
		}
	}
	b := ref.Baseline
	if b.TrainRecords != d.Len() || b.LOOCVAccuracy <= 0.5 || b.LOOCVAccuracy > 1 {
		t.Errorf("baseline %+v", b)
	}
	if b.PosRate <= 0 || b.PosRate >= 1 {
		t.Errorf("pos rate %v", b.PosRate)
	}
	// A deployment without a reference (legacy load path) must still
	// serialize and reload cleanly with the flag byte at 0.
	dep.Ref = nil
	var buf bytes.Buffer
	if _, err := dep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDeployment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ref != nil {
		t.Fatal("nil reference round-tripped as non-nil")
	}
}

func TestDeploymentSaveLoadFile(t *testing.T) {
	d := toyDataset()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y,
		Options{Dim: 1024, Seed: 3, Tie: hv.TieToZero, Mode: encode.BindBundle})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dep.bin")
	if err := dep.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDeployment(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range d.X {
		if back.Score(row) != dep.Score(row) {
			t.Fatal("score changed after file round trip")
		}
	}
	// The reloaded extractor must carry the full fitted configuration, not
	// just the dimensionality — serving re-reads tie/mode from the codebook.
	if got := back.Extractor.opts; got.Dim != 1024 || got.Tie != hv.TieToZero || got.Mode != encode.BindBundle {
		t.Fatalf("reloaded options %+v lost fitted configuration", got)
	}
	if _, err := LoadDeployment(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestReadFile pins the artifact loader hdserve and hdaudit share: the
// reloaded model scores identically, the digest is the 64-hex SHA-256 of
// the file bytes and is deterministic, and a missing or garbage file
// fails.
func TestReadFile(t *testing.T) {
	d := toyDataset()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, Options{Dim: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dep.bin")
	if err := dep.Save(path); err != nil {
		t.Fatal(err)
	}
	got, sha, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sha) != 64 {
		t.Errorf("sha256 hex %q, want 64 chars", sha)
	}
	if got.Score(d.X[0]) != dep.Score(d.X[0]) {
		t.Error("reloaded model scores differently")
	}
	if _, sha2, err := ReadFile(path); err != nil || sha2 != sha {
		t.Errorf("digest not deterministic: %q vs %q (%v)", sha, sha2, err)
	}

	if _, _, err := ReadFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("ReadFile on a missing path succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte("not a deployment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(bad); err == nil {
		t.Error("ReadFile on garbage succeeded")
	}
}

func TestReadDeploymentRejectsGarbage(t *testing.T) {
	for i, in := range []string{"", "WRONGMAGIC", deployMagicV1, deployMagicV2} {
		if _, err := ReadDeployment(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestReadDeploymentV1Compat writes the legacy v1 layout (magic +
// codebook + prototypes, no drift block) and checks it still loads:
// scores identical, Ref nil so drift monitoring is simply off.
func TestReadDeploymentV1Compat(t *testing.T) {
	d := toyDataset()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, Options{Dim: 1024, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.WriteString(deployMagicV1); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Extractor.Codebook().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := hv.WriteVector(&buf, dep.NegProto); err != nil {
		t.Fatal(err)
	}
	if err := hv.WriteVector(&buf, dep.PosProto); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDeployment(&buf)
	if err != nil {
		t.Fatalf("v1 layout rejected: %v", err)
	}
	if back.Ref != nil {
		t.Fatal("v1 deployment produced a drift reference from nowhere")
	}
	for _, row := range d.X {
		if back.Score(row) != dep.Score(row) {
			t.Fatal("v1-loaded deployment scores differently")
		}
	}
}

// TestReadDeploymentV1Golden loads a committed v1 artifact, guarding
// against any future change that would strand model files written by
// older builds. Regenerate (only if the v1 reader is intentionally
// dropped) with the writer in TestReadDeploymentV1Compat.
func TestReadDeploymentV1Golden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "dep_v1_golden.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dep, err := ReadDeployment(f)
	if err != nil {
		t.Fatalf("golden v1 deployment rejected: %v", err)
	}
	if dep.Ref != nil {
		t.Fatal("golden v1 deployment has a drift reference")
	}
	if got := dep.Extractor.Dim(); got != 64 {
		t.Fatalf("golden dim %d, want 64", got)
	}
	// Deterministic artifact → pinned score for a fixed row. A mismatch
	// means the binary format or the scoring path changed semantics.
	row := []float64{1, 0.5}
	if got := dep.Score(row); got != goldenV1Score {
		t.Fatalf("golden score %v, want %v", got, goldenV1Score)
	}
}

// TestReadDeploymentCorruptArtifacts is the corrupt-artifact table: a
// model file that does not parse cleanly end to end must be refused
// with a descriptive error, never loaded partially. Truncation is
// exhaustive — every proper prefix of a valid artifact is rejected.
func TestReadDeploymentCorruptArtifacts(t *testing.T) {
	d := toyDataset()
	dep, err := BuildDeployment(SpecsFor(d.Features), d.X, d.Y, Options{Dim: 512, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := dep.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Every proper prefix must fail: there is no byte at which a
	// truncated artifact still reads as a valid deployment.
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadDeployment(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at byte %d of %d accepted", cut, len(data))
		}
	}

	// Byte-level corruption table over targeted offsets.
	mutate := func(mut func([]byte) []byte) []byte {
		return mut(append([]byte(nil), data...))
	}
	for _, tc := range []struct {
		name    string
		in      []byte
		wantErr string
	}{
		{
			"bad magic",
			mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
			"bad deployment magic",
		},
		{
			"trailing garbage byte",
			mutate(func(b []byte) []byte { return append(b, 0x00) }),
			"trailing garbage",
		},
		{
			"concatenated artifacts",
			mutate(func(b []byte) []byte { return append(b, data...) }),
			"trailing garbage",
		},
		{
			"bad drift reference flag",
			func() []byte {
				// With Ref stripped, the flag byte is the final byte of the
				// serialization; any value outside {0, 1} is refused.
				noRef := *dep
				noRef.Ref = nil
				var nb bytes.Buffer
				if _, err := noRef.WriteTo(&nb); err != nil {
					t.Fatal(err)
				}
				b := nb.Bytes()
				b[len(b)-1] = 2
				return b
			}(),
			"bad drift reference flag",
		},
	} {
		_, err := ReadDeployment(bytes.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// The file loader wraps corruption errors with the path, so operator
	// logs name the artifact that failed.
	bad := filepath.Join(t.TempDir(), "corrupt.bin")
	if err := os.WriteFile(bad, append(append([]byte(nil), data...), 0xFF), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDeployment(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("LoadDeployment on corrupt file: %v, want error naming %s", err, bad)
	}
}

func TestBuildDeploymentErrors(t *testing.T) {
	d := toyDataset()
	if _, err := BuildDeployment(nil, d.X, d.Y, Options{Dim: 100}); err == nil {
		t.Fatal("empty schema accepted")
	}
}
