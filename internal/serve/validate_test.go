package serve

import (
	"math"
	"strings"
	"testing"

	"hdfe/internal/encode"
	"hdfe/internal/rng"
)

// testCodebook fits a tiny two-feature codebook (one continuous in
// [0, 10], one binary) for validator unit tests.
func testCodebook(t *testing.T) *encode.Codebook {
	t.Helper()
	specs := []encode.Spec{
		{Name: "glucose", Kind: encode.Continuous},
		{Name: "sex", Kind: encode.Binary},
	}
	X := [][]float64{{0, 0}, {10, 1}}
	return encode.Fit(rng.New(1), specs, X, encode.Options{Dim: 64})
}

func TestValidatorArity(t *testing.T) {
	v := NewValidator(testCodebook(t), false, false)
	_, err := v.Validate([]float64{1})
	if err == nil {
		t.Fatal("short record accepted")
	}
	verr, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(verr.Error(), "glucose, sex") {
		t.Errorf("arity error %q does not name the expected features", verr.Error())
	}
}

func TestValidatorMissingPolicy(t *testing.T) {
	cb := testCodebook(t)
	lenient := NewValidator(cb, false, false)
	missing := []float64{math.NaN(), math.NaN()}
	warnings, err := lenient.Validate(missing)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Errorf("warnings for missing values: %v", warnings)
	}
	if !math.IsNaN(missing[0]) || !math.IsNaN(missing[1]) {
		t.Fatalf("missing values rewritten to %v, want NaN (encode contract)", missing)
	}

	strict := NewValidator(cb, true, false)
	_, err = strict.Validate(missing)
	verr, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("strict validator returned %v", err)
	}
	if len(verr.Fields) != 2 {
		t.Fatalf("strict validator flagged %d fields, want 2", len(verr.Fields))
	}
	if verr.Fields[1].Feature != "sex" || verr.Fields[1].Index != 1 {
		t.Errorf("field error %+v misaddressed", verr.Fields[1])
	}
}

// TestValidatorNonFinite checks that ±Inf is rejected. NaN is how the
// body parser hands over null, so it means missing (TestValidatorMissingPolicy).
func TestValidatorNonFinite(t *testing.T) {
	v := NewValidator(testCodebook(t), false, false)
	for _, bad := range []float64{math.Inf(1), math.Inf(-1)} {
		_, err := v.Validate([]float64{bad, 1})
		if err == nil {
			t.Errorf("value %v accepted", bad)
		}
	}
}

func TestValidatorClampWarning(t *testing.T) {
	v := NewValidator(testCodebook(t), false, false)
	row := []float64{200, 1}
	warnings, err := v.Validate(row)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 200 {
		t.Fatalf("value rewritten to %v; clamping belongs to the encoder", row[0])
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "[0, 10]") {
		t.Fatalf("warnings %v, want one naming the fitted range", warnings)
	}
	// Binary features carry no range; out-of-coding values warn nothing.
	warnings, err = v.Validate([]float64{5, 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Errorf("binary feature warned: %v", warnings)
	}
}

func TestValidatorRejectOutOfRange(t *testing.T) {
	v := NewValidator(testCodebook(t), false, true)
	_, err := v.Validate([]float64{200, 1})
	verr, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("out-of-range value returned %v, want *ValidationError", err)
	}
	if len(verr.Fields) != 1 {
		t.Fatalf("flagged %d fields, want 1", len(verr.Fields))
	}
	f := verr.Fields[0]
	if f.Feature != "glucose" || f.Index != 0 {
		t.Errorf("field error %+v misaddressed", f)
	}
	// The body must carry enough to fix the request without reading the
	// training data: the offending value and both fitted bounds.
	if f.Value == nil || *f.Value != 200 {
		t.Errorf("Value = %v, want 200", f.Value)
	}
	if f.Min == nil || *f.Min != 0 || f.Max == nil || *f.Max != 10 {
		t.Errorf("bounds = %v/%v, want 0/10", f.Min, f.Max)
	}
	if !strings.Contains(f.Message, "200") || !strings.Contains(f.Message, "[0, 10]") {
		t.Errorf("message %q does not name the value and range", f.Message)
	}
	// In-range values still pass under the strict policy.
	if _, err := v.Validate([]float64{5, 1}); err != nil {
		t.Fatalf("in-range value rejected: %v", err)
	}
}

// TestValidatorChecksInPlace checks that validation leaves every value,
// missing and out of range ones included, as the encoders must see it.
func TestValidatorChecksInPlace(t *testing.T) {
	v := NewValidator(testCodebook(t), false, false)
	row := []float64{-7, math.NaN()}
	if _, err := v.Validate(row); err != nil {
		t.Fatal(err)
	}
	if row[0] != -7 || !math.IsNaN(row[1]) {
		t.Errorf("row rewritten to %v", row)
	}
}

// TestValidatorAgainstDeployment ties the validator to a real fitted
// deployment: a row parsed from a body with a null cell must validate and
// score identically to the same row with NaN written directly.
func TestValidatorAgainstDeployment(t *testing.T) {
	dep := testDeployment(t, 128)
	v := NewValidator(dep.Extractor.Codebook(), false, false)
	if n := len(v.FeatureNames()); n != 8 {
		t.Fatalf("validator arity %d", n)
	}
	b := &scoringBody{raw: []byte(`{"features":[1,2,null,4,5,6,7,8]}`)}
	if err := b.parse(false); err != nil {
		t.Fatal(err)
	}
	row := b.rows[0]
	if _, err := v.Validate(row); err != nil {
		t.Fatal(err)
	}
	direct := make([]float64, 8)
	for i := range direct {
		direct[i] = float64(i + 1)
	}
	direct[2] = math.NaN()
	if dep.Score(row) != dep.Score(direct) {
		t.Fatal("validated row scores differently from NaN row")
	}
}
