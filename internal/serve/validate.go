package serve

import (
	"fmt"
	"math"
	"strings"

	"hdfe/internal/encode"
)

// FieldError is one per-feature validation failure, addressed by both the
// schema name and the positional index of the offending value. For
// range rejections the offending value and the fitted bounds ride along
// so clients can fix units without consulting the model's training data.
type FieldError struct {
	Feature string   `json:"feature"`
	Index   int      `json:"index"`
	Message string   `json:"message"`
	Value   *float64 `json:"value,omitempty"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
}

// ValidationError aggregates every field failure of one record so clients
// can fix a whole request in one round trip.
type ValidationError struct {
	Fields []FieldError `json:"details"`
}

// Error renders the failures as one line per field.
func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = fmt.Sprintf("feature %q (index %d): %s", f.Feature, f.Index, f.Message)
	}
	return "serve: invalid record: " + strings.Join(msgs, "; ")
}

// featureRange carries what the validator knows about one fitted feature.
type featureRange struct {
	spec     encode.Spec
	hasRange bool // continuous feature with a fitted [min, max]
	min, max float64
}

// Validator checks incoming records against a fitted codebook before they
// reach the encoders. Its rules mirror the encode package's pinned
// NaN/threshold contract:
//
//   - arity must match the fitted schema exactly (per-feature names are
//     reported so clients can see what the model expects);
//   - null (missing) encodes as the feature's baseline codeword, exactly
//     like a NaN cell in training data — unless the server was configured
//     with RejectMissing, in which case it is a per-feature error;
//   - non-finite values (NaN/±Inf smuggled past JSON) are always errors:
//     the encoders define NaN behaviour but an explicit NaN in a scoring
//     request is indistinguishable from a client bug;
//   - continuous values outside the fitted [min, max] are legal — the
//     level encoder clamps them by contract — but each produces a warning
//     naming the fitted range, since silent clamping hides unit mistakes;
//     with rejectOutOfRange set they become per-feature errors instead,
//     each carrying the offending value and the fitted bounds.
type Validator struct {
	feats            []featureRange
	rejectMissing    bool
	rejectOutOfRange bool
}

// NewValidator builds a validator from the deployment's fitted codebook.
func NewValidator(cb *encode.Codebook, rejectMissing, rejectOutOfRange bool) *Validator {
	v := &Validator{rejectMissing: rejectMissing, rejectOutOfRange: rejectOutOfRange}
	for j, spec := range cb.Specs() {
		fr := featureRange{spec: spec}
		if lvl, ok := cb.Feature(j).(*encode.LevelEncoder); ok {
			fr.min, fr.max = lvl.Range()
			fr.hasRange = true
		}
		v.feats = append(v.feats, fr)
	}
	return v
}

// FeatureNames returns the schema names in order.
func (v *Validator) FeatureNames() []string {
	names := make([]string, len(v.feats))
	for i, f := range v.feats {
		names[i] = f.spec.Name
	}
	return names
}

// Validate checks one record (nil entry = missing) and materializes the
// float row the encoders consume. On success it returns the row and any
// clamping warnings; on failure, a *ValidationError listing every bad
// field. dst is recycled when it has capacity.
func (v *Validator) Validate(features []*float64, dst []float64) ([]float64, []string, error) {
	if len(features) != len(v.feats) {
		return nil, nil, &ValidationError{Fields: []FieldError{{
			Feature: "(record)",
			Index:   -1,
			Message: fmt.Sprintf("got %d features, model expects %d: %s",
				len(features), len(v.feats), strings.Join(v.FeatureNames(), ", ")),
		}}}
	}
	if cap(dst) < len(features) {
		dst = make([]float64, len(features))
	}
	dst = dst[:len(features)]
	var fields []FieldError
	var warnings []string
	for j, p := range features {
		f := v.feats[j]
		if p == nil {
			if v.rejectMissing {
				fields = append(fields, FieldError{Feature: f.spec.Name, Index: j,
					Message: "missing value rejected by server policy (send a number)"})
				continue
			}
			// Encode contract: missing encodes as the baseline codeword.
			dst[j] = math.NaN()
			continue
		}
		t := *p
		if math.IsNaN(t) || math.IsInf(t, 0) {
			fields = append(fields, FieldError{Feature: f.spec.Name, Index: j,
				Message: fmt.Sprintf("non-finite value %v (use null for missing)", t)})
			continue
		}
		if f.hasRange && (t < f.min || t > f.max) {
			if v.rejectOutOfRange {
				val, lo, hi := t, f.min, f.max
				fields = append(fields, FieldError{Feature: f.spec.Name, Index: j,
					Message: fmt.Sprintf("value %v outside fitted range [%v, %v] rejected by server policy",
						val, lo, hi),
					Value: &val, Min: &lo, Max: &hi})
				continue
			}
			warnings = append(warnings, fmt.Sprintf(
				"feature %q value %v outside fitted range [%v, %v]; clamped per encode contract",
				f.spec.Name, t, f.min, f.max))
		}
		dst[j] = t
	}
	if len(fields) > 0 {
		return nil, nil, &ValidationError{Fields: fields}
	}
	return dst, warnings, nil
}
