package hamming_test

import (
	"testing"

	"hdfe/internal/core"
	"hdfe/internal/dataset"
	"hdfe/internal/ml/hamming"
	"hdfe/internal/synth"
)

// BenchmarkLeaveOneOut times the fit's leave-one-out 1-NN pass alone,
// over the encoded Pima M (768 records) and Sylhet (520) cohorts at the
// paper's D = 10,000.
func BenchmarkLeaveOneOut(b *testing.B) {
	for _, d := range []*dataset.Dataset{synth.PimaM(42), synth.Sylhet(synth.DefaultSylhetConfig(42))} {
		b.Run(d.Name, func(b *testing.B) {
			ext := core.NewExtractor(core.Options{Seed: 1})
			if err := ext.FitDataset(d); err != nil {
				b.Fatal(err)
			}
			vs := ext.Transform(d.X)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hamming.LeaveOneOut(vs, d.Y)
			}
		})
	}
}
