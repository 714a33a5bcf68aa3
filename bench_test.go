// Package hdfe's repository-root benchmarks regenerate every table of the
// paper and time the two runtime observations its §III reports: that the
// sequential network's epoch time barely changes between 8 raw features
// and 10,000-bit hypervectors, while the boosted-tree models slow down by
// an order of magnitude on hypervectors.
//
// Table benchmarks run the experiment harness at a reduced scale per
// iteration (-quick ensembles, smaller D) so `go test -bench=.` finishes
// in minutes; `cmd/hdbench` runs the full paper configuration.
package hdfe

import (
	"testing"

	"hdfe/internal/core"
	"hdfe/internal/dataset"
	"hdfe/internal/eval"
	"hdfe/internal/ml"
	"hdfe/internal/ml/boost"
	"hdfe/internal/ml/forest"
	"hdfe/internal/ml/nn"
	"hdfe/internal/ml/svm"
	"hdfe/internal/rng"
	"hdfe/internal/synth"
	"hdfe/internal/tables"
)

func benchCfg() tables.Config {
	return tables.Config{Seed: 42, Dim: 2000, Folds: 5, Trials: 3, Quick: true}
}

// BenchmarkTable1 regenerates Table I (feature distribution).
func BenchmarkTable1(b *testing.B) {
	cfg := tables.Config{Seed: 42}
	for i := 0; i < b.N; i++ {
		tables.Table1(cfg)
	}
}

// BenchmarkTable2 regenerates Table II (Hamming + Sequential NN).
func BenchmarkTable2(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := tables.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table III (9 models × 3 datasets CV grid).
func BenchmarkTable3(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := tables.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates Table IV (Pima M test metrics).
func BenchmarkTable4(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := tables.Table4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates Table V (Syhlet test metrics + Hamming).
func BenchmarkTable5(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := tables.Table5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------- runtime observation A: NN epoch time parity

func nnEpochBench(b *testing.B, hyper bool) {
	d := synth.PimaR(42)
	X := d.X
	if hyper {
		_, hvFloats, err := core.EncodeDataset(d, core.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		X = hvFloats
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := nn.New(nn.Config{Hidden: []int{32, 32}, MaxEpochs: 1, Patience: 1000, Seed: 1})
		if err := net.Fit(X, d.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNEpochFeatures times one training epoch on the 8 raw features.
func BenchmarkNNEpochFeatures(b *testing.B) { nnEpochBench(b, false) }

// BenchmarkNNEpochHypervectors times one epoch on 10k-bit hypervectors;
// the paper observed ~10 ms/epoch for both representations.
func BenchmarkNNEpochHypervectors(b *testing.B) { nnEpochBench(b, true) }

// ------------------------- runtime observation B: boosting slows >10x

func fitBench(b *testing.B, factory func() ml.Classifier, hyper bool) {
	d := synth.PimaR(42)
	X := d.X
	if hyper {
		_, hvFloats, err := core.EncodeDataset(d, core.Options{Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		X = hvFloats
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := factory().Fit(X, d.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// lgbm and xgb build the boosters with tables.Zoo's full-size settings.
func lgbm() ml.Classifier {
	return boost.New(boost.Params{
		Style: boost.LeafWise, Rounds: 100, LearningRate: 0.1,
		MaxLeaves: 31, Lambda: 1, MinChildWeight: 1e-3, Subsample: 1, Seed: 1,
	})
}

func xgb() ml.Classifier {
	return boost.New(boost.Params{
		Style: boost.LevelWise, Rounds: 100, LearningRate: 0.3,
		MaxDepth: 6, Lambda: 1, MinChildWeight: 1, Subsample: 1, Seed: 1,
	})
}

// LGBM-style booster: the paper's clearest ">10x slower on hypervectors"
// case.
func BenchmarkFitLGBMFeatures(b *testing.B) { fitBench(b, lgbm, false) }

func BenchmarkFitLGBMHypervectors(b *testing.B) { fitBench(b, lgbm, true) }

func BenchmarkFitXGBFeatures(b *testing.B) { fitBench(b, xgb, false) }

func BenchmarkFitXGBHypervectors(b *testing.B) { fitBench(b, xgb, true) }

// SVC's Gram matrix runs on packed popcount dot products for binary
// inputs, so its hypervector slowdown stays small — one of the paper's
// "remaining models".
func BenchmarkFitSVCFeatures(b *testing.B) {
	fitBench(b, func() ml.Classifier { return svm.New(svm.Params{}) }, false)
}

func BenchmarkFitSVCHypervectors(b *testing.B) {
	fitBench(b, func() ml.Classifier { return svm.New(svm.Params{}) }, true)
}

// Random forest sees a much smaller relative slowdown ("we didn't observe
// a significant performance difference for the remaining models").
func BenchmarkFitForestFeatures(b *testing.B) {
	fitBench(b, func() ml.Classifier { return forest.New(forest.Params{NumTrees: 100, Seed: 1}) }, false)
}

func BenchmarkFitForestHypervectors(b *testing.B) {
	fitBench(b, func() ml.Classifier { return forest.New(forest.Params{NumTrees: 100, Seed: 1}) }, true)
}

// ------------------------- kernels

// BenchmarkEncodePimaR times fitting the codebook and encoding all 392
// complete Pima records at the paper's D = 10,000.
func BenchmarkEncodePimaR(b *testing.B) {
	d := synth.PimaR(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.EncodeDataset(d, core.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHammingLOOPimaR times the paper's full pure-HDC experiment on
// Pima R (encode + 392x392 distance matrix + vote).
func BenchmarkHammingLOOPimaR(b *testing.B) {
	d := synth.PimaR(42)
	for i := 0; i < b.N; i++ {
		if _, err := core.HammingLOO(d, core.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHammingLOOSylhet does the same for the 520-record Syhlet data.
func BenchmarkHammingLOOSylhet(b *testing.B) {
	d := synth.Sylhet(synth.DefaultSylhetConfig(42))
	for i := 0; i < b.N; i++ {
		if _, err := core.HammingLOO(d, core.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDimSweepHamming measures how LOO cost scales with D (the
// paper's informal 10k-vs-20k/30k exploration).
func BenchmarkDimSweepHamming(b *testing.B) {
	d := synth.PimaR(42)
	for _, dim := range []int{1000, 10000, 20000} {
		b.Run(itoa(dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.HammingLOO(d, core.Options{Dim: dim, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ------------------------- ablation: majority vs bind-bundle encoding

func BenchmarkEncodeModes(b *testing.B) {
	d := synth.PimaR(42)
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"majority", core.Options{Dim: 10000, Seed: 1}},
		{"bindbundle", core.Options{Dim: 10000, Seed: 1, Mode: 1}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.EncodeDataset(d, mode.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------- end-to-end pipeline benchmark

// BenchmarkHybridPipeline90_10 times the full hybrid flow on Syhlet: fit
// codebook, encode, train a forest, predict the held-out 10%.
func BenchmarkHybridPipeline90_10(b *testing.B) {
	d := synth.Sylhet(synth.DefaultSylhetConfig(42))
	train, test := dataset.StratifiedSplit(d, 0.9, rng.New(1))
	factory := func() ml.Classifier {
		return core.NewPipeline(core.SpecsFor(d.Features), core.Options{Seed: 2},
			forest.New(forest.Params{NumTrees: 100, Seed: 3}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.TrainTest(factory, d.X, d.Y, train, test); err != nil {
			b.Fatal(err)
		}
	}
}
