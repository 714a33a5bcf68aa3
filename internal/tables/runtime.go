package tables

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"hdfe/internal/core"
	"hdfe/internal/ml/nn"
)

// RuntimeRow is one model's fit-time comparison between raw features and
// hypervector inputs.
type RuntimeRow struct {
	Model    string
	Features time.Duration
	Hyper    time.Duration
}

// Ratio returns hypervector time over feature time.
func (r RuntimeRow) Ratio() float64 {
	if r.Features <= 0 {
		return 0
	}
	return float64(r.Hyper) / float64(r.Features)
}

// RuntimeResult reproduces the paper's §III runtime paragraph as a table:
// "LGBM, XGBoost and CatBoost see a major increase in computing time when
// using hypervectors (over 10x). We didn't observe a significant
// performance difference for the remaining models", plus the NN epoch-time
// comparison.
type RuntimeResult struct {
	Dataset string
	Rows    []RuntimeRow
	// NNEpochFeatures / NNEpochHyper time one training epoch of the
	// sequential network on each representation.
	NNEpochFeatures time.Duration
	NNEpochHyper    time.Duration
}

// Runtime measures wall-clock fit time of every zoo model on Pima R with
// raw features and with hypervectors, plus single-epoch NN timings.
// Measurements are single-shot (the repository benchmarks give
// statistically robust numbers; this driver gives the table shape).
func Runtime(cfg Config) (*RuntimeResult, error) {
	cfg = cfg.normalized()
	d := LoadDatasets(cfg.Seed).PimaR
	_, hvFloats, err := core.EncodeDataset(d, hdOptions(cfg, 0))
	if err != nil {
		return nil, err
	}
	res := &RuntimeResult{Dataset: d.Name}
	for mi, m := range Zoo(cfg) {
		clfFeat := m.New(cfg.Seed + uint64(mi))
		start := time.Now()
		if err := clfFeat.Fit(d.X, d.Y); err != nil {
			return nil, fmt.Errorf("tables: runtime %s(features): %w", m.Name, err)
		}
		featTime := time.Since(start)

		clfHyper := m.New(cfg.Seed + uint64(mi))
		start = time.Now()
		if err := clfHyper.Fit(hvFloats, d.Y); err != nil {
			return nil, fmt.Errorf("tables: runtime %s(hypervectors): %w", m.Name, err)
		}
		res.Rows = append(res.Rows, RuntimeRow{
			Model:    m.Name,
			Features: featTime,
			Hyper:    time.Since(start),
		})
	}

	epoch := func(X [][]float64) (time.Duration, error) {
		net := nn.New(nn.Config{Hidden: []int{32, 32}, MaxEpochs: 1, Patience: 1000, Seed: 1})
		start := time.Now()
		if err := net.Fit(X, d.Y); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	if res.NNEpochFeatures, err = epoch(d.X); err != nil {
		return nil, err
	}
	if res.NNEpochHyper, err = epoch(hvFloats); err != nil {
		return nil, err
	}
	return res, nil
}

// RenderRuntime prints the fit-time table.
func RenderRuntime(w io.Writer, res *RuntimeResult) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Runtime — model fit time on %s (features vs hypervectors)\n", res.Dataset)
	fmt.Fprintln(tw, "Model\tFeatures\tHypervectors\tSlowdown")
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%s\t%v\t%v\t%.1fx\n",
			r.Model, r.Features.Round(time.Millisecond), r.Hyper.Round(time.Millisecond), r.Ratio())
	}
	fmt.Fprintf(tw, "NN (one epoch)\t%v\t%v\t%.1fx\n",
		res.NNEpochFeatures.Round(time.Millisecond), res.NNEpochHyper.Round(time.Millisecond),
		float64(res.NNEpochHyper)/float64(res.NNEpochFeatures))
	tw.Flush()
}
