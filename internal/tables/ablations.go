package tables

import (
	"fmt"
	"io"
	"text/tabwriter"

	"hdfe/internal/core"
	"hdfe/internal/encode"
	"hdfe/internal/hv"
	"hdfe/internal/metrics"
	"hdfe/internal/ml/hamming"
)

// AblationResult collects the design-choice ablations DESIGN.md calls out:
// the paper's informal dimensionality exploration (§II: "we didn't see
// much improvement by using larger vectors"), the record-combination rule
// (majority vs bind-and-bundle), the tie-break rule, and the 1-NN Hamming
// model vs the classic HDC class-prototype classifier hdserve serves.
type AblationResult struct {
	Dims        []int
	DimAccuracy map[string][]float64 // dataset -> accuracy per dim

	ModeAccuracy map[string][2]float64 // dataset -> {majority, bindbundle}
	TieAccuracy  map[string][2]float64 // dataset -> {tie->1, tie->0}
	NNvsProto    map[string][2]float64 // dataset -> {1-NN, prototype}
}

// Ablations runs every ablation with Hamming leave-one-out as the probe
// (cheap and model-free, so differences isolate the encoding choice).
func Ablations(cfg Config) (*AblationResult, error) {
	cfg = cfg.normalized()
	ds := LoadDatasets(cfg.Seed)
	res := &AblationResult{
		DimAccuracy:  map[string][]float64{},
		ModeAccuracy: map[string][2]float64{},
		TieAccuracy:  map[string][2]float64{},
		NNvsProto:    map[string][2]float64{},
	}
	res.Dims = []int{256, 1000, 2000, 5000, 10000, 20000}
	if cfg.Quick {
		res.Dims = []int{256, 1000, 2000}
	}

	for di, d := range ds.List() {
		base := hdOptions(cfg, di)

		// Dimensionality sweep.
		for _, dim := range res.Dims {
			opts := base
			opts.Dim = dim
			conf, err := core.HammingLOO(d, opts)
			if err != nil {
				return nil, fmt.Errorf("tables: dim sweep on %s: %w", d.Name, err)
			}
			res.DimAccuracy[d.Name] = append(res.DimAccuracy[d.Name], conf.Accuracy())
		}

		// Majority vs BindBundle.
		var modes [2]float64
		for mi, mode := range []encode.Mode{encode.Majority, encode.BindBundle} {
			opts := base
			opts.Mode = mode
			conf, err := core.HammingLOO(d, opts)
			if err != nil {
				return nil, fmt.Errorf("tables: mode ablation on %s: %w", d.Name, err)
			}
			modes[mi] = conf.Accuracy()
		}
		res.ModeAccuracy[d.Name] = modes

		// Tie-break rule.
		var ties [2]float64
		for ti, tie := range []hv.TieBreak{hv.TieToOne, hv.TieToZero} {
			opts := base
			opts.Tie = tie
			conf, err := core.HammingLOO(d, opts)
			if err != nil {
				return nil, fmt.Errorf("tables: tie ablation on %s: %w", d.Name, err)
			}
			ties[ti] = conf.Accuracy()
		}
		res.TieAccuracy[d.Name] = ties

		// 1-NN vs class prototype (prototype evaluated leave-one-out by
		// re-bundling without the held-out record — cheap because the
		// accumulator is decomposable, but here simply refit per fold
		// over the small datasets).
		ext := core.NewExtractor(base)
		if err := ext.FitDataset(d); err != nil {
			return nil, err
		}
		vs := ext.Transform(d.X)
		nnConf := hamming.LeaveOneOut(vs, d.Y)
		protoConf := prototypeLOO(vs, d.Y)
		res.NNvsProto[d.Name] = [2]float64{nnConf.Accuracy(), protoConf.Accuracy()}
	}
	return res, nil
}

// prototypeLOO evaluates the served model leave-one-out: per fold,
// core.Prototypes bundles the other records into class prototypes and
// the held-out record is positive when core.ClassAffinity >= 0.5 — the
// same two functions behind BuildDeployment and Deployment.Score.
func prototypeLOO(vs []hv.Vector, y []int) metrics.Confusion {
	pred := make([]int, len(vs))
	for i := range vs {
		train := make([]hv.Vector, 0, len(vs)-1)
		labels := make([]int, 0, len(vs)-1)
		for j := range vs {
			if j != i {
				train = append(train, vs[j])
				labels = append(labels, y[j])
			}
		}
		neg, pos := core.Prototypes(train, labels, hv.TieToOne)
		if core.ClassAffinity(vs[i], neg, pos) >= 0.5 {
			pred[i] = 1
		}
	}
	return metrics.NewConfusion(y, pred)
}

// RenderAblations prints the ablation grids.
func RenderAblations(w io.Writer, res *AblationResult, datasetNames []string) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ablation A — Hamming LOO accuracy by dimensionality")
	fmt.Fprint(tw, "D")
	for _, name := range datasetNames {
		fmt.Fprintf(tw, "\t%s", name)
	}
	fmt.Fprintln(tw)
	for i, dim := range res.Dims {
		fmt.Fprintf(tw, "%d", dim)
		for _, name := range datasetNames {
			fmt.Fprintf(tw, "\t%s", pct(res.DimAccuracy[name][i]))
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "Ablation B — record combination (majority vs bind+bundle)")
	fmt.Fprintln(tw, "Dataset\tMajority\tBindBundle")
	for _, name := range datasetNames {
		m := res.ModeAccuracy[name]
		fmt.Fprintf(tw, "%s\t%s\t%s\n", name, pct(m[0]), pct(m[1]))
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "Ablation C — majority tie-break rule")
	fmt.Fprintln(tw, "Dataset\tTies->1 (paper)\tTies->0")
	for _, name := range datasetNames {
		m := res.TieAccuracy[name]
		fmt.Fprintf(tw, "%s\t%s\t%s\n", name, pct(m[0]), pct(m[1]))
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "Ablation D — 1-NN Hamming vs class-prototype classifier")
	fmt.Fprintln(tw, "Dataset\t1-NN (paper)\tPrototype")
	for _, name := range datasetNames {
		m := res.NNvsProto[name]
		fmt.Fprintf(tw, "%s\t%s\t%s\n", name, pct(m[0]), pct(m[1]))
	}
	tw.Flush()
}

// DatasetNames returns the canonical dataset order for rendering.
func DatasetNames(cfg Config) []string {
	ds := LoadDatasets(cfg.normalized().Seed)
	names := make([]string, 0, 3)
	for _, d := range ds.List() {
		names = append(names, d.Name)
	}
	return names
}
