package main

import (
	"time"

	"hdfe/internal/core"
	"hdfe/internal/encode"
	"hdfe/internal/hv"
	"hdfe/internal/ml/hamming"
	"hdfe/internal/obs"
	"hdfe/internal/rng"
)

const (
	layerReps    = 5     // repetitions of each kernel and encoder loop
	fitReps      = 3     // repetitions of the fit and batch-scoring calls
	bundleRows   = 256   // rows whose codewords are bundled for hv.accumulate and hv.majority
	hammingPairs = 50000 // hv.Hamming calls per repetition
)

// sinkDist keeps hv.Hamming results live, so the compiler cannot drop
// the calls.
var sinkDist int

// timeLayers calls the public hv, encode and core functions on the run's
// own rows, one span per call or loop, and returns their per-layer
// metrics. dep is the deployment loaded from the served artifact.
func timeLayers(tr *tracer, in inputs, dep *core.Deployment, seed uint64) (map[string]metric, error) {
	root := tr.start("layers", 0)
	defer tr.end(root, 1)
	loop := func(name string, reps, count int, fn func()) {
		for r := 0; r < reps; r++ {
			sp := tr.start(name, root)
			fn()
			tr.end(sp, count)
		}
	}
	cb := dep.Extractor.Codebook()
	dim := cb.Dim()
	rows := in.rows

	// Feature codewords by encoder kind, for every scoring row.
	var levels []*encode.LevelEncoder
	var bins []*encode.BinaryEncoder
	var levelCols, binCols []int
	for j := 0; j < cb.NumFeatures(); j++ {
		switch e := cb.Feature(j).(type) {
		case *encode.LevelEncoder:
			levels, levelCols = append(levels, e), append(levelCols, j)
		case *encode.BinaryEncoder:
			bins, binCols = append(bins, e), append(binCols, j)
		}
	}
	if len(bins) == 0 {
		// Pima has no binary feature: time a binary encoder that splits
		// the first column at its median.
		col := make([]float64, len(rows))
		for i, row := range rows {
			col[i] = row[0]
		}
		bins, binCols = []*encode.BinaryEncoder{encode.NewBinaryEncoder(rng.New(seed), dim, percentile(col, 0.5))}, []int{0}
	}
	buf := hv.New(dim)
	loop("encode.level", layerReps, len(rows)*len(levels), func() {
		for _, row := range rows {
			for k, e := range levels {
				e.EncodeInto(row[levelCols[k]], buf)
			}
		}
	})
	loop("encode.binary", layerReps, len(rows)*len(bins), func() {
		for _, row := range rows {
			for k, e := range bins {
				e.EncodeInto(row[binCols[k]], buf)
			}
		}
	})

	// Whole-record encode on one goroutine.
	s := hv.NewScratch(dim)
	rec := hv.New(dim)
	loop("encode.record", fitReps, len(rows), func() {
		for _, row := range rows {
			cb.EncodeRecordInto(row, rec, s)
		}
	})

	// Bundling, split per record into accumulating its codewords and
	// taking their majority.
	n := min(bundleRows, len(rows))
	codewords := make([][]hv.Vector, n)
	records := make([]hv.Vector, n)
	for i := range codewords {
		codewords[i] = make([]hv.Vector, cb.NumFeatures())
		for j := range codewords[i] {
			codewords[i][j] = cb.EncodeFeature(j, rows[i][j])
		}
		records[i] = cb.EncodeRecord(rows[i])
	}
	acc := hv.NewAccumulator(dim)
	for r := 0; r < layerReps; r++ {
		for _, cws := range codewords {
			acc.Reset()
			t0 := time.Now()
			for _, v := range cws {
				acc.Add(v)
			}
			t1 := time.Now()
			acc.MajorityInto(cb.Tie(), rec)
			t2 := time.Now()
			tr.add("hv.accumulate", root, t0, t1, len(cws))
			tr.add("hv.majority", root, t1, t2, 1)
		}
	}

	// Hamming distance between encoded records at the served dimension.
	loop("hv.hamming", layerReps, hammingPairs, func() {
		d := 0
		for i := 0; i < hammingPairs; i++ {
			d += hv.Hamming(records[i%n], records[(i/n+i+1)%n])
		}
		sinkDist = d
	})

	// The fit's two heavy steps on the training cohort.
	for r := 0; r < fitReps; r++ {
		ext := core.NewExtractor(core.Options{Seed: seed})
		if err := ext.Fit(in.specs, in.train.X); err != nil {
			return nil, err
		}
		sp := tr.start("core.transform", root)
		vs := ext.Transform(in.train.X)
		tr.end(sp, len(vs))
		sp = tr.start("core.loocv", root)
		hamming.LeaveOneOut(vs, in.train.Y)
		tr.end(sp, len(vs))
	}

	// The served scoring call, split into encode and distance per record
	// (summed over the batch workers).
	var stages obs.StageAccum
	dst := make([]float64, len(rows))
	loop("core.score_batch", fitReps, len(rows), func() {
		dep.ScoreBatchIntoObserved(rows, dst, &stages)
	})
	encodeTime, distanceTime, scored := stages.Totals()

	return map[string]metric{
		"hv.hamming_ns":               {tr.nsPerOp("hv.hamming"), "ns"},
		"hv.accumulate_ns":            {tr.nsPerOp("hv.accumulate"), "ns"},
		"hv.majority_ns":              {tr.nsPerOp("hv.majority"), "ns"},
		"encode.level_ns":             {tr.nsPerOp("encode.level"), "ns"},
		"encode.binary_ns":            {tr.nsPerOp("encode.binary"), "ns"},
		"encode.record_ns":            {tr.nsPerOp("encode.record"), "ns"},
		"core.transform_s":            {tr.medianSeconds("core.transform"), "s"},
		"core.loocv_s":                {tr.medianSeconds("core.loocv"), "s"},
		"core.encode_ns_per_record":   {ratio(float64(encodeTime), float64(scored)), "ns"},
		"core.distance_ns_per_record": {ratio(float64(distanceTime), float64(scored)), "ns"},
	}, nil
}
