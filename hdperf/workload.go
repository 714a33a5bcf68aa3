package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strconv"

	"hdfe/internal/core"
	"hdfe/internal/dataset"
	"hdfe/internal/encode"
	"hdfe/internal/synth"
)

// workload is one traffic mix. The reasons each exists are in README.md
// and BENCHMARK.json.
type workload struct {
	name  string
	data  string // "pima" or "sylhet"
	paced bool   // open loop of single-record scores plus labels; otherwise closed-loop cohort batches
	audit bool   // serve with -audit-dir
}

var workloads = []workload{
	{name: "pima-paced-rw", data: "pima", paced: true, audit: true},
	{name: "pima-cohort", data: "pima"},
	{name: "sylhet-cohort", data: "sylhet"},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverFlags are the hdserve flags the workload sets beyond -model and
// -addr for the start-th server of a run; every other flag keeps its
// default. Each start gets a fresh audit directory, so the verified chain
// holds exactly the measured server's decisions.
func (w workload) serverFlags(runDir string, start int) []string {
	if !w.audit {
		return nil
	}
	return []string{"-audit-dir", auditDir(runDir, start)}
}

func auditDir(runDir string, start int) string {
	return filepath.Join(runDir, fmt.Sprintf("audit-%d", start))
}

// scoringSeedMix derives the scoring cohort's generator seed from the
// workload seed, so one seed fixes both cohorts.
const scoringSeedMix = 0x9e3779b97f4a7c15

// inputs are everything a run sends or fits, generated from the seed.
type inputs struct {
	specs  []encode.Spec
	train  *dataset.Dataset
	rows   [][]float64 // scoring cohort, disjoint from train
	labels []int       // ground truth of rows, sent as feedback
}

func makeInputs(data string, seed uint64) inputs {
	gen := func(s uint64) *dataset.Dataset {
		if data == "pima" {
			return synth.PimaM(s)
		}
		return synth.Sylhet(synth.DefaultSylhetConfig(s))
	}
	train := gen(seed)
	scoring := gen(seed ^ scoringSeedMix)
	seen := make(map[string]bool, len(train.X))
	for _, row := range train.X {
		seen[fmt.Sprint(row)] = true
	}
	in := inputs{specs: core.SpecsFor(train.Features), train: train}
	for i, row := range scoring.X {
		if !seen[fmt.Sprint(row)] {
			in.rows = append(in.rows, row)
			in.labels = append(in.labels, scoring.Y[i])
		}
	}
	return in
}

func appendRow(b []byte, row []float64) []byte {
	b = append(b, '[')
	for j, v := range row {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// scoreBody is a POST /v1/score body.
func scoreBody(row []float64) []byte {
	b := appendRow([]byte(`{"features":`), row)
	return append(b, '}')
}

// batchBody is a POST /v1/score/batch body holding n rows from first on,
// wrapping around the cohort.
func batchBody(rows [][]float64, first, n int) []byte {
	b := []byte(`{"records":[`)
	for k := 0; k < n; k++ {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendRow(b, rows[(first+k)%len(rows)])
	}
	return append(b, "]}"...)
}

// labelBody is a POST /v1/feedback body carrying one label per request
// ID.
func labelBody(ids []string, labels []int) []byte {
	b := []byte(`{"items":[`)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(b, `{"request_id":`...), id)
		b = strconv.AppendInt(append(b, `,"label":`...), int64(labels[i]), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

type scoreResponse struct {
	RequestID string  `json:"request_id"`
	Score     float64 `json:"score"`
}

type batchResponse struct {
	RequestIDs []string  `json:"request_ids"`
	Scores     []float64 `json:"scores"`
}

type feedbackResponse struct {
	Matched int `json:"matched"`
}

// checkScore is the output check: a served score must equal in-process
// scoring of the same artifact bit for bit.
func checkScore(got, want float64, row int) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("row %d: served score %v, in-process %v", row, got, want)
	}
	return nil
}

// checkBatch applies checkScore to a batch of n rows starting at first.
func checkBatch(br batchResponse, want []float64, first, n int) error {
	if len(br.Scores) != n || len(br.RequestIDs) != n {
		return fmt.Errorf("batch at row %d: %d scores and %d request IDs, want %d", first, len(br.Scores), len(br.RequestIDs), n)
	}
	for k, got := range br.Scores {
		row := (first + k) % len(want)
		if err := checkScore(got, want[row], row); err != nil {
			return err
		}
	}
	return nil
}
