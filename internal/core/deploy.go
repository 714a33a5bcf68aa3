package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hdfe/internal/drift"
	"hdfe/internal/encode"
	"hdfe/internal/hv"
	"hdfe/internal/ml/hamming"
	"hdfe/internal/parallel"
)

// Deployment is the complete, shippable state of the pure-HDC clinical
// scorer: a fitted codebook plus the two bundled class prototypes. Saved
// once on the training machine, it lets any scoring endpoint encode a new
// patient and produce a risk score with no access to the training data —
// the deployment story of the paper's §III.B.
//
// Ref, when present, carries the training-time reference the serving
// stack's drift monitoring compares live traffic against: per-feature
// histograms of the training matrix plus the LOOCV quality baseline.
// Deployments written before the v2 layout load with Ref nil, which
// disables input-drift monitoring but changes nothing else.
type Deployment struct {
	Extractor *Extractor
	NegProto  hv.Vector
	PosProto  hv.Vector
	Ref       *drift.Reference
}

// deployMagicV1 and deployMagicV2 version the serialized deployment
// layout. V2 appends an optional drift-reference block after the
// prototypes; V1 files remain readable (Ref stays nil).
const (
	deployMagicV1 = "HDFEDEP1\n"
	deployMagicV2 = "HDFEDEP2\n"
)

// BuildDeployment fits an extractor on the labelled dataset rows and
// bundles class prototypes from the encoded records. It also captures
// the drift reference: per-feature training histograms and the
// leave-one-out 1-NN Hamming accuracy over the encoded cohort (the
// paper's validation protocol), which serving uses as the delayed-label
// canary baseline.
func BuildDeployment(specs []encode.Spec, X [][]float64, y []int, opts Options) (*Deployment, error) {
	ext := NewExtractor(opts)
	if err := ext.Fit(specs, X); err != nil {
		return nil, err
	}
	vs := ext.Transform(X)
	neg, pos := Prototypes(vs, y, opts.Tie)
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	posCount := 0
	for _, label := range y {
		if label == 1 {
			posCount++
		}
	}
	base := drift.Baseline{
		LOOCVAccuracy: hamming.LeaveOneOut(vs, y).Accuracy(),
		TrainRecords:  len(y),
		PosRate:       float64(posCount) / float64(len(y)),
	}
	ref := drift.BuildReference(names, X, drift.DefaultBins, base)
	return &Deployment{Extractor: ext, NegProto: neg, PosProto: pos, Ref: ref}, nil
}

// Score encodes one patient record and returns its risk score in [0, 1].
// It is safe for concurrent use: the fitted codebook is read-only and the
// encode scratch comes from a pool, so serving endpoints can call Score
// (and ScoreBatch) from many goroutines on one shared Deployment.
func (d *Deployment) Score(row []float64) float64 {
	s := hv.GetScratch(d.Extractor.Dim())
	score := d.scoreWithScratch(row, s)
	hv.PutScratch(s)
	return score
}

// scoreWithScratch encodes row into the scratch's record buffer and scores
// it against the prototypes — the zero-allocation core of Score/ScoreBatch.
func (d *Deployment) scoreWithScratch(row []float64, s *hv.Scratch) float64 {
	rec := s.Rec()
	d.Extractor.TransformRecordInto(row, rec, s)
	return ClassAffinity(rec, d.NegProto, d.PosProto)
}

// ScoreBatch scores many patient records at once, fanning rows out across
// workers with one encode scratch per worker. It is for offline bulk
// scoring, where one caller owns every CPU: steady-state throughput
// allocates only the returned slice (use ScoreBatchInto to recycle that
// too). A server scores each request with ScoreBatchIntoObserved instead,
// on its handler goroutine. Safe for concurrent use.
func (d *Deployment) ScoreBatch(rows [][]float64) []float64 {
	return d.ScoreBatchInto(rows, nil)
}

// ScoreBatchInto is ScoreBatch writing into dst (allocated if nil/short).
// Each worker scores its contiguous chunk with ScoreBatchIntoObserved.
func (d *Deployment) ScoreBatchInto(rows [][]float64, dst []float64) []float64 {
	if cap(dst) < len(rows) {
		dst = make([]float64, len(rows))
	}
	dst = dst[:len(rows)]
	parallel.ForChunked(len(rows), func(lo, hi int) {
		d.ScoreBatchIntoObserved(rows[lo:hi], dst[lo:hi], nil)
	})
	return dst
}

// WriteTo serializes the deployment (codebook + prototypes + optional
// drift reference) in the v2 layout.
func (d *Deployment) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	if _, err := bw.WriteString(deployMagicV2); err != nil {
		return n, err
	}
	cbBytes, err := d.Extractor.Codebook().WriteTo(bw)
	if err != nil {
		return n, fmt.Errorf("core: writing codebook: %w", err)
	}
	n += int64(len(deployMagicV2)) + cbBytes
	if err := hv.WriteVector(bw, d.NegProto); err != nil {
		return n, err
	}
	if err := hv.WriteVector(bw, d.PosProto); err != nil {
		return n, err
	}
	hasRef := byte(0)
	if d.Ref != nil {
		hasRef = 1
	}
	if err := bw.WriteByte(hasRef); err != nil {
		return n, err
	}
	if d.Ref != nil {
		refBytes, err := d.Ref.WriteTo(bw)
		n += refBytes
		if err != nil {
			return n, fmt.Errorf("core: writing drift reference: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	return n, nil
}

// ReadDeployment deserializes a deployment written by WriteTo. Both the
// v1 layout (no drift reference — Ref stays nil, drift monitoring
// disabled) and the v2 layout are accepted, so model artifacts written
// by older builds keep serving.
func ReadDeployment(r io.Reader) (*Deployment, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(deployMagicV2))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading deployment magic: %w", err)
	}
	version := string(magic)
	if version != deployMagicV1 && version != deployMagicV2 {
		return nil, fmt.Errorf("core: bad deployment magic %q", magic)
	}
	cb, err := encode.ReadCodebook(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading codebook: %w", err)
	}
	neg, err := hv.ReadVector(br, 0)
	if err != nil {
		return nil, fmt.Errorf("core: reading negative prototype: %w", err)
	}
	pos, err := hv.ReadVector(br, 0)
	if err != nil {
		return nil, fmt.Errorf("core: reading positive prototype: %w", err)
	}
	if neg.Dim() != cb.Dim() || pos.Dim() != cb.Dim() {
		return nil, fmt.Errorf("core: prototype dims %d/%d do not match codebook dim %d",
			neg.Dim(), pos.Dim(), cb.Dim())
	}
	var ref *drift.Reference
	if version == deployMagicV2 {
		hasRef, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("core: reading drift reference flag: %w", err)
		}
		switch hasRef {
		case 0:
		case 1:
			if ref, err = drift.ReadReference(br); err != nil {
				return nil, fmt.Errorf("core: reading drift reference: %w", err)
			}
			if len(ref.Features) != cb.NumFeatures() {
				return nil, fmt.Errorf("core: drift reference has %d features, codebook %d",
					len(ref.Features), cb.NumFeatures())
			}
		default:
			return nil, fmt.Errorf("core: bad drift reference flag %d", hasRef)
		}
	}
	// A well-formed artifact ends exactly here. Trailing bytes mean a
	// corrupt or concatenated file; refuse it rather than silently serve
	// a model whose artifact does not round-trip.
	switch _, err := br.ReadByte(); err {
	case io.EOF:
	case nil:
		return nil, fmt.Errorf("core: trailing garbage after deployment data")
	default:
		return nil, fmt.Errorf("core: checking for trailing data: %w", err)
	}
	return &Deployment{
		// The codebook serializes tie and mode alongside the encoders, so a
		// reloaded deployment carries the full fitted configuration (Seed is
		// training-time only and deliberately not restored).
		Extractor: &Extractor{opts: Options{Dim: cb.Dim(), Tie: cb.Tie(), Mode: cb.Mode()}, cb: cb},
		NegProto:  neg,
		PosProto:  pos,
		Ref:       ref,
	}, nil
}

// Save writes the deployment to path, the file-side of WriteTo. The write
// goes through a temp file in the same directory and an atomic rename, so
// a serving process never observes a half-written model.
func (d *Deployment) Save(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".hdfedep-*")
	if err != nil {
		return fmt.Errorf("core: saving deployment: %w", err)
	}
	if _, err := d.WriteTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("core: saving deployment to %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: saving deployment to %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: saving deployment: %w", err)
	}
	return nil
}

// ReadFile loads a deployment artifact and returns it with the hex
// SHA-256 of the file bytes — the identity hdserve records for each model
// and reports on /v1/models. The whole file is read up front so the
// digest covers exactly the bytes that were parsed.
func ReadFile(path string) (*Deployment, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("core: reading model artifact: %w", err)
	}
	sum := sha256.Sum256(raw)
	dep, err := ReadDeployment(bytes.NewReader(raw))
	if err != nil {
		return nil, "", fmt.Errorf("core: loading model from %s: %w", path, err)
	}
	return dep, hex.EncodeToString(sum[:]), nil
}

// LoadDeployment reads a deployment from a file written by Save/WriteTo.
func LoadDeployment(path string) (*Deployment, error) {
	dep, _, err := ReadFile(path)
	return dep, err
}
