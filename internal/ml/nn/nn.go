// Package nn implements the paper's sequential neural network (§II.D): a
// dense feed-forward binary classifier with two 32-unit ReLU hidden layers
// and a sigmoid output, trained with Adam on binary cross-entropy for up to
// 1000 epochs with early stopping after 20 epochs without loss improvement.
//
// The implementation is batch-based; for wide inputs (the 10,000-bit
// hypervectors) the first layer's forward and gradient passes parallelize
// across output units, which is what keeps epoch time on hypervectors close
// to epoch time on 8 raw features — the paper's runtime observation.
package nn

import (
	"fmt"
	"math"

	"hdfe/internal/ml"
	"hdfe/internal/parallel"
	"hdfe/internal/rng"
)

// Config configures the network and its training loop. Zero values mean
// the paper's setup: hidden sizes {32, 32}, 1000 epochs, patience 20,
// Adam at 1e-3, batch size 32.
type Config struct {
	Hidden       []int
	MaxEpochs    int
	Patience     int
	LearningRate float64
	BatchSize    int
	Seed         uint64
}

// minDelta is the smallest loss decrease that counts as an improvement for
// early stopping; without it a converged network improving by float dust
// never stops.
const minDelta = 1e-4

func (c Config) normalized() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{32, 32}
	}
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = 1000
	}
	if c.Patience <= 0 {
		c.Patience = 20
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 1e-3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	return c
}

// layer is one dense layer with Adam state. Weights are row-major
// [out][in] flattened.
type layer struct {
	in, out int
	w, b    []float64
	mW, vW  []float64
	mB, vB  []float64
}

func newLayer(r *rng.Source, in, out int) *layer {
	l := &layer{
		in: in, out: out,
		w: make([]float64, in*out), b: make([]float64, out),
		mW: make([]float64, in*out), vW: make([]float64, in*out),
		mB: make([]float64, out), vB: make([]float64, out),
	}
	// He initialization for ReLU stacks.
	scale := math.Sqrt(2 / float64(in))
	for i := range l.w {
		l.w[i] = r.NormFloat64() * scale
	}
	return l
}

// Classifier is the sequential network.
type Classifier struct {
	cfg    Config
	layers []*layer
	width  int
	epochs int // epochs actually run in the last Fit
}

var _ ml.Classifier = (*Classifier)(nil)

// New returns an untrained network.
func New(cfg Config) *Classifier { return &Classifier{cfg: cfg.normalized()} }

// Fit trains on X/y, monitoring the training loss for early stopping (the
// paper's condition: stop when the loss has not improved for Patience
// consecutive epochs).
func (c *Classifier) Fit(X [][]float64, y []int) error {
	return c.FitValidated(X, y, nil, nil)
}

// FitValidated trains on X/y; when Xval is non-empty the early-stopping
// monitor is the validation loss instead of the training loss (the paper's
// Table II protocol, which holds out 15% for validation).
func (c *Classifier) FitValidated(X [][]float64, y []int, Xval [][]float64, yval []int) error {
	if err := ml.ValidateFit(X, y); err != nil {
		return err
	}
	if len(Xval) != len(yval) {
		return fmt.Errorf("nn: %d validation rows but %d labels", len(Xval), len(yval))
	}
	n := len(X)
	c.width = len(X[0])
	r := rng.New(c.cfg.Seed)
	sizes := append([]int{c.width}, c.cfg.Hidden...)
	sizes = append(sizes, 1)
	c.layers = make([]*layer, len(sizes)-1)
	for i := range c.layers {
		c.layers[i] = newLayer(r, sizes[i], sizes[i+1])
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	bestLoss := math.Inf(1)
	noImprove := 0
	step := 0
	ws := newWorkspace(c, c.cfg.BatchSize)
	c.epochs = 0
	for epoch := 0; epoch < c.cfg.MaxEpochs; epoch++ {
		c.epochs++
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for lo := 0; lo < n; lo += c.cfg.BatchSize {
			hi := lo + c.cfg.BatchSize
			if hi > n {
				hi = n
			}
			batch := order[lo:hi]
			step++
			epochLoss += c.trainBatch(ws, X, y, batch, step) * float64(len(batch))
		}
		epochLoss /= float64(n)
		monitor := epochLoss
		if len(Xval) > 0 {
			monitor = c.Loss(Xval, yval)
		}
		if monitor < bestLoss-minDelta {
			bestLoss = monitor
			noImprove = 0
		} else {
			noImprove++
			if noImprove >= c.cfg.Patience {
				break
			}
		}
	}
	return nil
}

// workspace holds per-fit batch buffers to avoid per-batch allocation.
type workspace struct {
	acts   [][]float64 // activations per layer: [layer][sample*out]
	deltas [][]float64 // error terms per layer
	gradW  [][]float64
	gradB  [][]float64
}

func newWorkspace(c *Classifier, batch int) *workspace {
	ws := &workspace{}
	for _, l := range c.layers {
		ws.acts = append(ws.acts, make([]float64, batch*l.out))
		ws.deltas = append(ws.deltas, make([]float64, batch*l.out))
		ws.gradW = append(ws.gradW, make([]float64, len(l.w)))
		ws.gradB = append(ws.gradB, make([]float64, len(l.b)))
	}
	return ws
}

// trainBatch runs one forward/backward/Adam step and returns the mean
// batch loss.
func (c *Classifier) trainBatch(ws *workspace, X [][]float64, y []int, batch []int, step int) float64 {
	m := len(batch)
	last := len(c.layers) - 1

	// Forward.
	for li, l := range c.layers {
		out := ws.acts[li][:m*l.out]
		getIn := func(s int) []float64 {
			if li == 0 {
				return X[batch[s]]
			}
			prev := c.layers[li-1]
			return ws.acts[li-1][s*prev.out : (s+1)*prev.out]
		}
		forward := func(oLo, oHi int) {
			for s := 0; s < m; s++ {
				in := getIn(s)
				base := s * l.out
				for o := oLo; o < oHi; o++ {
					z := l.b[o]
					wRow := l.w[o*l.in : (o+1)*l.in]
					for j, v := range in {
						z += wRow[j] * v
					}
					if li == last {
						out[base+o] = ml.Sigmoid(z)
					} else if z > 0 {
						out[base+o] = z
					} else {
						out[base+o] = 0
					}
				}
			}
		}
		if l.in*l.out >= 1<<16 {
			parallel.ForChunked(l.out, forward)
		} else {
			forward(0, l.out)
		}
	}

	// Loss and output delta.
	var loss float64
	outAct := ws.acts[last]
	dOut := ws.deltas[last]
	for s := 0; s < m; s++ {
		p := outAct[s]
		t := float64(y[batch[s]])
		p = math.Min(math.Max(p, 1e-12), 1-1e-12)
		loss += -(t*math.Log(p) + (1-t)*math.Log(1-p))
		dOut[s] = (outAct[s] - t) / float64(m) // sigmoid+BCE shortcut
	}
	loss /= float64(m)

	// Backward.
	for li := last; li >= 0; li-- {
		l := c.layers[li]
		delta := ws.deltas[li][:m*l.out]
		gW := ws.gradW[li]
		gB := ws.gradB[li]
		for i := range gW {
			gW[i] = 0
		}
		for i := range gB {
			gB[i] = 0
		}
		getIn := func(s int) []float64 {
			if li == 0 {
				return X[batch[s]]
			}
			prev := c.layers[li-1]
			return ws.acts[li-1][s*prev.out : (s+1)*prev.out]
		}
		accumulate := func(oLo, oHi int) {
			for s := 0; s < m; s++ {
				in := getIn(s)
				base := s * l.out
				for o := oLo; o < oHi; o++ {
					d := delta[base+o]
					if d == 0 {
						continue
					}
					wRow := gW[o*l.in : (o+1)*l.in]
					for j, v := range in {
						wRow[j] += d * v
					}
					gB[o] += d
				}
			}
		}
		if l.in*l.out >= 1<<16 {
			parallel.ForChunked(l.out, accumulate)
		} else {
			accumulate(0, l.out)
		}
		// Propagate delta to the previous layer (ReLU derivative).
		if li > 0 {
			prev := c.layers[li-1]
			prevDelta := ws.deltas[li-1][:m*prev.out]
			prevAct := ws.acts[li-1]
			for s := 0; s < m; s++ {
				base := s * l.out
				pBase := s * prev.out
				for j := 0; j < prev.out; j++ {
					if prevAct[pBase+j] <= 0 {
						prevDelta[pBase+j] = 0
						continue
					}
					var sum float64
					for o := 0; o < l.out; o++ {
						sum += delta[base+o] * l.w[o*l.in+j]
					}
					prevDelta[pBase+j] = sum
				}
			}
		}
		c.adam(l, gW, gB, step)
	}
	return loss
}

// adam applies one Adam update to layer l given accumulated gradients.
func (c *Classifier) adam(l *layer, gW, gB []float64, step int) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	lr := c.cfg.LearningRate
	bc1 := 1 - math.Pow(beta1, float64(step))
	bc2 := 1 - math.Pow(beta2, float64(step))
	update := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g := gW[i]
			l.mW[i] = beta1*l.mW[i] + (1-beta1)*g
			l.vW[i] = beta2*l.vW[i] + (1-beta2)*g*g
			l.w[i] -= lr * (l.mW[i] / bc1) / (math.Sqrt(l.vW[i]/bc2) + eps)
		}
	}
	if len(l.w) >= 1<<16 {
		parallel.ForChunked(len(l.w), update)
	} else {
		update(0, len(l.w))
	}
	for i := range l.b {
		g := gB[i]
		l.mB[i] = beta1*l.mB[i] + (1-beta1)*g
		l.vB[i] = beta2*l.vB[i] + (1-beta2)*g*g
		l.b[i] -= lr * (l.mB[i] / bc1) / (math.Sqrt(l.vB[i]/bc2) + eps)
	}
}

// forwardRow computes the network output probability for one row.
func (c *Classifier) forwardRow(row []float64, buf [][]float64) float64 {
	in := row
	for li, l := range c.layers {
		out := buf[li][:l.out]
		for o := 0; o < l.out; o++ {
			z := l.b[o]
			wRow := l.w[o*l.in : (o+1)*l.in]
			for j, v := range in {
				z += wRow[j] * v
			}
			if li == len(c.layers)-1 {
				out[o] = ml.Sigmoid(z)
			} else if z > 0 {
				out[o] = z
			} else {
				out[o] = 0
			}
		}
		in = out
	}
	return in[0]
}

// Predict thresholds the output probability at 0.5.
func (c *Classifier) Predict(X [][]float64) []int {
	scores := c.Scores(X)
	out := make([]int, len(scores))
	for i, s := range scores {
		if s >= 0.5 {
			out[i] = 1
		}
	}
	return out
}

// Scores returns the output probability per row; rows run in parallel.
func (c *Classifier) Scores(X [][]float64) []float64 {
	if c.layers == nil {
		panic("nn: predict before fit")
	}
	ml.CheckPredict(X, c.width)
	out := make([]float64, len(X))
	parallel.ForChunked(len(X), func(lo, hi int) {
		buf := make([][]float64, len(c.layers))
		for li, l := range c.layers {
			buf[li] = make([]float64, l.out)
		}
		for i := lo; i < hi; i++ {
			out[i] = c.forwardRow(X[i], buf)
		}
	})
	return out
}

// Loss returns the mean binary cross-entropy over the given set.
func (c *Classifier) Loss(X [][]float64, y []int) float64 {
	scores := c.Scores(X)
	var loss float64
	for i, p := range scores {
		p = math.Min(math.Max(p, 1e-12), 1-1e-12)
		t := float64(y[i])
		loss += -(t*math.Log(p) + (1-t)*math.Log(1-p))
	}
	return loss / float64(len(X))
}

// EpochsRun reports how many epochs the last Fit executed (early stopping
// makes this less than MaxEpochs on easy data).
func (c *Classifier) EpochsRun() int { return c.epochs }

// String identifies the model in experiment tables.
func (c *Classifier) String() string {
	return fmt.Sprintf("SequentialNN(hidden=%v)", c.cfg.Hidden)
}
