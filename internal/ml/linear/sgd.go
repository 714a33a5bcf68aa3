package linear

import (
	"fmt"
	"math"

	"hdfe/internal/ml"
	"hdfe/internal/rng"
)

// SGDLoss selects the loss minimized by the SGD classifier.
type SGDLoss int

const (
	// Hinge is sklearn SGDClassifier's default (a linear SVM).
	Hinge SGDLoss = iota
	// LogLoss trains logistic regression by SGD.
	LogLoss
)

// SGD is a linear classifier trained by stochastic gradient descent with
// the "optimal" decreasing learning-rate schedule eta_t = 1/(alpha*(t0+t)),
// mirroring sklearn's SGDClassifier defaults (hinge loss, alpha = 1e-4,
// up to 1000 epochs). Like its sklearn counterpart it is sensitive to
// feature scale, which is exactly why the paper sees it improve by ~10
// points when raw clinical features are replaced by 0/1 hypervectors.
type SGD struct {
	// Loss selects hinge (default) or log loss.
	Loss SGDLoss
	// Alpha is the L2 regularization strength (sklearn default 1e-4).
	Alpha float64
	// Epochs bounds the passes over the data (sklearn max_iter, 1000).
	Epochs int
	// Tol stops training when the epoch loss improves by less than Tol
	// (sklearn default 1e-3); <= 0 disables early stopping.
	Tol float64
	// Seed drives the per-epoch shuffling.
	Seed uint64

	w     []float64
	b     float64
	width int
}

var _ ml.Classifier = (*SGD)(nil)

// NewSGD returns an SGD classifier with sklearn-like defaults.
func NewSGD(seed uint64) *SGD {
	return &SGD{Loss: Hinge, Alpha: 1e-4, Epochs: 1000, Tol: 1e-3, Seed: seed}
}

// Fit trains by SGD over shuffled epochs.
func (m *SGD) Fit(X [][]float64, y []int) error {
	if err := ml.ValidateFit(X, y); err != nil {
		return err
	}
	n := len(X)
	d := len(X[0])
	w := make([]float64, d)
	var b float64
	r := rng.New(m.Seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	alpha := m.Alpha
	if alpha <= 0 {
		alpha = 1e-4
	}
	// sklearn's "optimal" schedule: eta_t = 1 / (alpha * (t0 + t)) with
	// t0 from an initial step heuristic; a constant t0 = 1/alpha gives the
	// classical Bottou schedule eta_t = 1/(alpha*t + 1).
	t := 1.0
	best := math.Inf(1)
	noImprove := 0
	for epoch := 0; epoch < max(1, m.Epochs); epoch++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for _, i := range order {
			row := X[i]
			target := 2*float64(y[i]) - 1 // ±1
			z := b
			for j, v := range row {
				z += w[j] * v
			}
			eta := 1 / (alpha * (t + 1/alpha))
			t++
			// L2 shrink applies every step.
			shrink := 1 - eta*alpha
			if shrink < 0 {
				shrink = 0
			}
			for j := range w {
				w[j] *= shrink
			}
			switch m.Loss {
			case Hinge:
				margin := target * z
				epochLoss += math.Max(0, 1-margin)
				if margin < 1 {
					for j, v := range row {
						w[j] += eta * target * v
					}
					b += eta * target
				}
			case LogLoss:
				p := ml.Sigmoid(z)
				grad := p - float64(y[i])
				if y[i] == 1 {
					epochLoss += -math.Log(math.Max(p, 1e-15))
				} else {
					epochLoss += -math.Log(math.Max(1-p, 1e-15))
				}
				for j, v := range row {
					w[j] -= eta * grad * v
				}
				b -= eta * grad
			default:
				return fmt.Errorf("linear: unknown SGD loss %d", m.Loss)
			}
		}
		epochLoss /= float64(n)
		if m.Tol > 0 {
			if epochLoss > best-m.Tol {
				noImprove++
				if noImprove >= 5 { // sklearn n_iter_no_change default
					break
				}
			} else {
				noImprove = 0
			}
			if epochLoss < best {
				best = epochLoss
			}
		}
	}
	m.w, m.b, m.width = w, b, d
	return nil
}

// Predict thresholds the decision function at zero.
func (m *SGD) Predict(X [][]float64) []int {
	scores := m.Scores(X)
	out := make([]int, len(scores))
	for i, s := range scores {
		if s >= 0 {
			out[i] = 1
		}
	}
	return out
}

// Scores returns the signed decision function w·x + b per row.
func (m *SGD) Scores(X [][]float64) []float64 {
	if m.w == nil {
		panic("linear: predict before fit")
	}
	ml.CheckPredict(X, m.width)
	out := make([]float64, len(X))
	for i, row := range X {
		z := m.b
		for j, v := range row {
			z += m.w[j] * v
		}
		out[i] = z
	}
	return out
}

// String identifies the model in experiment tables.
func (m *SGD) String() string {
	loss := "hinge"
	if m.Loss == LogLoss {
		loss = "log"
	}
	return fmt.Sprintf("SGD(loss=%s,alpha=%g)", loss, m.Alpha)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
