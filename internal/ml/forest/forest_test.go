package forest

import (
	"testing"

	"hdfe/internal/metrics"
	"hdfe/internal/rng"
)

// noisyBlobs: two overlapping Gaussian clusters plus noise features.
func noisyBlobs(seed uint64, n int) ([][]float64, []int) {
	r := rng.New(seed)
	var X [][]float64
	var y []int
	for i := 0; i < n; i++ {
		label := i % 2
		shift := float64(label) * 3
		X = append(X, []float64{
			shift + r.NormFloat64(),
			shift + r.NormFloat64(),
			r.NormFloat64(), // noise
			r.NormFloat64(), // noise
		})
		y = append(y, label)
	}
	return X, y
}

func TestForestSeparates(t *testing.T) {
	X, y := noisyBlobs(1, 300)
	f := New(Params{NumTrees: 50, Seed: 1})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := metrics.Accuracy(y, f.Predict(X)); acc < 0.95 {
		t.Fatalf("train accuracy %v", acc)
	}
	// Held-out accuracy is the honest estimate: on this overlap it should
	// be below the (over-fit) train accuracy but far above chance.
	teX, teY := noisyBlobs(101, 300)
	if acc := metrics.Accuracy(teY, f.Predict(teX)); acc < 0.8 {
		t.Fatalf("held-out accuracy %v", acc)
	}
}

func TestForestBeatsSingleTreeHeldOut(t *testing.T) {
	// More trees must not hurt held-out accuracy materially; 1 tree vs
	// 100 trees.
	X, y := noisyBlobs(2, 400)
	teX, teY := noisyBlobs(102, 400)
	small := New(Params{NumTrees: 1, Seed: 3})
	big := New(Params{NumTrees: 100, Seed: 3})
	if err := small.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := big.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	bigAcc := metrics.Accuracy(teY, big.Predict(teX))
	smallAcc := metrics.Accuracy(teY, small.Predict(teX))
	if bigAcc < smallAcc-0.02 {
		t.Fatalf("100-tree held-out accuracy %v worse than 1-tree %v", bigAcc, smallAcc)
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	X, y := noisyBlobs(4, 150)
	a, b := New(Params{NumTrees: 20, Seed: 9}), New(Params{NumTrees: 20, Seed: 9})
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Scores(X), b.Scores(X)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same-seed forests disagree")
		}
	}
	c := New(Params{NumTrees: 20, Seed: 10})
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	same := true
	sc := c.Scores(X)
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical forests")
	}
}

func TestForestDefaults(t *testing.T) {
	f := New(Params{})
	X, y := noisyBlobs(5, 60)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 100 {
		t.Fatalf("default NumTrees = %d", f.NumTrees())
	}
}

func TestForestScoresInUnitInterval(t *testing.T) {
	X, y := noisyBlobs(7, 100)
	f := New(Params{NumTrees: 30, Seed: 4})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Scores(X) {
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of [0,1]", s)
		}
	}
}

func TestForestPanicsBeforeFit(t *testing.T) {
	cases := []func(){
		func() { New(Params{}).Predict([][]float64{{1}}) },
		func() { New(Params{}).Scores([][]float64{{1}}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestForestErrorOnBadInput(t *testing.T) {
	if err := New(Params{}).Fit(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
}

func TestForestOnBinaryFeatures(t *testing.T) {
	// Hypervector-shaped input: 256 binary columns, label = column 7.
	r := rng.New(8)
	var X [][]float64
	var y []int
	for i := 0; i < 120; i++ {
		row := make([]float64, 256)
		for j := range row {
			row[j] = float64(r.Intn(2))
		}
		label := r.Intn(2)
		row[7] = float64(label)
		X = append(X, row)
		y = append(y, label)
	}
	f := New(Params{NumTrees: 60, Seed: 11})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := metrics.Accuracy(y, f.Predict(X)); acc < 0.97 {
		t.Fatalf("binary-feature accuracy %v", acc)
	}
}
