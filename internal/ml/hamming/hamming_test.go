package hamming

import (
	"runtime"
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/metrics"
	"hdfe/internal/rng"
)

// flipRandom flips count distinct randomly chosen bits of v in place,
// putting it at Hamming distance exactly count from the original.
func flipRandom(v hv.Vector, r *rng.Source, count int) {
	for _, p := range r.Perm(v.Dim())[:count] {
		v.FlipBit(p)
	}
}

// clusteredVectors builds two Hamming-separated clusters: class 0 vectors
// are small perturbations of one prototype, class 1 of another.
func clusteredVectors(seed uint64, perClass, dim, noise int) ([]hv.Vector, []int) {
	r := rng.New(seed)
	protoA := hv.Rand(r, dim)
	protoB := hv.Rand(r, dim)
	var vs []hv.Vector
	var y []int
	for i := 0; i < perClass; i++ {
		a := protoA.Clone()
		flipRandom(a, r, noise)
		vs = append(vs, a)
		y = append(y, 0)
		b := protoB.Clone()
		flipRandom(b, r, noise)
		vs = append(vs, b)
		y = append(y, 1)
	}
	return vs, y
}

func TestLeaveOneOutOnSeparatedClusters(t *testing.T) {
	vs, y := clusteredVectors(4, 30, 2000, 100)
	c := LeaveOneOut(vs, y)
	if c.Total() != len(vs) {
		t.Fatalf("LOO total %d", c.Total())
	}
	if acc := c.Accuracy(); acc != 1 {
		t.Fatalf("LOO accuracy %v on well-separated clusters", acc)
	}
}

// naiveNearest is the leave-one-out rule written out: for each record,
// the first other record at the smallest Hamming distance.
func naiveNearest(vs []hv.Vector) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		best := -1
		for j, u := range vs {
			if j != i && (best == -1 || hv.Hamming(v, u) < hv.Hamming(v, vs[best])) {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

func TestLeaveOneOutMatchesNaive(t *testing.T) {
	r := rng.New(5)
	var vs []hv.Vector
	var y []int
	for i := 0; i < 25; i++ {
		vs = append(vs, hv.Rand(r, 300))
		y = append(y, i%2)
	}
	want := make([]int, len(vs))
	for i, j := range naiveNearest(vs) {
		want[i] = y[j]
	}
	for i, j := range nearestOthers(vs) {
		if y[j] != want[i] {
			t.Errorf("record %d: predicted %d (neighbour %d), naive rule predicts %d", i, y[j], j, want[i])
		}
	}
	if got, naive := LeaveOneOut(vs, y), metrics.NewConfusion(y, want); got != naive {
		t.Fatalf("LOO confusion %+v, naive %+v", got, naive)
	}
}

// TestNearestOthersTies pins the tiled pass to the naive rule record by
// record where ties are common: short vectors and repeated ones, record
// counts around the tile size, and 1, 2 and 4 workers.
func TestNearestOthersTies(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rng.New(9)
	for _, dim := range []int{8, 64, 65, 300} {
		for _, n := range []int{2, 3, tile - 1, tile, tile + 1, 3*tile + 5} {
			// Draw from a pool of n/3+1 vectors, so about two thirds of
			// the records repeat an earlier one.
			pool := make([]hv.Vector, n/3+1)
			for k := range pool {
				pool[k] = hv.Rand(r, dim)
			}
			vs := make([]hv.Vector, n)
			for i := range vs {
				vs[i] = pool[r.Intn(len(pool))].Clone()
			}
			want := naiveNearest(vs)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got := nearestOthers(vs)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("D=%d n=%d GOMAXPROCS=%d: record %d nearest %d, naive %d", dim, n, procs, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMergeAnyTileOrder deals the tiles to three workers in an order no
// scheduler is bound to produce (last tile first, round robin) and
// requires the merge to give the naive answer all the same.
func TestMergeAnyTileOrder(t *testing.T) {
	r := rng.New(13)
	pool := []hv.Vector{hv.Rand(r, 64), hv.Rand(r, 64), hv.Rand(r, 64)}
	vs := make([]hv.Vector, 3*tile+5)
	for i := range vs {
		vs[i] = pool[r.Intn(len(pool))]
	}
	tiles := triangleTiles(len(vs))
	near := [][]neighbour{unseen(len(vs)), unseen(len(vs)), unseen(len(vs))}
	for k := range tiles {
		scanTile(vs, tiles[len(tiles)-1-k], near[k%len(near)])
	}
	want := naiveNearest(vs)
	for i, got := range merge(near) {
		if got != want[i] {
			t.Errorf("record %d nearest %d, naive %d", i, got, want[i])
		}
	}
}

func TestLeaveOneOutPanics(t *testing.T) {
	v := hv.New(10)
	cases := []func(){
		func() { LeaveOneOut([]hv.Vector{v, v}, []int{0}) },
		func() { LeaveOneOut([]hv.Vector{v}, []int{0}) },
		func() { LeaveOneOut([]hv.Vector{v, hv.New(11)}, []int{0, 1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
