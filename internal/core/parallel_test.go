package core

import (
	"math"
	"math/rand"
	"testing"

	"tcss/internal/geo"
	"tcss/internal/tensor"
)

// parallelFixture is a model + data instance large enough that every worker
// count in the invariance tables gets multiple non-trivial shards.
type parallelFixture struct {
	m    *Model
	x    *tensor.COO
	head *Hausdorff
	side *SideInfo
}

func newParallelFixture(seed int64) *parallelFixture {
	rng := rand.New(rand.NewSource(seed))
	const I, J, K, r = 12, 25, 5, 4
	m := randomModel(I, J, K, r, rng)
	x := randomBinaryCOO(I, J, K, 120, rng)

	pts := make([]geo.Point, J)
	for j := range pts {
		pts[j] = geo.Point{Lat: float64(j%5) * 0.1, Lon: float64(j/5) * 0.1}
	}
	dist := geo.NewDistanceMatrix(pts)

	friendPOIs := make([][]int, I)
	ownPOIs := make([][]int, I)
	entropyW := make([]float64, J)
	for j := range entropyW {
		entropyW[j] = 0.5 + 0.5*rng.Float64()
	}
	for i := range friendPOIs {
		if i%4 == 0 {
			continue // leave some users without friend POIs
		}
		friendPOIs[i] = []int{i % J, (i*3 + 1) % J, (i*7 + 2) % J}
		ownPOIs[i] = []int{(i * 2) % J}
	}
	side := &SideInfo{Dist: dist, EntropyW: entropyW, OwnPOIs: ownPOIs, FriendPOIs: friendPOIs}
	return &parallelFixture{
		m: m, x: x, side: side,
		head: NewHausdorff(dist, entropyW, friendPOIs),
	}
}

func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func assertGradsClose(t *testing.T, tag string, want, got *Grads, tol float64) {
	t.Helper()
	for _, pair := range []struct {
		name       string
		want, got2 []float64
	}{
		{"DU1", want.DU1.Data, got.DU1.Data},
		{"DU2", want.DU2.Data, got.DU2.Data},
		{"DU3", want.DU3.Data, got.DU3.Data},
		{"DH", want.DH, got.DH},
	} {
		if d := maxAbsDiff(pair.want, pair.got2); d > tol {
			t.Fatalf("%s: %s differs by %g (> %g)", tag, pair.name, d, tol)
		}
	}
}

// TestWholeDataLossWorkerInvariance asserts the parallel positive-entry loop
// reproduces the serial loss and gradient at every worker count: workers = 1
// is the serial loop itself, and higher counts only regroup the shard-ordered
// reduction, staying within 1e-10.
func TestWholeDataLossWorkerInvariance(t *testing.T) {
	f := newParallelFixture(1)
	refGrads := NewGrads(f.m)
	ref := f.m.WholeDataLossWorkers(f.x, 0.99, 0.01, refGrads, 1)
	for _, w := range []int{2, 4, 8} {
		g := NewGrads(f.m)
		got := f.m.WholeDataLossWorkers(f.x, 0.99, 0.01, g, w)
		if math.Abs(got-ref) > 1e-10 {
			t.Fatalf("workers=%d: loss %g vs serial %g", w, got, ref)
		}
		assertGradsClose(t, "whole-data", refGrads, g, 1e-10)
	}
}

func TestNegSamplingLossWorkerInvariance(t *testing.T) {
	f := newParallelFixture(2)
	rng := rand.New(rand.NewSource(3))
	negs, err := SampleNegatives(f.x, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	refGrads := NewGrads(f.m)
	ref := f.m.NegSamplingLossWorkers(f.x, negs, 0.99, 0.01, refGrads, 1)
	for _, w := range []int{2, 8} {
		g := NewGrads(f.m)
		got := f.m.NegSamplingLossWorkers(f.x, negs, 0.99, 0.01, g, w)
		if math.Abs(got-ref) > 1e-10 {
			t.Fatalf("workers=%d: loss %g vs serial %g", w, got, ref)
		}
		assertGradsClose(t, "neg-sampling", refGrads, g, 1e-10)
	}
}

func TestHausdorffLossWorkerInvariance(t *testing.T) {
	f := newParallelFixture(4)
	users := make([]int, f.m.I)
	for i := range users {
		users[i] = i
	}
	refGrads := NewGrads(f.m)
	ref := f.head.LossWorkers(f.m, users, refGrads, 1)
	for _, w := range []int{2, 8} {
		// A fresh head per worker count proves the lazily built caches
		// (min-distances, normalized distances) do not depend on which worker
		// populates them.
		head := NewHausdorff(f.side.Dist, f.side.EntropyW, f.side.FriendPOIs)
		g := NewGrads(f.m)
		got := head.LossWorkers(f.m, users, g, w)
		if math.Abs(got-ref) > 1e-10 {
			t.Fatalf("workers=%d: loss %g vs serial %g", w, got, ref)
		}
		assertGradsClose(t, "hausdorff", refGrads, g, 1e-10)
	}
}

// TestScoreSlabMatchesPredict pins the slab GEMM kernel to the scalar Eq (6)
// evaluation across the whole J×K slice of several users.
func TestScoreSlabMatchesPredict(t *testing.T) {
	f := newParallelFixture(5)
	m := f.m
	out := make([]float64, m.J*m.K)
	scratch := make([]float64, 2*m.Rank)
	for _, i := range []int{0, 3, m.I - 1} {
		m.ScoreSlabScratch(i, out, scratch)
		for j := 0; j < m.J; j++ {
			for k := 0; k < m.K; k++ {
				want := m.Predict(i, j, k)
				if d := math.Abs(out[j*m.K+k] - want); d > 1e-12 {
					t.Fatalf("slab (%d,%d,%d): %g vs Predict %g", i, j, k, out[j*m.K+k], want)
				}
			}
		}
	}
}

func TestScoreCandidatesMatchesScore(t *testing.T) {
	f := newParallelFixture(6)
	m := f.m
	// Exercise the zero-out branch too.
	m.ZeroOutFilter = buildZeroOutFilter(m, f.side, 0.3, 1)
	js := []int{0, 5, 7, 11, 24}
	out := make([]float64, len(js))
	for i := 0; i < m.I; i++ {
		for k := 0; k < m.K; k++ {
			m.ScoreCandidates(i, k, js, out)
			for n, j := range js {
				want := m.Score(i, j, k)
				if math.IsInf(want, -1) {
					if !math.IsInf(out[n], -1) {
						t.Fatalf("(%d,%d,%d): filter not applied", i, j, k)
					}
					continue
				}
				if d := math.Abs(out[n] - want); d > 1e-12 {
					t.Fatalf("(%d,%d,%d): %g vs Score %g", i, j, k, out[n], want)
				}
			}
		}
	}
}

// TestZeroOutFilterWorkerInvariance: the filter rows are computed
// independently per user, so any worker count must give bit-for-bit the same
// boolean matrix.
func TestZeroOutFilterWorkerInvariance(t *testing.T) {
	f := newParallelFixture(7)
	ref := buildZeroOutFilter(f.m, f.side, 0.2, 1)
	for _, w := range []int{2, 8} {
		got := buildZeroOutFilter(f.m, f.side, 0.2, w)
		for i := range ref {
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: filter[%d][%d] = %v, want %v", w, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestTrainShortRunParallel drives a few epochs with Workers = 8 so the
// sharded loss kernels, the per-user distance caches and the zero-out filter
// build all run concurrently under the race detector (go test -race).
func TestTrainShortRunParallel(t *testing.T) {
	f := newParallelFixture(8)
	cfg := DefaultConfig()
	cfg.Rank = 4 // the fixture's K = 5 is below the default spectral rank
	cfg.Init = RandomInit
	cfg.Epochs = 3
	cfg.Workers = 8
	cfg.Variant = ZeroOut
	var last float64
	cfg.EpochCallback = func(epoch int, m *Model, loss float64) { last = loss }
	m, err := Train(f.x, f.side, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.ZeroOutFilter == nil {
		t.Fatal("zero-out variant must build a filter")
	}
	if math.IsNaN(last) || math.IsInf(last, 0) {
		t.Fatalf("non-finite training loss %g", last)
	}

	cfg.Variant = SocialHausdorff
	if _, err := Train(f.x, f.side, cfg); err != nil {
		t.Fatal(err)
	}
}
