package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tcss/internal/mat"
)

// randomRecModel builds a model with random factors for ranking tests.
func randomRecModel(i, j, k, rank int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(i, j, k, rank)
	for t := range m.U1.Data {
		m.U1.Data[t] = rng.NormFloat64()
	}
	for t := range m.U2.Data {
		m.U2.Data[t] = rng.NormFloat64()
	}
	for t := range m.U3.Data {
		m.U3.Data[t] = rng.NormFloat64()
	}
	for t := range m.H {
		m.H[t] = rng.NormFloat64()
	}
	return m
}

// referenceTopN ranks every candidate with a full sort — the O(J log J)
// specification the bounded heap must reproduce exactly, ties included. It
// does not share TopNScratch's kernel: the factor rows are widened to float64
// up front (Decompress yields exactly the values the compact kernels widen
// to) and scored with the float64 mat.DotUnrolled. int8 scores keep the row
// scale outside the dot, S2[j] * DotUnrolled(w, float64(q)), as the serving
// kernel does, so the comparison is bit-exact in every storage mode.
func referenceTopN(m *Model, i, k, n int, skip map[int]bool) []Recommendation {
	dm := m.Decompress()
	w := make([]float64, m.Rank)
	u1, u3 := dm.U1.Row(i), dm.U3.Row(k)
	for t := range w {
		w[t] = m.H[t] * u1[t] * u3[t]
	}
	r := m.Rank
	row := make([]float64, r)
	recs := make([]Recommendation, 0, m.J)
	for j := 0; j < m.J; j++ {
		if skip[j] {
			continue
		}
		if m.ZeroOutFilter != nil && !m.ZeroOutFilter[i][j] {
			continue
		}
		var score float64
		if m.Mode == StorageInt8 {
			for t, q := range m.Compact.U2q[j*r : (j+1)*r] {
				row[t] = float64(q)
			}
			score = m.Compact.S2[j] * mat.DotUnrolled(w, row)
		} else {
			score = mat.DotUnrolled(w, dm.U2.Row(j))
		}
		recs = append(recs, Recommendation{POI: j, Score: score})
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].Score != recs[b].Score {
			return recs[a].Score > recs[b].Score
		}
		return recs[a].POI < recs[b].POI
	})
	if n < len(recs) {
		recs = recs[:n]
	}
	return recs
}

// TestTopNScratchMatchesReference: in every storage mode, with and without a
// zero-out filter, TopNScratch must return exactly the reference ranking —
// random users, time slices, n and skip lists, one scratch shared across all
// of them.
func TestTopNScratchMatchesReference(t *testing.T) {
	base := randomRecModel(6, 57, 4, 7, 1)
	filter := make([][]bool, base.I)
	for i := range filter {
		filter[i] = make([]bool, base.J)
		for j := range filter[i] {
			filter[i][j] = (i*7+j)%5 != 0
		}
	}
	scratch := NewRecScratch(nil)
	rng := rand.New(rand.NewSource(2))
	for _, zf := range [][][]bool{nil, filter} {
		for _, mode := range []StorageMode{StorageFloat64, StorageFloat32, StorageInt8} {
			m, err := base.ToStorage(mode)
			if err != nil {
				t.Fatal(err)
			}
			fm := *m
			fm.ZeroOutFilter = zf
			for trial := 0; trial < 30; trial++ {
				i, k := rng.Intn(fm.I), rng.Intn(fm.K)
				n := 1 + rng.Intn(fm.J+5)
				skip := map[int]bool{}
				var skipList []int
				for j := 0; j < fm.J; j++ {
					if rng.Float64() < 0.2 {
						skip[j] = true
						skipList = append(skipList, j)
					}
				}
				got := fm.TopNScratch(i, k, n, skipList, scratch)
				want := referenceTopN(&fm, i, k, n, skip)
				if len(got) != len(want) {
					t.Fatalf("%v filter=%v trial %d: got %d recs, want %d", mode, zf != nil, trial, len(got), len(want))
				}
				for r := range got {
					if got[r] != want[r] {
						t.Fatalf("%v filter=%v trial %d rank %d: got %+v, want %+v", mode, zf != nil, trial, r, got[r], want[r])
					}
				}
			}
		}
	}
}

func TestTopNScratchTies(t *testing.T) {
	// All candidates score identically: the tie-break must hand back the
	// lowest POI ids in ascending order, as the full sort does.
	m := NewModel(1, 9, 1, 1)
	for j := 0; j < m.J; j++ {
		m.U2.Set(j, 0, 1)
	}
	m.U1.Set(0, 0, 1)
	m.U3.Set(0, 0, 1)
	m.H[0] = 1
	got := m.TopNScratch(0, 0, 4, nil, NewRecScratch(m))
	if len(got) != 4 {
		t.Fatalf("got %d recs", len(got))
	}
	for r, rec := range got {
		if rec.POI != r {
			t.Fatalf("tie-break order %+v, want POIs 0,1,2,3", got)
		}
	}
}

func TestTopNScratchZeroOutAndEdgeCases(t *testing.T) {
	m := randomRecModel(2, 12, 2, 3, 3)
	m.ZeroOutFilter = make([][]bool, m.I)
	for i := range m.ZeroOutFilter {
		m.ZeroOutFilter[i] = make([]bool, m.J)
		for j := 0; j < m.J; j += 2 {
			m.ZeroOutFilter[i][j] = true // only even POIs allowed
		}
	}
	s := NewRecScratch(m)
	got := m.TopNScratch(0, 0, m.J, nil, s)
	if len(got) != m.J/2 {
		t.Fatalf("filter kept %d POIs, want %d", len(got), m.J/2)
	}
	for _, rec := range got {
		if rec.POI%2 != 0 {
			t.Fatalf("zero-out filter leaked POI %d", rec.POI)
		}
	}
	if recs := m.TopNScratch(0, 0, 0, nil, s); len(recs) != 0 {
		t.Fatalf("n=0 returned %d recs", len(recs))
	}
	// Out-of-range skip entries are ignored rather than panicking.
	if recs := m.TopNScratch(0, 0, 3, []int{-5, 9999}, s); len(recs) != 3 {
		t.Fatalf("out-of-range skip gave %d recs", len(recs))
	}
	// Skipping everything yields an empty result.
	all := make([]int, m.J)
	for j := range all {
		all[j] = j
	}
	if recs := m.TopNScratch(0, 0, 3, all, s); len(recs) != 0 {
		t.Fatalf("skip-all gave %d recs", len(recs))
	}
}

func TestTopNScratchReuseAcrossCalls(t *testing.T) {
	// The same scratch must give identical answers call after call (stamp
	// rollover of the skip bitmap, heap reset), including when the skip set
	// changes between calls.
	m := randomRecModel(3, 30, 3, 5, 4)
	s := NewRecScratch(m)
	first := m.TopNScratch(1, 2, 8, []int{0, 1, 2}, s)
	for trial := 0; trial < 100; trial++ {
		m.TopNScratch(trial%m.I, trial%m.K, 5, []int{trial % m.J}, s)
	}
	again := m.TopNScratch(1, 2, 8, []int{0, 1, 2}, s)
	if len(first) != len(again) {
		t.Fatalf("reuse changed result length %d -> %d", len(first), len(again))
	}
	for r := range first {
		if first[r] != again[r] {
			t.Fatalf("reuse changed rank %d: %+v -> %+v", r, first[r], again[r])
		}
	}
}

func TestTopNScratchAllocs(t *testing.T) {
	m := randomRecModel(4, 100, 4, 8, 5)
	s := NewRecScratch(m)
	skip := []int{3, 17, 42}
	m.TopNScratch(0, 0, 10, skip, s) // warm buffer growth
	allocs := testing.AllocsPerRun(100, func() {
		m.TopNScratch(1, 1, 10, skip, s)
	})
	// Only the returned slice may allocate.
	if allocs > 1 {
		t.Fatalf("TopNScratch allocates %v objects/op, want <= 1", allocs)
	}
}

func TestTopNScoresMatchPredict(t *testing.T) {
	// The factored kernel regroups multiplications, so scores agree with
	// Predict to rounding error, not bit-for-bit.
	m := randomRecModel(3, 20, 3, 6, 6)
	for _, rec := range m.TopNScratch(1, 1, 20, nil, NewRecScratch(m)) {
		want := m.Predict(1, rec.POI, 1)
		if diff := math.Abs(rec.Score - want); diff > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("POI %d score %g vs Predict %g (diff %g)", rec.POI, rec.Score, want, diff)
		}
	}
}

// BenchmarkTopNScratch is the serving path: reused buffers, slice skip set.
func BenchmarkTopNScratch(b *testing.B) {
	m := randomRecModel(64, 800, 12, 10, 7)
	var skip []int
	for j := 0; j < 20; j++ {
		skip = append(skip, j*7%m.J)
	}
	s := NewRecScratch(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TopNScratch(i%m.I, i%m.K, 10, skip, s)
	}
}
