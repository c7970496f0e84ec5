package core

import (
	"fmt"

	"tcss/internal/mat"
)

// RecScratch holds the reusable buffers of the allocation-free top-N
// recommendation path: the factored scoring weights w = h ⊙ U1ᵢ ⊙ U3ₖ, a
// generation-stamped skip bitmap over POIs, and the bounded top-K heap. One
// scratch serves any number of sequential TopNScratch calls on models of the
// same shape; buffers grow on demand, so a scratch can also be shared across
// models (e.g. successive serving snapshots) as long as calls do not overlap.
// A RecScratch must not be used concurrently; give each worker its own (the
// serving layer pools them with sync.Pool).
type RecScratch struct {
	w []float64 // Rank: factored per-(user,time) scoring weights

	// row holds two Rank-length dequantization buffers for the compact
	// storage modes (u1 and u3 rows widened to float64); unused at float64.
	row []float64

	// Skip bitmap with generation stamps: skipStamp[j] == stamp marks POI j
	// excluded for the current call, so clearing is O(1) instead of O(J).
	skipStamp []uint64
	stamp     uint64

	heap topKHeap
}

// NewRecScratch allocates buffers sized for m. Passing nil is allowed; the
// buffers are then grown lazily by the first TopNScratch call.
func NewRecScratch(m *Model) *RecScratch {
	s := &RecScratch{}
	if m != nil {
		s.ensure(m)
	}
	return s
}

func (s *RecScratch) ensure(m *Model) {
	if len(s.w) < m.Rank {
		s.w = make([]float64, m.Rank)
	}
	if m.Mode != StorageFloat64 && len(s.row) < 2*m.Rank {
		s.row = make([]float64, 2*m.Rank)
	}
	if len(s.skipStamp) < m.J {
		s.skipStamp = make([]uint64, m.J)
		s.stamp = 0
	}
}

// weights fills s.w with the factored per-(user,time) scoring weights
// w = h ⊙ U1ᵢ ⊙ U3ₖ (see Model.buildWeights below).
func (s *RecScratch) weights(m *Model, i, k int) []float64 {
	w := s.w[:m.Rank]
	m.buildWeights(i, k, w, s.row)
	return w
}

// buildWeights writes the factored scoring weights w = h ⊙ U1ᵢ ⊙ U3ₖ into w,
// dequantizing the factor rows through rowbuf (length ≥ 2·Rank) in compact
// modes; rowbuf is unused, and may be nil, at float64. It is the single
// source of the weight expression: TopNScratch and ScoreCandidates run the
// same floating-point operations in the same order, which is what makes
// their scores comparable bit for bit.
func (m *Model) buildWeights(i, k int, w, rowbuf []float64) {
	var u1, u3 []float64
	if m.Mode == StorageFloat64 {
		u1, u3 = m.U1.Row(i), m.U3.Row(k)
	} else {
		u1 = m.u1Row(i, rowbuf[:m.Rank])
		u3 = m.u3Row(k, rowbuf[m.Rank:2*m.Rank])
	}
	for t := range w {
		w[t] = m.H[t] * u1[t] * u3[t]
	}
}

// topKHeap is a bounded min-heap over (score, POI) pairs whose root is the
// WORST retained candidate under the ranking order "score descending, POI
// ascending". Because POI ids are unique the order is strict, so the heap
// selects exactly the same top-n set — and, after the final sort, exactly the
// same sequence — as sorting all candidates, in O(J log n) instead of
// O(J log J) with no O(J) slice.
type topKHeap struct {
	pois   []int
	scores []float64
}

// worse reports whether element a ranks strictly below element b.
func (h *topKHeap) worse(a, b int) bool {
	if h.scores[a] != h.scores[b] {
		return h.scores[a] < h.scores[b]
	}
	return h.pois[a] > h.pois[b]
}

func (h *topKHeap) swap(a, b int) {
	h.pois[a], h.pois[b] = h.pois[b], h.pois[a]
	h.scores[a], h.scores[b] = h.scores[b], h.scores[a]
}

func (h *topKHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *topKHeap) down(i int) {
	n := len(h.pois)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.worse(l, min) {
			min = l
		}
		if r < n && h.worse(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

// admits reports whether (poi, score) enters a heap of the given capacity:
// the heap has room, or the candidate ranks above the root, the worst
// retained element (higher score, or equal score with a smaller POI id). It
// is small enough to inline, so a scan pays no call for the many candidates
// it turns away.
func (h *topKHeap) admits(poi int, score float64, capacity int) bool {
	return len(h.pois) < capacity || h.scores[0] < score || (h.scores[0] == score && h.pois[0] > poi)
}

// insert adds a candidate admits accepted: it grows the heap up to capacity,
// then replaces the root.
func (h *topKHeap) insert(poi int, score float64, capacity int) {
	if len(h.pois) < capacity {
		h.pois = append(h.pois, poi)
		h.scores = append(h.scores, score)
		h.up(len(h.pois) - 1)
		return
	}
	h.pois[0], h.scores[0] = poi, score
	h.down(0)
}

// TopNScratch returns the n highest-scoring POIs for user i at time unit k,
// excluding the POIs listed in skip, reusing s's buffers so steady-state calls
// allocate only the returned slice. It is the scoring kernel behind the
// serving layer's recommend handler and every top-K caller: the
// per-(user,time) weights w = h ⊙ U1ᵢ ⊙ U3ₖ are factored out once, each
// candidate POI costs a single rank-length inner product (the ScoreCandidates
// kernel), and candidates stream through a bounded top-K heap. The zero-out
// filter applies exactly as in Score. Results are ordered by score descending
// with POI id ascending as the tie-break — identical to sorting all
// candidates.
func (m *Model) TopNScratch(i, k, n int, skip []int, s *RecScratch) []Recommendation {
	if i < 0 || i >= m.I || k < 0 || k >= m.K {
		panic(fmt.Sprintf("core: TopNScratch (user=%d, t=%d) out of model range %dx%d", i, k, m.I, m.K))
	}
	if n <= 0 {
		return nil
	}
	s.ensure(m)
	s.stamp++
	for _, j := range skip {
		if j >= 0 && j < m.J {
			s.skipStamp[j] = s.stamp
		}
	}

	w := s.weights(m, i, k)

	s.heap.pois = s.heap.pois[:0]
	s.heap.scores = s.heap.scores[:0]
	var allowed []bool
	if m.ZeroOutFilter != nil {
		allowed = m.ZeroOutFilter[i]
	}
	switch m.Mode {
	case StorageFloat32:
		scanSlab(s, w, m.Compact.U2f, nil, allowed, n)
	case StorageInt8:
		scanSlab(s, w, m.Compact.U2q, m.Compact.S2, allowed, n)
	default:
		scanSlab(s, w, m.U2.Data, nil, allowed, n)
	}

	// Drain the heap worst-first into the tail of the result slice.
	out := make([]Recommendation, len(s.heap.pois))
	for len(s.heap.pois) > 0 {
		last := len(s.heap.pois) - 1
		out[last] = Recommendation{POI: s.heap.pois[0], Score: s.heap.scores[0]}
		s.heap.swap(0, last)
		s.heap.pois = s.heap.pois[:last]
		s.heap.scores = s.heap.scores[:last]
		s.heap.down(0)
	}
	return out
}

// scanSlab is TopNScratch's candidate loop over the J rows of slab, generic
// over the POI factor slab element type: float64 factors, or the
// float32/int8 compact slabs widened to float64 inside mat.DotWiden. scales
// is the per-row int8 dequantization scale slab, nil otherwise; like
// ScoreCandidates it multiplies the pure dot product by the row scale, so
// both entry points compute every score with the same floating-point
// operations. allowed is the user's zero-out filter row, nil when the model
// has none.
func scanSlab[E mat.Elem](s *RecScratch, w []float64, slab []E, scales []float64, allowed []bool, n int) {
	r := len(w)
	for j := range len(slab) / r {
		if s.skipStamp[j] == s.stamp {
			continue
		}
		if allowed != nil && !allowed[j] {
			continue
		}
		d := mat.DotWiden(w, slab[j*r:(j+1)*r])
		if scales != nil {
			d = scales[j] * d
		}
		if s.heap.admits(j, d, n) {
			s.heap.insert(j, d, n)
		}
	}
}
