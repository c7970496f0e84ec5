package baselines

import (
	"fmt"
	"math/rand"
	"sync"

	"tcss/internal/geo"
	"tcss/internal/nn"
	"tcss/internal/opt"
)

// The sequential baselines (STRNN, STGN, STAN) model each user's
// time-ordered check-in trajectory. They are trained on a next-POI
// objective: at every trajectory position the model scores the true next POI
// against a sampled negative with binary cross-entropy. At evaluation time
// the user's summary state (final hidden state, or attention context) plus a
// time embedding scores arbitrary (user, POI, time) triples under the same
// protocol as the tensor models.
//
// Recurrent gradients are truncated to one step (the standard cheap BPTT-1
// scheme): the previous hidden state is treated as a constant at each step.

// seqFeatures returns the spatio-temporal input features between two
// consecutive visits: the normalized time gap and normalized Haversine
// distance, the Δt/Δd signals STRNN and STGN gate on.
func seqFeatures(prev, cur Visit, dist *geo.DistanceMatrix, timeUnits int) (dt, dd float64) {
	dt = float64(cur.TimeIndex-prev.TimeIndex) / float64(timeUnits)
	if dmax := dist.DMax(); dmax > 0 {
		dd = dist.At(prev.POI, cur.POI) / dmax
	}
	return dt, dd
}

// STRNN (Liu et al., AAAI 2016) extends a vanilla RNN with spatial and
// temporal transition context: the recurrent input is the previous POI's
// embedding concatenated with the time-gap and distance features.
type STRNN struct {
	LR float64

	embPOI  *nn.Embedding
	embTime *nn.Embedding
	cell    *nn.RNNCell
	rank    int
	finalH  [][]float64
	dist    *geo.DistanceMatrix
	fit     bool
}

// NewSTRNN returns the STRNN baseline.
func NewSTRNN() *STRNN { return &STRNN{LR: 0.01} }

// Name implements Recommender.
func (s *STRNN) Name() string { return "STRNN" }

// Fit implements Recommender.
func (s *STRNN) Fit(ctx *Context) error {
	if err := seqCheck(ctx); err != nil {
		return err
	}
	r := ctx.Rank
	s.rank = r
	rng := rand.New(rand.NewSource(ctx.Seed))
	s.embPOI = nn.NewEmbedding("strnn.poi", ctx.Train.DimJ, r, rng)
	s.embTime = nn.NewEmbedding("strnn.time", ctx.Train.DimK, r, rng)
	s.cell = nn.NewRNNCell("strnn.cell", r+2, r, rng)
	optim := opt.NewAdam(s.LR, 0)
	seqs := ctx.Sequences()
	epochs := ctx.Epochs
	if epochs <= 0 {
		epochs = 10
	}

	for epoch := 0; epoch < epochs; epoch++ {
		for _, seq := range seqs {
			if len(seq) < 2 {
				continue
			}
			h := make([]float64, r)
			for t := 1; t < len(seq); t++ {
				prev, cur := seq[t-1], seq[t]
				dt, dd := seqFeatures(prev, cur, ctx.Dist, ctx.Train.DimK)
				in := make([]float64, r+2)
				copy(in, s.embPOI.Lookup(prev.POI))
				in[r], in[r+1] = dt, dd
				newH, cache := s.cell.Forward(in, h)

				// Score the true next POI against one sampled negative.
				neg := rng.Intn(ctx.Train.DimJ)
				for neg == cur.POI {
					neg = rng.Intn(ctx.Train.DimJ)
				}
				dH := make([]float64, r)
				for _, cand := range []struct {
					j      int
					target float64
				}{{cur.POI, 1}, {neg, 0}} {
					tk := s.embTime.Lookup(cur.TimeIndex)
					ej := s.embPOI.Lookup(cand.j)
					var logit float64
					for d := 0; d < r; d++ {
						logit += (newH[d] + tk[d]) * ej[d]
					}
					dLogit := nn.SigmoidF(logit) - cand.target
					dEj := make([]float64, r)
					dTk := make([]float64, r)
					for d := 0; d < r; d++ {
						dEj[d] = dLogit * (newH[d] + tk[d])
						dTk[d] = dLogit * ej[d]
						dH[d] += dLogit * ej[d]
					}
					s.embPOI.Accumulate(cand.j, dEj)
					s.embTime.Accumulate(cur.TimeIndex, dTk)
				}
				dIn, _ := s.cell.Backward(cache, dH) // BPTT-1: drop dHPrev
				s.embPOI.Accumulate(prev.POI, dIn[:r])
				h = newH
			}
			// One optimizer step per user trajectory (gradients accumulated
			// across its steps).
			stepSeq(optim, s.cell.Params(), s.embPOI, s.embTime)
			s.cell.ZeroGrad()
		}
	}
	s.finalH = s.finalStates(ctx)
	s.dist = ctx.Dist
	s.fit = true
	return nil
}

// finalStates rolls every user's trajectory through the trained cell.
func (s *STRNN) finalStates(ctx *Context) [][]float64 {
	r := s.rank
	out := make([][]float64, ctx.Train.DimI)
	for i, seq := range ctx.Sequences() {
		h := make([]float64, r)
		for t := 1; t < len(seq); t++ {
			dt, dd := seqFeatures(seq[t-1], seq[t], ctx.Dist, ctx.Train.DimK)
			in := make([]float64, r+2)
			copy(in, s.embPOI.Lookup(seq[t-1].POI))
			in[r], in[r+1] = dt, dd
			h, _ = s.cell.Forward(in, h)
		}
		out[i] = h
	}
	return out
}

// Score implements Recommender. Before Fit it returns 0; serving paths reach
// the model through SeqServer, whose methods surface ErrNotFitted instead.
func (s *STRNN) Score(i, j, k int) float64 {
	if !s.fit {
		return 0
	}
	h := s.finalH[i]
	tk := s.embTime.Lookup(k)
	ej := s.embPOI.Lookup(j)
	var logit float64
	for d := 0; d < s.rank; d++ {
		logit += (h[d] + tk[d]) * ej[d]
	}
	return nn.SigmoidF(logit)
}

// STGN (Zhao et al., AAAI 2019) replaces the vanilla recurrence with the
// spatio-temporal gated LSTM (nn.STLSTMCell): dedicated time and distance
// gates driven by the interval Δt and travel distance Δd modulate how much
// of each check-in enters the memory.
type STGN struct {
	LR float64

	embPOI  *nn.Embedding
	embTime *nn.Embedding
	cell    *nn.STLSTMCell
	rank    int
	finalH  [][]float64
	dist    *geo.DistanceMatrix
	fit     bool
}

// NewSTGN returns the STGN baseline.
func NewSTGN() *STGN { return &STGN{LR: 0.01} }

// Name implements Recommender.
func (s *STGN) Name() string { return "STGN" }

// Fit implements Recommender.
func (s *STGN) Fit(ctx *Context) error {
	if err := seqCheck(ctx); err != nil {
		return err
	}
	r := ctx.Rank
	s.rank = r
	rng := rand.New(rand.NewSource(ctx.Seed))
	s.embPOI = nn.NewEmbedding("stgn.poi", ctx.Train.DimJ, r, rng)
	s.embTime = nn.NewEmbedding("stgn.time", ctx.Train.DimK, r, rng)
	s.cell = nn.NewSTLSTMCell("stgn.cell", r, r, rng)
	optim := opt.NewAdam(s.LR, 0)
	seqs := ctx.Sequences()
	epochs := ctx.Epochs
	if epochs <= 0 {
		epochs = 10
	}
	zeroC := make([]float64, r)

	for epoch := 0; epoch < epochs; epoch++ {
		for _, seq := range seqs {
			if len(seq) < 2 {
				continue
			}
			h := make([]float64, r)
			cState := make([]float64, r)
			for t := 1; t < len(seq); t++ {
				prev, cur := seq[t-1], seq[t]
				dt, dd := seqFeatures(prev, cur, ctx.Dist, ctx.Train.DimK)
				in := make([]float64, r)
				copy(in, s.embPOI.Lookup(prev.POI))
				newH, newC, cache := s.cell.Forward(in, h, cState, dt, dd)

				neg := rng.Intn(ctx.Train.DimJ)
				for neg == cur.POI {
					neg = rng.Intn(ctx.Train.DimJ)
				}
				dH := make([]float64, r)
				for _, cand := range []struct {
					j      int
					target float64
				}{{cur.POI, 1}, {neg, 0}} {
					tk := s.embTime.Lookup(cur.TimeIndex)
					ej := s.embPOI.Lookup(cand.j)
					var logit float64
					for d := 0; d < r; d++ {
						logit += (newH[d] + tk[d]) * ej[d]
					}
					dLogit := nn.SigmoidF(logit) - cand.target
					dEj := make([]float64, r)
					dTk := make([]float64, r)
					for d := 0; d < r; d++ {
						dEj[d] = dLogit * (newH[d] + tk[d])
						dTk[d] = dLogit * ej[d]
						dH[d] += dLogit * ej[d]
					}
					s.embPOI.Accumulate(cand.j, dEj)
					s.embTime.Accumulate(cur.TimeIndex, dTk)
				}
				dIn, _, _ := s.cell.Backward(cache, dH, zeroC)
				s.embPOI.Accumulate(prev.POI, dIn)
				h, cState = newH, newC
			}
			stepSeq(optim, s.cell.Params(), s.embPOI, s.embTime)
			s.cell.ZeroGrad()
		}
	}
	s.finalH = s.finalStates(ctx)
	s.dist = ctx.Dist
	s.fit = true
	return nil
}

func (s *STGN) finalStates(ctx *Context) [][]float64 {
	r := s.rank
	out := make([][]float64, ctx.Train.DimI)
	for i, seq := range ctx.Sequences() {
		h := make([]float64, r)
		cState := make([]float64, r)
		for t := 1; t < len(seq); t++ {
			dt, dd := seqFeatures(seq[t-1], seq[t], ctx.Dist, ctx.Train.DimK)
			in := make([]float64, r)
			copy(in, s.embPOI.Lookup(seq[t-1].POI))
			h, cState, _ = s.cell.Forward(in, h, cState, dt, dd)
		}
		out[i] = h
	}
	return out
}

// Score implements Recommender. Before Fit it returns 0; serving paths reach
// the model through SeqServer, whose methods surface ErrNotFitted instead.
func (s *STGN) Score(i, j, k int) float64 {
	if !s.fit {
		return 0
	}
	h := s.finalH[i]
	tk := s.embTime.Lookup(k)
	ej := s.embPOI.Lookup(j)
	var logit float64
	for d := 0; d < s.rank; d++ {
		logit += (h[d] + tk[d]) * ej[d]
	}
	return nn.SigmoidF(logit)
}

// STAN (Luo et al., WWW 2021) attends over the whole trajectory with
// self-attention instead of a recurrence: the query is the user embedding
// plus the target time embedding, the memory holds every prior visit's
// POI+time embedding, and the attended context scores candidate POIs.
type STAN struct {
	LR float64

	embUser *nn.Embedding
	embPOI  *nn.Embedding
	embTime *nn.Embedding
	attn    *nn.Attention
	rank    int

	// seqs holds each user's training trajectory so the attention context
	// can be recomputed at serve/score time without the full Context.
	seqs     [][]Visit
	ctxMu    sync.Mutex
	ctxCache map[int64][]float64
	fit      bool
}

// NewSTAN returns the STAN baseline.
func NewSTAN() *STAN { return &STAN{LR: 0.01} }

// Name implements Recommender.
func (s *STAN) Name() string { return "STAN" }

// Fit implements Recommender.
func (s *STAN) Fit(ctx *Context) error {
	if err := seqCheck(ctx); err != nil {
		return err
	}
	r := ctx.Rank
	s.rank = r
	rng := rand.New(rand.NewSource(ctx.Seed))
	s.embUser = nn.NewEmbedding("stan.user", ctx.Train.DimI, r, rng)
	s.embPOI = nn.NewEmbedding("stan.poi", ctx.Train.DimJ, r, rng)
	s.embTime = nn.NewEmbedding("stan.time", ctx.Train.DimK, r, rng)
	s.attn = &nn.Attention{Dim: r}
	optim := opt.NewAdam(s.LR, 0)
	seqs := ctx.Sequences()
	epochs := ctx.Epochs
	if epochs <= 0 {
		epochs = 10
	}

	for epoch := 0; epoch < epochs; epoch++ {
		for i, seq := range seqs {
			if len(seq) < 2 {
				continue
			}
			for t := 1; t < len(seq); t++ {
				cur := seq[t]
				q, mem, memPOIs, memTimes := s.buildQueryMemory(i, cur.TimeIndex, seq[:t])
				out, cache := s.attn.Forward(q, mem, mem)

				neg := rng.Intn(ctx.Train.DimJ)
				for neg == cur.POI {
					neg = rng.Intn(ctx.Train.DimJ)
				}
				dOut := make([]float64, r)
				dQ := make([]float64, r)
				u := s.embUser.Lookup(i)
				for _, cand := range []struct {
					j      int
					target float64
				}{{cur.POI, 1}, {neg, 0}} {
					ej := s.embPOI.Lookup(cand.j)
					var logit float64
					for d := 0; d < r; d++ {
						logit += (out[d] + u[d]) * ej[d]
					}
					dLogit := nn.SigmoidF(logit) - cand.target
					dEj := make([]float64, r)
					dU := make([]float64, r)
					for d := 0; d < r; d++ {
						dEj[d] = dLogit * (out[d] + u[d])
						dOut[d] += dLogit * ej[d]
						dU[d] = dLogit * ej[d]
					}
					s.embPOI.Accumulate(cand.j, dEj)
					s.embUser.Accumulate(i, dU)
				}
				dQAttn, dK, dV := s.attn.Backward(cache, dOut)
				for d := 0; d < r; d++ {
					dQ[d] += dQAttn[d]
				}
				// Query = user + target-time embeddings.
				s.embUser.Accumulate(i, dQ)
				s.embTime.Accumulate(cur.TimeIndex, dQ)
				// Memory vectors = visit POI + visit time embeddings; keys
				// and values share them.
				for v := range mem {
					dMem := make([]float64, r)
					for d := 0; d < r; d++ {
						dMem[d] = dK[v][d] + dV[v][d]
					}
					s.embPOI.Accumulate(memPOIs[v], dMem)
					s.embTime.Accumulate(memTimes[v], dMem)
				}
			}
			stepSeq(optim, nil, s.embUser, s.embPOI, s.embTime)
		}
	}
	s.seqs = seqs
	s.ctxCache = make(map[int64][]float64)
	s.fit = true
	return nil
}

// buildQueryMemory assembles the attention inputs for user i targeting time
// unit k, over the given visit history.
func (s *STAN) buildQueryMemory(i, k int, history []Visit) (q []float64, mem [][]float64, memPOIs, memTimes []int) {
	r := s.rank
	q = make([]float64, r)
	u := s.embUser.Lookup(i)
	tk := s.embTime.Lookup(k)
	for d := 0; d < r; d++ {
		q[d] = u[d] + tk[d]
	}
	mem = make([][]float64, len(history))
	memPOIs = make([]int, len(history))
	memTimes = make([]int, len(history))
	for v, visit := range history {
		vec := make([]float64, r)
		ep := s.embPOI.Lookup(visit.POI)
		et := s.embTime.Lookup(visit.TimeIndex)
		for d := 0; d < r; d++ {
			vec[d] = ep[d] + et[d]
		}
		mem[v] = vec
		memPOIs[v] = visit.POI
		memTimes[v] = visit.TimeIndex
	}
	return q, mem, memPOIs, memTimes
}

// context returns (cached) the attention context of user i at time k over
// the user's full training trajectory. Safe for concurrent use: the cache is
// mutex-guarded so the serving tier can score in parallel.
func (s *STAN) context(i, k int) []float64 {
	key := int64(i)*int64(s.embTime.N) + int64(k)
	s.ctxMu.Lock()
	if c, ok := s.ctxCache[key]; ok {
		s.ctxMu.Unlock()
		return c
	}
	s.ctxMu.Unlock()
	seq := s.seqs[i]
	var out []float64
	if len(seq) == 0 {
		out = make([]float64, s.rank)
	} else {
		q, mem, _, _ := s.buildQueryMemory(i, k, seq)
		out, _ = s.attn.Forward(q, mem, mem)
	}
	s.ctxMu.Lock()
	s.ctxCache[key] = out
	s.ctxMu.Unlock()
	return out
}

// Score implements Recommender. Before Fit it returns 0; serving paths reach
// the model through SeqServer, whose methods surface ErrNotFitted instead.
func (s *STAN) Score(i, j, k int) float64 {
	if !s.fit {
		return 0
	}
	out := s.context(i, k)
	u := s.embUser.Lookup(i)
	ej := s.embPOI.Lookup(j)
	var logit float64
	for d := 0; d < s.rank; d++ {
		logit += (out[d] + u[d]) * ej[d]
	}
	return nn.SigmoidF(logit)
}

func seqCheck(ctx *Context) error {
	if ctx.Rank <= 0 {
		return fmt.Errorf("baselines: sequential model needs positive rank, got %d", ctx.Rank)
	}
	if ctx.Dist == nil {
		return fmt.Errorf("baselines: sequential model needs a POI distance matrix")
	}
	return nil
}

// stepSeq applies one optimizer step to cell parameters (may be nil) and the
// given embeddings, then clears their gradients.
func stepSeq(optim opt.Optimizer, cellParams []nn.Param, embs ...*nn.Embedding) {
	for _, p := range cellParams {
		optim.Step(p.Name, p.Value, p.Grad)
	}
	for _, e := range embs {
		for _, p := range e.Params() {
			optim.Step(p.Name, p.Value, p.Grad)
		}
		e.ZeroGrad()
	}
}
