package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"

	"tcss/internal/core"
)

// Wire shape of a GET /v1/recommend body. The expected bytes are encoded the
// way the server encodes them, so a correct answer matches byte for byte.
type recommendBody struct {
	User       int             `json:"user"`
	T          int             `json:"t"`
	Generation uint64          `json:"generation"`
	Results    []recommendItem `json:"results"`
}

type recommendItem struct {
	POI   int     `json:"poi"`
	Score float64 `json:"score"`
}

// topNKernel is the serving kernel the gate recomputes each body with. Tests
// swap it for a faulty one to show that the reference check still fails.
var topNKernel = (*core.Model).TopNScratch

// scoreTol bounds how far the kernel's score of a POI may lie from
// Model.Score's: the two sum the rank terms in different orders.
const scoreTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= scoreTol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// expectedBody recomputes a read's answer from a captured snapshot with the
// serving kernel and encodes it the way the server does.
func expectedBody(v snapView, gen uint64, user, t int, sc *core.RecScratch) ([]byte, []core.Recommendation) {
	resp := recommendBody{User: user, T: t, Generation: gen}
	recs := topNKernel(v.model, user, t, topN, v.skip(user), sc)
	for _, r := range recs {
		resp.Results = append(resp.Results, recommendItem{POI: r.POI, Score: r.Score})
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		panic(err) // finite scores always marshal
	}
	return append(body, '\n'), recs
}

// skip is the POIs a user's answer leaves out: those already visited.
func (v snapView) skip(user int) []int {
	if user < len(v.own) {
		return v.own[user]
	}
	return nil
}

// referenceTopN ranks the candidates with Model.Score, which shares no code
// with the serving kernel: each POI neither skipped nor zeroed out is scored
// on its own, and the n best are kept in a sorted list, by score descending
// and POI ascending.
func referenceTopN(m *core.Model, user, t, n int, skipped map[int]bool) []core.Recommendation {
	best := make([]core.Recommendation, 0, n+1)
	for j := 0; j < m.J; j++ {
		s := m.Score(user, j, t)
		if skipped[j] || math.IsInf(s, -1) {
			continue
		}
		p := len(best)
		for p > 0 && s > best[p-1].Score { // an equal score stays behind its lower POI
			p--
		}
		if p < n {
			best = slices.Insert(best, p, core.Recommendation{POI: j, Score: s})
			best = best[:min(len(best), n)]
		}
	}
	return best
}

// checkTopN compares a kernel answer with the reference ranking. Every POI
// must be a distinct candidate whose score matches Model.Score within
// scoreTol, and it must be the reference's POI at its place, unless the two
// POIs' reference scores tie within scoreTol (summation order then decides).
func checkTopN(m *core.Model, user, t int, skip []int, got []core.Recommendation) error {
	skipped := make(map[int]bool, len(skip))
	for _, j := range skip {
		skipped[j] = true
	}
	want := referenceTopN(m, user, t, topN, skipped)
	if len(got) != len(want) {
		return fmt.Errorf("%d results, the reference ranking has %d", len(got), len(want))
	}
	seen := make(map[int]bool, len(got))
	for p, g := range got {
		if g.POI < 0 || g.POI >= m.J || skipped[g.POI] || seen[g.POI] {
			return fmt.Errorf("result %d: POI %d is not a candidate", p, g.POI)
		}
		seen[g.POI] = true
		ref := m.Score(user, g.POI, t)
		if !near(g.Score, ref) {
			return fmt.Errorf("result %d: POI %d scored %v, Model.Score gives %v", p, g.POI, g.Score, ref)
		}
		if g.POI != want[p].POI && !near(ref, want[p].Score) {
			return fmt.Errorf("result %d: POI %d (%v), the reference ranks POI %d (%v) there", p, g.POI, ref, want[p].POI, want[p].Score)
		}
	}
	return nil
}

// refKey names one answer the reference ranking checks: an answer depends
// only on the snapshot and the key.
type refKey struct {
	shard   int8
	gen     uint64
	user, t int32
}

// refMemo holds the reference check's outcome per answer, so a key read many
// times is ranked once per generation.
type refMemo struct {
	mu sync.Mutex
	m  map[refKey]error
}

func newRefMemo() *refMemo { return &refMemo{m: make(map[refKey]error)} }

func (c *refMemo) check(k refKey, v snapView, recs []core.Recommendation) error {
	c.mu.Lock()
	err, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		return err
	}
	err = checkTopN(v.model, int(k.user), int(k.t), v.skip(int(k.user)), recs)
	c.mu.Lock()
	c.m[k] = err
	c.mu.Unlock()
	return err
}

// verdict is the correctness gate's outcome over every captured answer.
type verdict struct {
	checked    int
	mismatches int
	first      string
}

func (v *verdict) fail(format string, args ...any) {
	v.mismatches++
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

// verifyReads checks every 200 read body of a phase in two steps. First the
// body must equal, byte for byte, the answer recomputed with the serving
// kernel on the snapshot of the generation it reports, captured from the
// shard primary's OnSwap: for the synthetic workloads the static model, for
// the trained one the exact generation a fold published. That catches
// routing, cache, encoding and replication faults. Then that answer must
// agree with the reference ranking (checkTopN), which catches a fault in the
// kernel itself. It runs between phases, off the clock, spread over conns
// goroutines, and then drops the bodies.
func verifyReads(log *swapLog, refs *refMemo, pr *phaseResult) verdict {
	parts := make([]verdict, conns)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &parts[w]
			var sc *core.RecScratch
			for i := w; i < len(pr.reads); i += conns {
				q, r := pr.phase.reads[i], &pr.reads[i]
				if !r.ok() {
					continue
				}
				body := r.body
				r.body = nil
				out.checked++
				var snap snapView
				ok := r.shard >= 0
				if ok {
					snap, ok = log.snapshot(int(r.shard), r.gen)
				}
				if !ok {
					out.fail("user=%d t=%d: no snapshot for shard %d generation %d", q.user, q.t, r.shard, r.gen)
					continue
				}
				if sc == nil {
					sc = core.NewRecScratch(snap.model)
				}
				want, recs := expectedBody(snap, r.gen, int(q.user), int(q.t), sc)
				if !bytes.Equal(body, want) {
					out.fail("user=%d t=%d gen=%d: got %q, want %q", q.user, q.t, r.gen, body, want)
					continue
				}
				if err := refs.check(refKey{shard: r.shard, gen: r.gen, user: q.user, t: q.t}, snap, recs); err != nil {
					out.fail("user=%d t=%d gen=%d: %v", q.user, q.t, r.gen, err)
				}
			}
		}()
	}
	wg.Wait()
	var v verdict
	for _, p := range parts {
		v.add(p)
	}
	return v
}

func (v *verdict) add(o verdict) {
	v.checked += o.checked
	v.mismatches += o.mismatches
	if v.first == "" {
		v.first = o.first
	}
}

// observeAck is the gateway's POST /v1/observe response.
type observeAck struct {
	Shards []struct {
		Shard      string `json:"shard"`
		Generation uint64 `json:"generation"`
		Error      string `json:"error"`
	} `json:"shards"`
}

// verifyAcks checks that the generations each shard acknowledges never fall:
// observes are sent one at a time, so acks arrive in publish order.
func verifyAcks(phases []*phaseResult, v *verdict) {
	last := make(map[string]uint64)
	for _, ph := range phases {
		for i := range ph.observes {
			r := &ph.observes[i]
			if !r.ok() {
				continue
			}
			v.checked++
			var ack observeAck
			if err := json.Unmarshal(r.body, &ack); err != nil || len(ack.Shards) == 0 {
				v.fail("observe ack %q: not a gateway observe response", r.body)
				continue
			}
			for _, s := range ack.Shards {
				if s.Error != "" {
					v.fail("observe ack: shard %s failed: %s", s.Shard, s.Error)
				} else if s.Generation < last[s.Shard] {
					v.fail("observe ack: shard %s generation fell from %d to %d", s.Shard, last[s.Shard], s.Generation)
				} else {
					last[s.Shard] = s.Generation
				}
			}
		}
	}
}

// failures counts attempted requests that did not succeed: non-200 statuses
// and transport errors. Verification mismatches are added by the caller.
func failures(phases []*phaseResult) (attempted, failed int) {
	for _, ph := range phases {
		for _, rs := range [][]result{ph.reads, ph.observes} {
			for i := range rs {
				if !rs[i].attempted() {
					continue
				}
				attempted++
				if rs[i].status != http.StatusOK {
					failed++
				}
			}
		}
	}
	return attempted, failed
}
