package main

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the generator's connection and worker cap: nproc on the 2-vCPU
// box the benchmark was designed on, and fixed so that the offered load does
// not depend on the machine.
const conns = 2

// topN is the result count every read asks for.
const topN = 10

type readReq struct {
	due     time.Duration // offset from the phase start
	user, t int32
}

type observeReq struct {
	due   time.Duration
	batch int32 // index into the workload's observe batches
}

// phase is one stretch of the workload. In an open-loop phase every request
// has a due time fixed before the phase starts.
type phase struct {
	name     string
	reads    []readReq
	observes []observeReq
	// abortLate stops dispatching once the generator runs this late (0:
	// never). Ladder probes use it: past that point the probe has failed and
	// the rest of its schedule would only queue.
	abortLate time.Duration
	traced    bool // tag requests for the tracer
	// closed sends the requests back to back, in their planned order: each
	// is due when a worker takes it, so the due times only set the order.
	closed bool
}

// notSent marks a scheduled request the generator never dispatched.
const notSent = -1

// result is one request's outcome. Times are offsets from the phase start.
type result struct {
	due, sent, done time.Duration
	status          int // HTTP status; 0 for a transport error; notSent
	hit             bool
	gen             uint64
	shard           int8
	body            []byte // 200 bodies, kept for verification after the phase
}

func (r *result) attempted() bool { return r.status != notSent }
func (r *result) ok() bool        { return r.status == http.StatusOK }

// latencyMs is the time from when the request was due to when its response
// had been read, so a stall counts against every request queued behind it.
func (r *result) latencyMs() float64 { return float64(r.done-r.due) / 1e6 }

func (r *result) lateMs() float64 { return float64(r.sent-r.due) / 1e6 }

type phaseResult struct {
	phase           *phase
	reads, observes []result
	rt              rtSample // runtime counters over the phase
	elapsed         time.Duration
	aborted         bool
	err             error // the pacer failed; the phase stopped there
}

// arrivals draws an open-loop schedule of exactly round(rate·d) requests:
// a Poisson process conditioned on its count, whose arrival times are sorted
// uniform draws. The fixed count keeps the work per run constant.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*d.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(d))
	}
	slices.Sort(out)
	return out
}

// generator drives phases against the gateway from at most conns
// connections. Worker 0 also sends the observes, in order, so their acks can
// be checked for rising generations.
type generator struct {
	client   *http.Client
	base     string
	bodies   [][]byte // observe request bodies by batch index
	shardIdx map[string]int
	tags     uint64 // last tag handed out, so tags stay unique across phases
	pacers   [conns]*pacer
}

func newGenerator(base string, bodies [][]byte, shardIdx map[string]int) (*generator, error) {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	g := &generator{
		client:   &http.Client{Transport: tr, Timeout: 10 * time.Second},
		base:     base,
		bodies:   bodies,
		shardIdx: shardIdx,
	}
	for i := range g.pacers {
		p, err := newPacer()
		if err != nil {
			g.close()
			return nil, err
		}
		g.pacers[i] = p
	}
	return g, nil
}

func (g *generator) close() {
	g.client.Transport.(*http.Transport).CloseIdleConnections()
	for _, p := range g.pacers {
		if p != nil {
			p.close()
		}
	}
}

func (g *generator) run(p *phase) *phaseResult {
	res := &phaseResult{
		phase:    p,
		reads:    make([]result, len(p.reads)),
		observes: make([]result, len(p.observes)),
	}
	for i := range res.reads {
		res.reads[i] = result{due: p.reads[i].due, status: notSent}
	}
	for i := range res.observes {
		res.observes[i] = result{due: p.observes[i].due, status: notSent}
	}
	readTag0 := g.tags
	obsTag0 := readTag0 + uint64(len(p.reads))
	g.tags = obsTag0 + uint64(len(p.observes))

	var next atomic.Int64 // next unclaimed read
	var abort atomic.Bool
	var failOnce sync.Once
	start := time.Now()
	// wait sleeps until due and reports whether the request may still go.
	wait := func(pc *pacer, r *result) bool {
		if p.closed {
			r.due = time.Since(start)
			r.sent = r.due
			return true
		}
		if d := r.due - time.Since(start); d > 0 {
			if err := pc.sleep(d); err != nil {
				failOnce.Do(func() { res.err = err })
				abort.Store(true)
				return false
			}
		}
		r.sent = time.Since(start)
		if p.abortLate > 0 && r.sent-r.due > p.abortLate {
			abort.Store(true)
			return false
		}
		return true
	}
	worker := func(w int, pc *pacer) {
		obs := 0
		url := make([]byte, 0, 128)
		for !abort.Load() {
			i := int(next.Load())
			if w == 0 && obs < len(p.observes) && (i >= len(p.reads) || p.observes[obs].due <= p.reads[i].due) {
				r := &res.observes[obs]
				batch := p.observes[obs].batch
				obs++
				if !wait(pc, r) {
					return
				}
				url = append(url[:0], g.base...)
				url = append(url, "/v1/observe"...)
				if p.traced {
					url = append(url, "?tag="...)
					url = strconv.AppendUint(url, obsTag0+uint64(obs), 10)
				}
				g.do(r, start, http.MethodPost, string(url), g.bodies[batch])
				continue
			}
			if i >= len(p.reads) {
				if w == 0 && obs < len(p.observes) {
					continue
				}
				return
			}
			if !next.CompareAndSwap(int64(i), int64(i+1)) {
				continue
			}
			q, r := p.reads[i], &res.reads[i]
			url = append(url[:0], g.base...)
			url = append(url, "/v1/recommend?user="...)
			url = strconv.AppendInt(url, int64(q.user), 10)
			url = append(url, "&t="...)
			url = strconv.AppendInt(url, int64(q.t), 10)
			url = append(url, "&n="...)
			url = strconv.AppendInt(url, topN, 10)
			if p.traced {
				url = append(url, "&tag="...)
				url = strconv.AppendUint(url, readTag0+uint64(i)+1, 10)
			}
			if !wait(pc, r) {
				return
			}
			g.do(r, start, http.MethodGet, string(url), nil)
		}
	}
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(w, g.pacers[w])
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.aborted = abort.Load()
	return res
}

// do sends one request and fills r. The body is read to the end before the
// request counts as done.
func (g *generator) do(r *result, start time.Time, method, url string, body []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		r.status, r.done = 0, time.Since(start)
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		r.status, r.done = 0, time.Since(start)
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Since(start)
	if err != nil {
		r.status = 0
		return
	}
	r.status = resp.StatusCode
	if r.status != http.StatusOK {
		return
	}
	r.body = raw
	r.hit = resp.Header.Get("X-Cache") == "HIT"
	r.gen, _ = strconv.ParseUint(resp.Header.Get("X-Generation"), 10, 64)
	r.shard = -1
	if i, ok := g.shardIdx[resp.Header.Get("X-Shard")]; ok {
		r.shard = int8(i)
	}
}
