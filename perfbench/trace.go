package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Spans are recorded by the benchmark's own wrappers around the
// calls into each layer; nothing inside the program is instrumented.
const (
	spanGwRead    = "gw.read"      // Gateway.Handler() on GET /v1/recommend
	spanGwObserve = "gw.observe"   // Gateway.Handler() on POST /v1/observe
	spanAttempt   = "attempt"      // one gateway→node hop through GatewayOptions.Client
	spanRead      = "node.read"    // a node's Server.Handler() on GET /v1/recommend
	spanObserve   = "node.observe" // a node's Server.Handler() on POST /v1/observe
	spanSync      = "sync"         // one Replicator shipment fetch through Replicator.Client
)

// span is one timed call at a layer boundary. Spans of one generated request
// share its tag; parent links a span to the span that caused it.
type span struct {
	id, parent uint64
	tag        uint64
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
	status     int   // HTTP status where the span is an HTTP exchange
	bytes      int64 // response bytes where the span is a fetch
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory while on. The wrappers below are installed only
// in --trace 1 runs; with the tracer off they pass calls straight through,
// which is how the traced run measures its untraced baseline.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

type spanCtxKey struct{}

// spanRef is what a gateway span hands to the attempts it causes, through the
// incoming request's context (the gateway derives every backend request from
// it).
type spanRef struct{ id, tag uint64 }

func queryUint(r *http.Request, name string) uint64 {
	v, _ := strconv.ParseUint(r.URL.Query().Get(name), 10, 64)
	return v
}

// gateway wraps Gateway.Handler(). The request tag arrives in the query
// string (traced phases only).
func (t *tracer) gateway(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := spanGwRead
		if r.URL.Path == "/v1/observe" {
			name = spanGwObserve
		}
		if !t.on.Load() || (name == spanGwRead && r.URL.Path != "/v1/recommend") {
			h.ServeHTTP(w, r)
			return
		}
		s := span{id: t.ids.Add(1), tag: queryUint(r, "tag"), name: name, start: t.now()}
		r = r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanRef{s.id, s.tag}))
		h.ServeHTTP(w, r)
		s.end = t.now()
		t.record(s)
	})
}

// node wraps one node's Server.Handler(): the parent attempt's id arrives in
// the query string, added by transport below.
func (t *tracer) node(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		var name string
		switch r.URL.Path {
		case "/v1/recommend":
			name = spanRead
		case "/v1/observe":
			name = spanObserve
		default:
			h.ServeHTTP(w, r)
			return
		}
		s := span{id: t.ids.Add(1), parent: queryUint(r, "span"), tag: queryUint(r, "tag"), name: name, start: t.now()}
		h.ServeHTTP(w, r)
		s.end = t.now()
		t.record(s)
	})
}

// transport is the timing RoundTripper: name is spanAttempt for the gateway's
// client and spanSync for the replicators'. A span ends when the response
// body reaches EOF or is closed, so it covers the whole transfer.
type transport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tr.t
	if !t.on.Load() {
		return tr.base.RoundTrip(req)
	}
	s := span{id: t.ids.Add(1), name: tr.name}
	if ref, ok := req.Context().Value(spanCtxKey{}).(spanRef); ok {
		s.parent, s.tag = ref.id, ref.tag
	}
	if tr.name == spanAttempt {
		// Carry the attempt id (and the tag, which observe fan-outs drop) to
		// the node, whose wrapper links its span to this one.
		req = req.Clone(req.Context())
		q := req.URL.Query()
		q.Set("span", strconv.FormatUint(s.id, 10))
		q.Set("tag", strconv.FormatUint(s.tag, 10))
		req.URL.RawQuery = q.Encode()
	}
	s.start = t.now()
	resp, err := tr.base.RoundTrip(req)
	if err != nil {
		s.end = t.now()
		t.record(s)
		return nil, err
	}
	s.status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, s: s}
	return resp, nil
}

// spanBody ends its span at the first EOF or Close.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	done bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.bytes += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.s.end = b.t.now()
	b.t.record(b.s)
}

// writeSpans writes spans as tab-separated lines (id, parent, tag, name,
// start_ns, end_ns, status, bytes) after the measurement has ended.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\ttag\tname\tstart_ns\tend_ns\tstatus\tbytes")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n", s.id, s.parent, s.tag, s.name, s.start, s.end, s.status, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes derives the per-layer numbers from one traced phase: the
// gateway's self time (its span minus the union of its attempts), the hop
// cost (an attempt minus the node handler span inside it), the node handler
// spans themselves, and attempts per gateway read.
type selfTimes struct {
	gwSelfUs, hopUs, readUs, observeUs, syncMs dist
	gwReads, readAttempts                      int
	shipBytes                                  int64
}

func analyze(spans []span) selfTimes {
	children := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var st selfTimes
	for i := range spans {
		s := &spans[i]
		switch s.name {
		case spanGwRead:
			kids := children[s.id]
			st.gwReads++
			st.readAttempts += len(kids)
			st.gwSelfUs.add(float64(s.dur()-covered(s, kids)) / 1e3)
		case spanAttempt:
			kids := children[s.id]
			if len(kids) == 1 && kids[0].name == spanRead {
				st.hopUs.add(float64(s.dur()-kids[0].dur()) / 1e3)
			}
		case spanRead:
			st.readUs.add(float64(s.dur()) / 1e3)
		case spanObserve:
			st.observeUs.add(float64(s.dur()) / 1e3)
		case spanSync:
			// Every poll counts, 204 (already current) included, so the
			// number exists on workloads that never publish.
			st.syncMs.add(float64(s.dur()) / 1e6)
			if s.status == http.StatusOK {
				st.shipBytes += s.bytes
			}
		}
	}
	return st
}

// covered is the part of parent's interval that the union of kids covers.
func covered(parent *span, kids []*span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	for i := 1; i < len(ivs); i++ { // few kids: insertion sort by start
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
