package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"tcss"
	"tcss/internal/core"
	"tcss/internal/serve"
)

// rtSample holds the runtime counters the per-layer report diffs over a
// phase.
type rtSample struct {
	allocBytes uint64
	pauseNs    uint64
}

func (a rtSample) minus(b rtSample) rtSample {
	return rtSample{allocBytes: a.allocBytes - b.allocBytes, pauseNs: a.pauseNs - b.pauseNs}
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // PauseTotalNs is exact; the runtime/metrics pause histogram is bucketed
	return rtSample{allocBytes: s[0].Value.Uint64(), pauseNs: ms.PauseTotalNs}
}

// traced runs the traced half of a --trace 1 run: the fixed phase once with
// the tracer off (the baseline for trace.overhead_frac and the source of the
// counts read from response headers and the runtime), then once with it on.
func traced(cfg runConfig, rn *runner, dep *deployment, tr *tracer) ([]metric, error) {
	w := rn.w
	d := time.Duration(cfg.seconds) * time.Second

	base := rn.exec(rn.plan("fixed", w.readRate, w.observeRate, d))

	tr.on.Store(true)
	phaseStart := time.Now()
	p := rn.plan("traced", w.readRate, w.observeRate, d)
	p.traced = true
	tp := rn.exec(p)
	phaseEnd := time.Now()
	tr.on.Store(false)
	spans := tr.take()
	waitReplicas(dep)
	var slo float64
	if w.reportsSLO() {
		slo = rn.ladder(ladderProbe)
	}

	if cfg.spansDir != "" {
		if err := writeSpans(spansPath(cfg.spansDir, w.name, cfg.seed), spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	st := analyze(spans)

	late := &dist{}
	var hits, shed, reads int
	baseReads, baseObserves := base.reads, base.observes
	for i := range baseReads {
		r := &baseReads[i]
		if !r.attempted() {
			continue
		}
		reads++
		late.add(r.lateMs())
		if r.hit {
			hits++
		}
		if r.status == http.StatusServiceUnavailable {
			shed++
		}
	}
	ops := reads
	for i := range baseObserves {
		if baseObserves[i].attempted() {
			ops++
		}
	}
	lagMs, gens := replicationLag(dep.log.swaps(), phaseStart, phaseEnd)

	out := []metric{
		pct("gen.late_p99_ms", late, 0.99, "ms"),
		pct("cluster.gw_self_us.p50", &st.gwSelfUs, 0.5, "us"),
		pct("cluster.gw_self_us.p99", &st.gwSelfUs, 0.99, "us"),
		pct("cluster.hop_us.p50", &st.hopUs, 0.5, "us"),
		{name: "cluster.attempts_per_req", value: float64(st.readAttempts) / float64(max(st.gwReads, 1)), unit: "attempts/req"},
		pct("cluster.sync_ms.p50", &st.syncMs, 0.5, "ms"),
		pct("serve.read_us.p50", &st.readUs, 0.5, "us"),
		pct("serve.read_us.p99", &st.readUs, 0.99, "us"),
		{name: "serve.cache_hit_frac", value: float64(hits) / float64(max(reads, 1)), unit: "1"},
		{name: "serve.shed_frac", value: float64(shed) / float64(max(reads, 1)), unit: "1"},
		{name: "rt.gc_pause_ms", value: float64(base.rt.pauseNs) / 1e6, unit: "ms"},
		{name: "rt.alloc_kb_per_op", value: float64(base.rt.allocBytes) / 1024 / float64(max(ops, 1)), unit: "KiB/op"},
		{name: "trace.overhead_frac", value: readPct("", tp, 0.5).value/readPct("", base, 0.5).value - 1, unit: "1"},
	}
	// The open-loop figures at the fixed rates, printed only: between runs
	// on a shared VM they moved by more than the largest bound allows.
	out = append(out, extra(readPct("recommend_p50_ms", base, 0.5), readPct("recommend_p99_ms", base, 0.99))...)
	if w.reportsSLO() {
		out = append(out, extra(metric{name: "slo_rps", value: slo, unit: "1/s"})...)
	}
	if w.observeRate > 0 {
		// The write path exists only where observes run, so these are
		// printed but kept out of the result line, whose metrics every
		// workload reports.
		obs := latencies(baseObserves)
		out = append(out, extra(
			pct("observe_p50_ms", obs, 0.5, "ms"),
			pct("observe_p90_ms", obs, 0.9, "ms"),
			pct("serve.observe_us.p50", &st.observeUs, 0.5, "us"),
			pct("serve.observe_us.p90", &st.observeUs, 0.9, "us"),
			metric{name: "serve.gens", value: float64(gens), unit: "count"},
			metric{name: "cluster.ship_bytes", value: float64(st.shipBytes), unit: "B"},
			pct("cluster.repl_lag_ms.p90", lagMs, 0.9, "ms"),
		)...)
	}
	return out, nil
}

// extra marks metrics as printed-only.
func extra(ms ...metric) []metric {
	for i := range ms {
		ms[i].extra = true
	}
	return ms
}

// waitReplicas gives every replica up to a few poll intervals to reach its
// primary's generation, so the lag of the traced phase's last generations is
// measured rather than cut off.
func waitReplicas(dep *deployment) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		caught := true
		for i := range dep.primaries {
			if dep.replicas[i].srv.Generation() < dep.primaries[i].srv.Generation() {
				caught = false
			}
		}
		if caught {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// replicationLag pairs each generation a primary published inside [from, to]
// with the first replica swap on its shard reaching it: OnSwap(G) at the
// primary to OnSwap(≥G) at the replica. It also returns how many generations
// the primaries published in the window.
func replicationLag(events []swapEvent, from, to time.Time) (*dist, int) {
	lag := &dist{}
	gens := 0
	for i, e := range events {
		if e.replica || e.at.Before(from) || e.at.After(to) {
			continue
		}
		gens++
		for _, f := range events[i+1:] {
			if f.replica && f.shard == e.shard && f.gen >= e.gen {
				lag.add(float64(f.at.Sub(e.at)) / 1e6)
				break
			}
		}
	}
	return lag, gens
}

// replays times single layers by calling them directly on the workload's own
// keys and batches, after the cluster has stopped: the kernel and the node
// handler on the served snapshots, the persistence and shipping codecs on the
// final snapshot, and the fold on a private copy of a primary.
func replays(w *workload, sys *system, dep *deployment, phases []*phaseResult, batches []observeBatch) ([]metric, error) {
	// The fixed phase's answered keys, with the shard that answered each.
	var keys []replayKey
	for _, ph := range phases {
		if ph.phase.name != "fixed" {
			continue
		}
		for i := range ph.reads {
			if r, q := &ph.reads[i], ph.phase.reads[i]; r.ok() && r.shard >= 0 && len(keys) < replayKeys {
				keys = append(keys, replayKey{int(q.user), int(q.t), int(r.shard)})
			}
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("replays: no answered reads to replay")
	}
	latest := dep.log.latestSnapshots()

	// core: the scoring kernel on the served snapshots.
	topn := &dist{}
	sc := core.NewRecScratch(latest[0].Model)
	m0 := mallocs()
	for _, k := range keys {
		s := latest[k.shard]
		t0 := time.Now()
		s.Model.TopNScratch(k.user, k.t, topN, s.Side.OwnPOIs[k.user], sc)
		topn.add(float64(time.Since(t0)) / 1e3)
	}
	topnAllocs := float64(mallocs()-m0) / float64(len(keys))

	// serve: one node's handler, in process, on a fresh server over shard 0's
	// final snapshot, counting allocations per ServeHTTP.
	readAllocs, err := handlerAllocs(latest[0], w, keys)
	if err != nil {
		return nil, err
	}

	// core and serve: the persistence and shipping codecs on the final snapshot.
	var saveMs, decodeMs, shipMs []float64
	var snapBytes int
	for range 5 {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := latest[0].Model.SaveBinary(&buf, latest[0].Gen); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, _, err := core.DecodeBinary(buf.Bytes()); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if _, err := serve.EncodeShipment(latest[0]); err != nil {
			return nil, err
		}
		t3 := time.Now()
		saveMs = append(saveMs, float64(t1.Sub(t0))/1e6)
		decodeMs = append(decodeMs, float64(t2.Sub(t1))/1e6)
		shipMs = append(shipMs, float64(t3.Sub(t2))/1e6)
		snapBytes = buf.Len()
	}

	// core: the observe fold, on a private copy of a primary's recommender.
	fold := &dist{}
	if sys.private != nil {
		rec, err := sys.private()
		if err != nil {
			return nil, err
		}
		online := serve.DefaultOptions().Online
		for _, b := range batches[:min(replayBatch, len(batches))] {
			t0 := time.Now()
			if _, err := rec.ObserveOpen(b.batch, online); err != nil {
				return nil, fmt.Errorf("fold replay: %w", err)
			}
			fold.add(float64(time.Since(t0)) / 1e6)
		}
	}

	out := []metric{
		pct("core.topn_us.p50", topn, 0.5, "us"),
		pct("core.topn_us.p99", topn, 0.99, "us"),
		{name: "core.topn_allocs", value: topnAllocs, unit: "allocs/op"},
		{name: "serve.read_allocs", value: readAllocs, unit: "allocs/op"},
		{name: "core.save_ms", value: median(saveMs), unit: "ms"},
		{name: "core.decode_ms", value: median(decodeMs), unit: "ms"},
		{name: "core.snapshot_bytes", value: float64(snapBytes), unit: "B"},
		{name: "serve.ship_encode_ms", value: median(shipMs), unit: "ms"},
	}
	if fold.n() > 0 {
		out = append(out, extra(pct("core.fold_ms.p50", fold, 0.5, "ms"), pct("core.fold_ms.p90", fold, 0.9, "ms"))...)
	}
	return out, nil
}

// replayKey is one answered read: its key and the shard that answered it.
type replayKey struct{ user, t, shard int }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// handlerAllocs replays GET /v1/recommend through a fresh server's
// Handler().ServeHTTP with a recorder and returns the allocations per call.
// Requests and recorders are built before counting starts.
func handlerAllocs(snap *serve.Snapshot, w *workload, keys []replayKey) (float64, error) {
	gran := tcss.Month
	if !w.trained() {
		gran = tcss.SynthGranularity(w.times)
	}
	srv, err := serve.NewFromSource(&serve.StaticSource{Model: snap.Model, Side: snap.Side, Gran: gran}, serve.DefaultOptions())
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	h := srv.Handler()
	var reqs []*http.Request
	var recs []*httptest.ResponseRecorder
	for _, k := range keys {
		url := "/v1/recommend?user=" + strconv.Itoa(k.user) + "&t=" + strconv.Itoa(k.t) + "&n=" + strconv.Itoa(topN)
		rec := httptest.NewRecorder()
		rec.Body.Grow(1024)
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, url, nil))
		recs = append(recs, rec)
	}
	m0 := mallocs()
	for i, r := range reqs {
		h.ServeHTTP(recs[i], r)
	}
	n := mallocs() - m0
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler replay answered %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	return float64(n) / float64(len(reqs)), nil
}
