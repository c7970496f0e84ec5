// Command loadgen drives the tcss serving API and reports throughput and
// latency. By default it self-hosts: it trains a model on a preset dataset,
// starts the internal/serve server on a loopback listener, and hammers it
// over real HTTP. Point -url at a running `tcss serve` to load an external
// server instead (then -users and -times must describe the model dims).
//
// Two load models:
//
//	loadgen -conns 8 -duration 10s             # closed loop: 8 workers, b2b
//	loadgen -rate 2000 -duration 10s           # open loop: 2000 req/s target
//
// A fraction of requests (-observe-frac) are POST /v1/observe batches with a
// random check-in, exercising the snapshot-swap path and cache invalidation
// under read load. With -drift, an open-world stream (datagen -drift-weeks)
// is additionally fed through /v1/observe week by week while reads run, so
// the served model grows — new users, new POIs — under live traffic. Results
// (throughput, client-side percentiles, error counts, server-side /metrics
// scrape) are written as JSON to -out.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcss"
	"tcss/internal/core"
	"tcss/internal/lbsn"
	"tcss/internal/replay"
	"tcss/internal/serve"
)

type options struct {
	url         string
	preset      string
	seed        int64
	gran        string
	epochs      int
	rank        int
	conns       int
	rate        float64
	duration    time.Duration
	observeFrac float64
	nextFrac    float64
	topN        int
	users       int
	pois        int
	times       int
	retries     int
	retryCap    time.Duration
	out         string

	storage string
	noCache bool

	verify    bool
	synthRank int
	ver       *verifier

	requireModels string
	requireShadow bool

	drift         string
	driftInterval time.Duration
}

// sample is one completed request, classified for aggregation. status and ms
// describe the final attempt; retries counts the 503-and-retried attempts
// before it, netRetries the 504s, transport errors and torn bodies retried.
type sample struct {
	observe    bool
	next       bool
	status     int
	ms         float64
	cacheHit   bool
	retries    int
	netRetries int
	model      string // routed model from the X-Model header
	body       []byte // final-attempt response body, captured only under -verify
}

func main() {
	var o options
	flag.StringVar(&o.url, "url", "", "target server base URL (empty = self-host in process)")
	flag.StringVar(&o.preset, "preset", "gowalla", fmt.Sprintf("self-host preset dataset, one of %v", lbsn.PresetNames()))
	flag.Int64Var(&o.seed, "seed", 7, "seed for dataset, training and request generation")
	flag.StringVar(&o.gran, "granularity", "month", "self-host time granularity: month, week or hour")
	flag.IntVar(&o.epochs, "epochs", 0, "self-host training epochs (0 = default)")
	flag.IntVar(&o.rank, "rank", 0, "self-host embedding rank (0 = default)")
	flag.IntVar(&o.conns, "conns", 8, "closed-loop worker connections")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop target requests/s (0 = closed loop)")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "measurement duration")
	flag.Float64Var(&o.observeFrac, "observe-frac", 0.001, "fraction of requests that are observe batches")
	flag.Float64Var(&o.nextFrac, "next-frac", 0, "fraction of requests that are POST /v1/next with a random check-in sequence (requires -url against a server with a sequential model)")
	flag.IntVar(&o.topN, "n", 10, "top-N per recommend request")
	flag.IntVar(&o.users, "users", 0, "user id range for -url mode (ignored when self-hosting)")
	flag.IntVar(&o.pois, "pois", 0, "poi id range for -url mode (ignored when self-hosting)")
	flag.IntVar(&o.times, "times", 0, "time unit range for -url mode (ignored when self-hosting)")
	flag.IntVar(&o.retries, "retries", 3, "max retries per request on 503, 504 and transport errors (0 disables)")
	flag.DurationVar(&o.retryCap, "retry-cap", 500*time.Millisecond, "ceiling on per-retry backoff (Retry-After is clamped to this)")
	flag.StringVar(&o.out, "out", "BENCH_PR3.json", "output JSON path")
	flag.StringVar(&o.storage, "storage", "", "self-host factor storage: f64 (default), f32, int8")
	flag.BoolVar(&o.noCache, "no-cache", false, "self-host with the response cache disabled (bench the scoring path)")
	flag.BoolVar(&o.verify, "verify", false, "recompute every recommend response from the synthetic model and exit nonzero on any mismatch (requires -url against a -synth-* cluster with matching -users/-pois/-times/-synth-rank/-seed, and -observe-frac 0)")
	flag.IntVar(&o.synthRank, "synth-rank", 8, "synthetic model embedding rank for -verify")
	flag.StringVar(&o.requireModels, "require-models", "", "comma-separated model names that must show served traffic in the target's /metrics (exit nonzero otherwise)")
	flag.BoolVar(&o.requireShadow, "require-shadow", false, "require the target's /metrics to show completed shadow scoring (exit nonzero otherwise)")
	flag.StringVar(&o.drift, "drift", "", "open-world traffic: feed this drift stream (JSONL from datagen -drift-weeks) through /v1/observe while the read load runs; self-hosting enables growth")
	flag.DurationVar(&o.driftInterval, "drift-interval", 0, "pause between drift week batches (0 = spread evenly over -duration)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(o options) (err error) {
	base := o.url
	if base == "" {
		var stop func()
		base, stop, err = selfHost(&o)
		if err != nil {
			return err
		}
		defer stop()
	} else {
		base = strings.TrimRight(base, "/")
		if o.users <= 0 || o.times <= 0 {
			return fmt.Errorf("-url mode requires -users and -times (the served model's dims)")
		}
		if o.observeFrac > 0 && o.pois <= 0 {
			return fmt.Errorf("-url mode with -observe-frac > 0 requires -pois")
		}
	}
	if o.nextFrac > 0 {
		if o.url == "" {
			return fmt.Errorf("-next-frac requires -url (the target must serve a sequential model on /v1/next)")
		}
		if o.pois <= 0 {
			return fmt.Errorf("-next-frac requires -pois (check-in sequences draw random POI ids)")
		}
	}
	if o.verify {
		switch {
		case o.url == "":
			return fmt.Errorf("-verify requires -url (the target must serve the synthetic model)")
		case o.observeFrac != 0:
			return fmt.Errorf("-verify requires -observe-frac 0 (observes would advance the served model past the local copy)")
		case o.drift != "":
			return fmt.Errorf("-verify is incompatible with -drift (growth advances the served model past the local copy)")
		case o.pois <= 0:
			return fmt.Errorf("-verify requires -pois (the synthetic model's POI count)")
		}
		o.ver, err = newVerifier(o)
		if err != nil {
			return err
		}
		fmt.Printf("loadgen: verifying against local synthetic model (users=%d pois=%d times=%d rank=%d seed=%d)\n",
			o.users, o.pois, o.times, o.synthRank, o.seed)
	}

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        o.conns + 64,
			MaxIdleConnsPerHost: o.conns + 64,
		},
	}
	results := make(chan sample, 8192)
	var agg aggregate
	collectDone := make(chan struct{})
	go func() {
		defer close(collectDone)
		for s := range results {
			agg.add(s)
		}
	}()

	fmt.Printf("loadgen: %s for %s (", base, o.duration)
	if o.rate > 0 {
		fmt.Printf("open loop, %g req/s target", o.rate)
	} else {
		fmt.Printf("closed loop, %d conns", o.conns)
	}
	fmt.Printf(", observe-frac %g)\n", o.observeFrac)

	// Open-world feed: one goroutine walks the drift stream's weekly batches
	// through /v1/observe while the read load runs, growing the served model
	// in place. Reads racing the growth are the point of the exercise.
	var (
		driftRep *driftReport
		driftWG  sync.WaitGroup
	)
	if o.drift != "" {
		weeks, err := lbsn.ReadWeeksJSONLFile(o.drift)
		if err != nil {
			return err
		}
		driftRep = &driftReport{WeeksTotal: len(weeks)}
		target := &replay.HTTPTarget{BaseURL: base, Client: client}
		if u, p, err := target.Dims(); err == nil {
			driftRep.UsersBefore, driftRep.POIsBefore = u, p
		}
		interval := o.driftInterval
		if interval <= 0 && len(weeks) > 0 {
			interval = o.duration / time.Duration(len(weeks)+1)
		}
		deadline := time.Now().Add(o.duration)
		fmt.Printf("loadgen: drift feed %s (%d weeks, one per %s)\n", o.drift, len(weeks), interval)
		driftWG.Add(1)
		go func() {
			defer driftWG.Done()
			for _, wb := range weeks {
				if time.Now().After(deadline) {
					return
				}
				if _, err := target.ObserveWeek(wb); err != nil {
					driftRep.Errors++
					if driftRep.FirstError == "" {
						driftRep.FirstError = err.Error()
					}
				} else {
					driftRep.WeeksApplied++
				}
				time.Sleep(interval)
			}
		}()
	}

	start := time.Now()
	if o.rate > 0 {
		runOpenLoop(o, base, client, results)
	} else {
		runClosedLoop(o, base, client, results)
	}
	elapsed := time.Since(start)
	driftWG.Wait()
	close(results)
	<-collectDone

	report := agg.report(o, elapsed)
	report.Server = scrapeMetrics(client, base)
	if driftRep != nil {
		if u, p, err := (&replay.HTTPTarget{BaseURL: base, Client: client}).Dims(); err == nil {
			driftRep.UsersAfter, driftRep.POIsAfter = u, p
		}
		report.Drift = driftRep
	}
	if o.ver != nil {
		o.ver.mu.Lock()
		report.Verify = &verifyReport{
			Checked:       o.ver.checked.Load(),
			Mismatches:    o.ver.mismatches.Load(),
			FirstMismatch: o.ver.first,
		}
		o.ver.mu.Unlock()
	}

	raw, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(o.out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("recommend: %d ok, %.0f req/s, p50 %.3fms p95 %.3fms p99 %.3fms, client cache-hit %.1f%%\n",
		report.Recommend.OK, report.Recommend.RPS,
		report.Recommend.P50ms, report.Recommend.P95ms, report.Recommend.P99ms,
		100*report.Recommend.CacheHitFrac)
	if o.nextFrac > 0 {
		fmt.Printf("next: %d ok, %.0f req/s, p50 %.3fms p95 %.3fms p99 %.3fms, client cache-hit %.1f%%\n",
			report.Next.OK, report.Next.RPS,
			report.Next.P50ms, report.Next.P95ms, report.Next.P99ms,
			100*report.Next.CacheHitFrac)
	}
	if len(report.Models) > 0 {
		names := make([]string, 0, len(report.Models))
		for name := range report.Models {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cs := report.Models[name]
			fmt.Printf("model %s: %d recommends (p99 %.3fms), %d nexts (p99 %.3fms)\n",
				name, cs.Recommends, cs.P99ms, cs.Nexts, cs.NextP99ms)
		}
	}
	if report.Drift != nil {
		d := report.Drift
		fmt.Printf("drift: %d/%d weeks applied (%d errors), model %dx%d -> %dx%d\n",
			d.WeeksApplied, d.WeeksTotal, d.Errors,
			d.UsersBefore, d.POIsBefore, d.UsersAfter, d.POIsAfter)
	}
	fmt.Printf("observe: %d ok, %d shed; errors: %d shed_503, %d deadline_504, %d other\n",
		report.Observe.OK, report.Observe.Shed,
		report.Errors.Shed503, report.Errors.Deadline504, report.Errors.Other)
	fmt.Printf("retries: %d recommend, %d observe (on 503, honoring Retry-After, cap %s)\n",
		report.Recommend.Retries, report.Observe.Retries, o.retryCap)
	fmt.Printf("net retries: %d recommend, %d next, %d observe (on 504, transport errors and torn bodies)\n",
		report.Recommend.NetRetries, report.Next.NetRetries, report.Observe.NetRetries)
	printServerStats(report.Server)
	fmt.Printf("wrote %s\n", o.out)
	if report.Verify != nil {
		fmt.Printf("verify: %d responses checked against the local model, %d mismatches\n",
			report.Verify.Checked, report.Verify.Mismatches)
		if report.Verify.Mismatches > 0 {
			return fmt.Errorf("verify: %d mismatched responses (first: %s)",
				report.Verify.Mismatches, report.Verify.FirstMismatch)
		}
		if report.Verify.Checked == 0 {
			return fmt.Errorf("verify: no successful recommend responses to check")
		}
	}
	if o.requireModels != "" || o.requireShadow {
		if err := checkServerModels(report.Server, o); err != nil {
			return err
		}
		fmt.Println("require: server-side model and shadow checks passed")
	}
	return nil
}

// checkServerModels asserts multi-model serving invariants against the
// scraped /metrics document: every -require-models name must have served
// traffic, and -require-shadow demands completed off-path shadow scorings
// with a sane agreement fraction.
func checkServerModels(raw json.RawMessage, o options) error {
	if raw == nil {
		return fmt.Errorf("require: /metrics scrape failed, cannot check models")
	}
	var m struct {
		Models []struct {
			Name         string `json:"name"`
			Requests     int64  `json:"requests"`
			NextRequests int64  `json:"next_requests"`
			Shadow       struct {
				Scored       int64   `json:"scored"`
				Errors       int64   `json:"errors"`
				AgreementAvg float64 `json:"agreement_avg"`
			} `json:"shadow"`
		} `json:"models"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("require: decoding /metrics: %w", err)
	}
	byName := make(map[string]int)
	for i, ms := range m.Models {
		byName[ms.Name] = i
	}
	if o.requireModels != "" {
		for _, name := range strings.Split(o.requireModels, ",") {
			name = strings.TrimSpace(name)
			i, ok := byName[name]
			if !ok {
				return fmt.Errorf("require: model %q absent from server /metrics", name)
			}
			if m.Models[i].Requests+m.Models[i].NextRequests == 0 {
				return fmt.Errorf("require: model %q served no traffic", name)
			}
		}
	}
	if o.requireShadow {
		var scored int64
		for _, ms := range m.Models {
			scored += ms.Shadow.Scored
			if avg := ms.Shadow.AgreementAvg; avg < 0 || avg > 1 {
				return fmt.Errorf("require: model %q shadow agreement %g outside [0,1]", ms.Name, avg)
			}
		}
		if scored == 0 {
			return fmt.Errorf("require: no completed shadow scorings on the server")
		}
		fmt.Printf("require: %d shadow scorings completed\n", scored)
	}
	return nil
}

// printServerStats summarizes the model-storage block of the scraped
// /metrics document (the full document is embedded in the report).
func printServerStats(raw json.RawMessage) {
	if raw == nil {
		return
	}
	var m struct {
		Model struct {
			Storage      string  `json:"storage"`
			FactorBytes  int64   `json:"factor_bytes"`
			BytesPerUser float64 `json:"bytes_per_user"`
		} `json:"model"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return
	}
	if m.Model.Storage != "" {
		fmt.Printf("server model: %s storage, %d factor bytes (%.1f per user)\n",
			m.Model.Storage, m.Model.FactorBytes, m.Model.BytesPerUser)
	}
}

// selfHost trains a recommender on the preset and serves it on a loopback
// listener, returning the base URL and a shutdown func. It also fills in
// o.users/o.times from the trained model's dims.
func selfHost(o *options) (string, func(), error) {
	cfg, err := lbsn.NewPreset(o.preset, o.seed)
	if err != nil {
		return "", nil, err
	}
	ds, err := lbsn.Generate(cfg)
	if err != nil {
		return "", nil, err
	}
	var g tcss.Granularity
	switch strings.ToLower(o.gran) {
	case "month":
		g = tcss.Month
	case "week":
		g = tcss.Week
	case "hour":
		g = tcss.Hour
	default:
		return "", nil, fmt.Errorf("unknown granularity %q", o.gran)
	}
	tcfg := tcss.DefaultConfig()
	tcfg.Seed = o.seed
	if o.epochs > 0 {
		tcfg.Epochs = o.epochs
	}
	if o.rank > 0 {
		tcfg.Rank = o.rank
	}
	fmt.Printf("loadgen: training on %s (users=%d pois=%d epochs=%d)...\n",
		o.preset, ds.NumUsers, len(ds.POIs), tcfg.Epochs)
	rec, err := tcss.Fit(ds, g, tcfg)
	if err != nil {
		return "", nil, err
	}
	if o.storage != "" {
		mode, err := tcss.ParseStorageMode(o.storage)
		if err != nil {
			return "", nil, err
		}
		m, err := rec.Model.ToStorage(mode)
		if err != nil {
			return "", nil, err
		}
		rec.Model = m
	}
	o.users = rec.Model.I
	o.pois = rec.Model.J
	o.times = rec.Model.K
	fmt.Printf("loadgen: serving %s storage, %d factor bytes (%.1f per user), cache=%v\n",
		rec.Model.Mode, rec.Model.FactorBytes(),
		float64(rec.Model.FactorBytes())/float64(rec.Model.I), !o.noCache)

	opts := serve.Options{
		// An open-world drift feed needs the observe path to grow the model.
		Grow: o.drift != "",
	}
	if o.noCache {
		opts.CacheSize = -1
	}
	srv, err := serve.New(rec, opts)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() {
		ln.Close()
		srv.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// runClosedLoop runs o.conns workers issuing back-to-back requests until the
// duration elapses.
func runClosedLoop(o options, base string, client *http.Client, results chan<- sample) {
	deadline := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	for w := 0; w < o.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				results <- issue(o, base, client, rng)
			}
		}(w)
	}
	wg.Wait()
}

// runOpenLoop fires requests at a fixed target rate regardless of completion
// times; each request runs in its own goroutine, so latency under saturation
// reflects queueing rather than back-pressure on the generator.
func runOpenLoop(o options, base string, client *http.Client, results chan<- sample) {
	interval := time.Duration(float64(time.Second) / o.rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.Now().Add(o.duration)
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		rng = rand.New(rand.NewSource(o.seed))
	)
	for time.Now().Before(deadline) {
		<-ticker.C
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			r := rand.New(rand.NewSource(rng.Int63()))
			mu.Unlock()
			results <- issue(o, base, client, r)
		}()
	}
	wg.Wait()
}

// issue performs one request: an observe batch with probability observeFrac,
// otherwise a recommend query with uniform random user and time unit.
func issue(o options, base string, client *http.Client, rng *rand.Rand) sample {
	if rng.Float64() < o.observeFrac {
		body, _ := json.Marshal(map[string]any{
			"checkins": []map[string]int{{
				"user":  rng.Intn(o.users),
				"poi":   rng.Intn(o.pois),
				"month": rng.Intn(12),
				"week":  rng.Intn(53),
				"hour":  rng.Intn(24),
			}},
		})
		s := timed(o, rng, func() (*http.Response, error) {
			return client.Post(base+"/v1/observe", "application/json", bytes.NewReader(body))
		})
		s.observe = true
		return s
	}
	if o.nextFrac > 0 && rng.Float64() < o.nextFrac {
		return issueNext(o, base, client, rng)
	}
	user, t := rng.Intn(o.users), rng.Intn(o.times)
	url := fmt.Sprintf("%s/v1/recommend?user=%d&t=%d&n=%d", base, user, t, o.topN)
	s := timed(o, rng, func() (*http.Response, error) { return client.Get(url) })
	if o.ver != nil && s.status == http.StatusOK {
		o.ver.check(user, t, o.topN, s.body)
	}
	s.body = nil
	return s
}

// issueNext performs one POST /v1/next with a random check-in sequence of
// 2–8 visits whose time units ascend, mimicking a user trajectory.
func issueNext(o options, base string, client *http.Client, rng *rand.Rand) sample {
	seqLen := 2 + rng.Intn(7)
	ts := make([]int, seqLen)
	for i := range ts {
		ts[i] = rng.Intn(o.times)
	}
	sort.Ints(ts)
	checkins := make([]map[string]int, seqLen)
	for i := range checkins {
		checkins[i] = map[string]int{"poi": rng.Intn(o.pois), "t": ts[i]}
	}
	body, _ := json.Marshal(map[string]any{"checkins": checkins})
	url := fmt.Sprintf("%s/v1/next?user=%d&n=%d", base, rng.Intn(o.users), o.topN)
	s := timed(o, rng, func() (*http.Response, error) {
		return client.Post(url, "application/json", bytes.NewReader(body))
	})
	s.next = true
	s.body = nil
	return s
}

// verifier recomputes expected recommend responses from a local copy of the
// cluster's deterministic synthetic model (see tcss.SynthServing). Scores are
// compared exactly: JSON's shortest-round-trip float64 encoding means a
// correctly-routed, correctly-replicated response decodes to bit-identical
// values, so any inequality is a real serving defect (wrong shard, stale
// generation, torn shipment), not noise.
type verifier struct {
	model *tcss.Model
	side  *tcss.SideInfo
	pool  sync.Pool

	checked    atomic.Int64
	mismatches atomic.Int64

	mu    sync.Mutex
	first string
}

func newVerifier(o options) (*verifier, error) {
	model, side, err := tcss.SynthServing(o.users, o.pois, o.times, o.synthRank, o.seed)
	if err != nil {
		return nil, err
	}
	v := &verifier{model: model, side: side}
	v.pool.New = func() any { return core.NewRecScratch(model) }
	return v, nil
}

func (v *verifier) check(user, t, n int, body []byte) {
	var resp struct {
		Results []struct {
			POI   int     `json:"poi"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		v.record(fmt.Sprintf("user=%d t=%d: decoding response: %v", user, t, err))
		return
	}
	sc := v.pool.Get().(*core.RecScratch)
	want := v.model.TopNScratch(user, t, n, v.side.OwnPOIs[user], sc)
	v.pool.Put(sc)
	v.checked.Add(1)
	if len(resp.Results) != len(want) {
		v.record(fmt.Sprintf("user=%d t=%d: %d results, want %d", user, t, len(resp.Results), len(want)))
		return
	}
	for i, got := range resp.Results {
		if got.POI != want[i].POI || got.Score != want[i].Score {
			v.record(fmt.Sprintf("user=%d t=%d rank %d: got poi=%d score=%v, want poi=%d score=%v",
				user, t, i, got.POI, got.Score, want[i].POI, want[i].Score))
			return
		}
	}
}

func (v *verifier) record(msg string) {
	v.mismatches.Add(1)
	v.mu.Lock()
	if v.first == "" {
		v.first = msg
	}
	v.mu.Unlock()
}

// timed issues one request with up to o.retries retries. Retried outcomes:
// 503 (shed or degraded), 504 (deadline budget drained at the gateway),
// transport errors (connection refused/reset, a partitioned gateway) and
// torn response bodies — the latter classes counted separately as network
// retries. The wait before each retry is the larger of the doubling client
// backoff and the server's Retry-After header, capped at o.retryCap and
// jittered to [wait/2, wait) so retry storms decorrelate. The returned
// latency covers the whole episode, backoff included.
func timed(o options, rng *rand.Rand, send func() (*http.Response, error)) sample {
	start := time.Now()
	var s sample
	backoff := 25 * time.Millisecond
	for attempt := 0; ; attempt++ {
		var retryAfter string
		resp, err := send()
		if err != nil {
			s.status, s.cacheHit, s.model, s.body = 0, false, "", nil
		} else {
			s.status = resp.StatusCode
			s.cacheHit = resp.Header.Get("X-Cache") == "HIT"
			s.model = resp.Header.Get("X-Model")
			retryAfter = resp.Header.Get("Retry-After")
			var berr error
			if o.ver != nil {
				s.body, berr = io.ReadAll(resp.Body)
			} else {
				_, berr = io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
			if berr != nil {
				// A torn body is as useless as no response: retry it like a
				// transport failure rather than trusting partial bytes.
				err = berr
				s.status, s.body = 0, nil
			}
		}
		retry := err != nil ||
			s.status == http.StatusServiceUnavailable ||
			s.status == http.StatusGatewayTimeout
		if !retry || attempt >= o.retries {
			break
		}
		wait := backoff
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
			if ra := time.Duration(secs) * time.Second; ra > wait {
				wait = ra
			}
		}
		if wait > o.retryCap {
			wait = o.retryCap
		}
		if half := wait / 2; half > 0 {
			wait = half + time.Duration(rng.Int63n(int64(half)))
		}
		time.Sleep(wait)
		backoff *= 2
		if s.status == http.StatusServiceUnavailable {
			s.retries++
		} else {
			s.netRetries++
		}
	}
	s.ms = float64(time.Since(start)) / float64(time.Millisecond)
	return s
}

// aggregate accumulates samples; single-goroutine (the collector).
type aggregate struct {
	recLat         []float64
	recOK          int
	recHits        int
	recRetries     int
	recNetRetries  int
	nextLat        []float64
	nextOK         int
	nextHits       int
	nextRetries    int
	nextNetRetries int
	obsOK          int
	obsShed        int
	obsBad         int
	obsRetries     int
	obsNetRetries  int
	shed503        int
	missed504      int
	other          int
	models         map[string]*modelAgg
}

// modelAgg is the client-side view of one routed model's traffic.
type modelAgg struct {
	recLat  []float64
	nextLat []float64
}

func (a *aggregate) add(s sample) {
	if s.observe {
		a.obsRetries += s.retries
		a.obsNetRetries += s.netRetries
		switch s.status {
		case http.StatusOK:
			a.obsOK++
		case http.StatusServiceUnavailable:
			a.obsShed++
		case http.StatusBadRequest:
			a.obsBad++ // random POI out of range: expected, still exercised parsing
		default:
			a.other++
		}
		return
	}
	if s.next {
		a.nextRetries += s.retries
		a.nextNetRetries += s.netRetries
		switch s.status {
		case http.StatusOK:
			a.nextOK++
			a.nextLat = append(a.nextLat, s.ms)
			if s.cacheHit {
				a.nextHits++
			}
			a.perModel(s.model).nextLat = append(a.perModel(s.model).nextLat, s.ms)
		case http.StatusServiceUnavailable:
			a.shed503++
		case http.StatusGatewayTimeout:
			a.missed504++
		default:
			a.other++
		}
		return
	}
	a.recRetries += s.retries
	a.recNetRetries += s.netRetries
	switch s.status {
	case http.StatusOK:
		a.recOK++
		a.recLat = append(a.recLat, s.ms)
		if s.cacheHit {
			a.recHits++
		}
		a.perModel(s.model).recLat = append(a.perModel(s.model).recLat, s.ms)
	case http.StatusServiceUnavailable:
		a.shed503++
	case http.StatusGatewayTimeout:
		a.missed504++
	default:
		a.other++
	}
}

// perModel returns the accumulator for one X-Model value. Pre-registry
// servers send no header; that traffic lands under "" and is dropped from
// the models block.
func (a *aggregate) perModel(model string) *modelAgg {
	if a.models == nil {
		a.models = make(map[string]*modelAgg)
	}
	m, ok := a.models[model]
	if !ok {
		m = &modelAgg{}
		a.models[model] = m
	}
	return m
}

// benchReport is the BENCH_PR3.json document.
type benchReport struct {
	Config struct {
		Target      string  `json:"target"`
		Preset      string  `json:"preset,omitempty"`
		Conns       int     `json:"conns,omitempty"`
		RateTarget  float64 `json:"rate_target_rps,omitempty"`
		DurationSec float64 `json:"duration_seconds"`
		ObserveFrac float64 `json:"observe_frac"`
		TopN        int     `json:"topn"`
		Seed        int64   `json:"seed"`
		Retries     int     `json:"retries"`
		RetryCapMs  float64 `json:"retry_cap_ms"`
		Storage     string  `json:"storage,omitempty"`
		NoCache     bool    `json:"no_cache"`
	} `json:"config"`
	Recommend struct {
		OK           int     `json:"ok"`
		RPS          float64 `json:"rps"`
		P50ms        float64 `json:"p50_ms"`
		P95ms        float64 `json:"p95_ms"`
		P99ms        float64 `json:"p99_ms"`
		CacheHitFrac float64 `json:"client_cache_hit_frac"`
		Retries      int     `json:"retries"`
		NetRetries   int     `json:"net_retries"`
	} `json:"recommend"`
	Next struct {
		OK           int     `json:"ok"`
		RPS          float64 `json:"rps"`
		P50ms        float64 `json:"p50_ms"`
		P95ms        float64 `json:"p95_ms"`
		P99ms        float64 `json:"p99_ms"`
		CacheHitFrac float64 `json:"client_cache_hit_frac"`
		Retries      int     `json:"retries"`
		NetRetries   int     `json:"net_retries"`
	} `json:"next"`
	Observe struct {
		OK         int `json:"ok"`
		Shed       int `json:"shed"`
		Bad        int `json:"bad_request"`
		Retries    int `json:"retries"`
		NetRetries int `json:"net_retries"`
	} `json:"observe"`
	Models map[string]clientModelStats `json:"models,omitempty"`
	Errors struct {
		Shed503     int `json:"shed_503"`
		Deadline504 int `json:"deadline_504"`
		Other       int `json:"other"`
	} `json:"errors"`
	Verify *verifyReport   `json:"verify,omitempty"`
	Drift  *driftReport    `json:"drift,omitempty"`
	Server json.RawMessage `json:"server_metrics,omitempty"`
}

// driftReport summarizes the open-world feed of -drift: how much of the
// stream was applied during the run and how far the served model grew.
type driftReport struct {
	WeeksTotal   int    `json:"weeks_total"`
	WeeksApplied int    `json:"weeks_applied"`
	Errors       int    `json:"errors"`
	FirstError   string `json:"first_error,omitempty"`
	UsersBefore  int    `json:"users_before"`
	POIsBefore   int    `json:"pois_before"`
	UsersAfter   int    `json:"users_after"`
	POIsAfter    int    `json:"pois_after"`
}

// clientModelStats is the per-routed-model block of the report, keyed by the
// X-Model response header.
type clientModelStats struct {
	Recommends int     `json:"recommends"`
	P99ms      float64 `json:"p99_ms,omitempty"`
	Nexts      int     `json:"nexts"`
	NextP99ms  float64 `json:"next_p99_ms,omitempty"`
}

type verifyReport struct {
	Checked       int64  `json:"checked"`
	Mismatches    int64  `json:"mismatches"`
	FirstMismatch string `json:"first_mismatch,omitempty"`
}

func (a *aggregate) report(o options, elapsed time.Duration) benchReport {
	var r benchReport
	r.Config.Target = o.url
	if o.url == "" {
		r.Config.Target = "self-hosted"
		r.Config.Preset = o.preset
	}
	if o.rate > 0 {
		r.Config.RateTarget = o.rate
	} else {
		r.Config.Conns = o.conns
	}
	r.Config.DurationSec = elapsed.Seconds()
	r.Config.ObserveFrac = o.observeFrac
	r.Config.TopN = o.topN
	r.Config.Seed = o.seed
	r.Config.Retries = o.retries
	r.Config.RetryCapMs = float64(o.retryCap) / float64(time.Millisecond)
	r.Config.Storage = o.storage
	r.Config.NoCache = o.noCache

	r.Recommend.OK = a.recOK
	r.Recommend.RPS = float64(a.recOK) / elapsed.Seconds()
	r.Recommend.P50ms, r.Recommend.P95ms, r.Recommend.P99ms = percentiles(a.recLat)
	if a.recOK > 0 {
		r.Recommend.CacheHitFrac = float64(a.recHits) / float64(a.recOK)
	}
	r.Recommend.Retries = a.recRetries
	r.Recommend.NetRetries = a.recNetRetries
	r.Next.OK = a.nextOK
	r.Next.RPS = float64(a.nextOK) / elapsed.Seconds()
	r.Next.P50ms, r.Next.P95ms, r.Next.P99ms = percentiles(a.nextLat)
	if a.nextOK > 0 {
		r.Next.CacheHitFrac = float64(a.nextHits) / float64(a.nextOK)
	}
	r.Next.Retries = a.nextRetries
	r.Next.NetRetries = a.nextNetRetries
	for model, m := range a.models {
		if model == "" {
			continue
		}
		if r.Models == nil {
			r.Models = make(map[string]clientModelStats)
		}
		var cs clientModelStats
		cs.Recommends = len(m.recLat)
		_, _, cs.P99ms = percentiles(m.recLat)
		cs.Nexts = len(m.nextLat)
		_, _, cs.NextP99ms = percentiles(m.nextLat)
		r.Models[model] = cs
	}
	r.Observe.OK = a.obsOK
	r.Observe.Shed = a.obsShed
	r.Observe.Bad = a.obsBad
	r.Observe.Retries = a.obsRetries
	r.Observe.NetRetries = a.obsNetRetries
	r.Errors.Shed503 = a.shed503
	r.Errors.Deadline504 = a.missed504
	r.Errors.Other = a.other
	return r
}

func percentiles(lat []float64) (p50, p95, p99 float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sorted := make([]float64, len(lat))
	copy(sorted, lat)
	sort.Float64s(sorted)
	at := func(p float64) float64 {
		idx := int(p*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	return at(0.50), at(0.95), at(0.99)
}

// scrapeMetrics embeds the server's own /metrics document in the report.
func scrapeMetrics(client *http.Client, base string) json.RawMessage {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	return json.RawMessage(raw)
}
