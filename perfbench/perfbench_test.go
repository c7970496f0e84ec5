package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tcss"
	"tcss/internal/core"
)

// benchmarkFile is the repository's BENCHMARK.json, which the result lines
// must match name for name and unit for unit.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// resultOf renders a report and parses its last line, as the harness does.
func resultOf(t *testing.T, name string, rep *report) resultLine {
	t.Helper()
	var out bytes.Buffer
	printReport(&out, name, rep)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line
}

// TestWorkloadsReportEveryMetric runs each workload once per mode, with one
// set-up instead of three, and checks the result line against BENCHMARK.json:
// every named metric present with its unit and nothing else, every answer
// verified, and every percentile backed by at least ten samples beyond it.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full length")
	}
	b := loadBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var got []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	if !reflect.DeepEqual(names, got) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, got)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := make(map[string]string)
			for _, m := range b.EndToEnd {
				if !trace {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range b.PerLayer {
				if trace {
					want[m.Name] = m.Unit
				}
			}
			rep, err := run(runConfig{workload: w, seed: 7, seconds: 10, trace: trace, setups: 1, spansDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			line := resultOf(t, w.name, rep)
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d (%s)",
					w.name, trace, line.Correct, line.Failed, line.Attempted, rep.verdict.first)
			}
			for name, unit := range want {
				m, ok := line.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, trace, name, m.Unit, unit)
				}
			}
			for name := range line.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, trace, name)
				}
			}
			for _, m := range rep.metrics {
				if m.n > 0 && beyond(m.n, m.q) < 10 {
					t.Errorf("%s trace=%v: %s is a p%g over %d samples, only %d beyond it",
						w.name, trace, m.name, m.q*100, m.n, beyond(m.n, m.q))
				}
			}
		}
	}
}

// TestSeedChangesStreamNotShape: two seeds draw different keys and arrival
// times, but the same number of reads and observes over the same key space;
// the drift stream is cut into small batches that carry arrivals.
func TestSeedChangesStreamNotShape(t *testing.T) {
	for _, w := range workloads {
		users := w.users
		if w.trained() {
			gen, err := gowallaPreset()
			if err != nil {
				t.Fatal(err)
			}
			users = gen.Users
		}
		plan := func(seed int64) *phase {
			rn := &runner{w: w, seed: seed, keys: newKeySpace(users, w.times, w.zipf)}
			return rn.plan("fixed", w.readRate, w.observeRate, 2*time.Second)
		}
		a, b := plan(1), plan(2)
		c := (&runner{w: w, seed: 1, keys: newKeySpace(users, w.times, w.zipf)}).closedPlan(2 * time.Second)
		if !c.closed || len(c.reads) != int(2*w.closedRate) || len(c.observes)*int(w.readRate) != len(c.reads)*int(w.observeRate) {
			t.Errorf("%s: closed plan of %d reads and %d observes, want %g reads and the fixed rates' ratio",
				w.name, len(c.reads), len(c.observes), 2*w.closedRate)
		}
		if len(a.reads) != len(b.reads) || len(a.observes) != len(b.observes) {
			t.Errorf("%s: seeds 1 and 2 schedule %d/%d reads and %d/%d observes",
				w.name, len(a.reads), len(b.reads), len(a.observes), len(b.observes))
		}
		if reflect.DeepEqual(a.reads, b.reads) {
			t.Errorf("%s: seeds 1 and 2 drew the same reads", w.name)
		}
		for _, r := range append(a.reads, b.reads...) {
			if int(r.user) >= users || int(r.t) >= w.times {
				t.Fatalf("%s: read key (%d, %d) outside %d×%d", w.name, r.user, r.t, users, w.times)
			}
		}
	}

	batches, err := driftBatches(400)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 400 {
		t.Fatalf("got %d drift batches, want 400", len(batches))
	}
	grows := 0
	for _, b := range batches {
		if len(b.batch.CheckIns) > batchSize {
			t.Fatalf("drift batch of %d check-ins, want at most %d", len(b.batch.CheckIns), batchSize)
		}
		grows += len(b.batch.NewUsers) + len(b.batch.NewPOIs)
	}
	if grows == 0 {
		t.Error("the drift stream carries no arrivals")
	}
}

// TestWrongAnswerFailsGate corrupts one answer on its way out of a primary
// and expects the correctness gate to catch it.
func TestWrongAnswerFailsGate(t *testing.T) {
	w, err := findWorkload("recommend-hot")
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	wrap := func(name string, h http.Handler) http.Handler {
		if name != shardName(0) {
			return h
		}
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/recommend" || served.Add(1) != 100 {
				h.ServeHTTP(rw, r)
				return
			}
			rec := &bodyRecorder{header: http.Header{}}
			h.ServeHTTP(rec, r)
			body := bytes.Replace(rec.body.Bytes(), []byte(`"score":`), []byte(`"score":1`), 1)
			for k, v := range rec.header {
				rw.Header()[k] = v
			}
			rw.WriteHeader(rec.status)
			rw.Write(body)
		})
	}
	rep, err := run(runConfig{workload: w, seed: 3, seconds: 2, setups: 1, wrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	line := resultOf(t, w.name, rep)
	if line.Correct || rep.verdict.mismatches != 1 || line.Failed < 1 {
		t.Fatalf("correct=%v mismatches=%d failed=%d, want one mismatch caught", line.Correct, rep.verdict.mismatches, line.Failed)
	}
}

// TestWrongKernelFailsGate replaces the kernel on both sides of the gate:
// the served bodies come from the same faulty kernel the gate recomputes
// with, so they agree byte for byte, and only the reference ranking can
// catch the fault.
func TestWrongKernelFailsGate(t *testing.T) {
	m, side, err := tcss.SynthServing(50, 200, 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := map[string]func([]core.Recommendation){
		"swap two results":  func(r []core.Recommendation) { r[3], r[4] = r[4], r[3] },
		"drop the best POI": func(r []core.Recommendation) { copy(r, r[1:]); r[len(r)-1].POI = (r[len(r)-1].POI + 1) % 200 },
		"rescore a result":  func(r []core.Recommendation) { r[0].Score += 1e-6 },
	}
	t.Cleanup(func() { topNKernel = (*core.Model).TopNScratch })
	snap := snapView{model: m, own: side.OwnPOIs}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			for _, faulty := range []bool{false, true} {
				topNKernel = func(m *core.Model, i, k, n int, skip []int, s *core.RecScratch) []core.Recommendation {
					r := m.TopNScratch(i, k, n, skip, s)
					if faulty {
						fault(r)
					}
					return r
				}
				v := verifyReads(fakeLog(snap), newRefMemo(), servedBy(t, snap, m.I, m.K))
				if got := v.mismatches > 0; got != faulty {
					t.Errorf("faulty=%v: %d of %d answers failed (%s)", faulty, v.mismatches, v.checked, v.first)
				}
			}
		})
	}
}

// fakeLog is a swap log holding one snapshot, generation 1 of shard 0.
func fakeLog(snap snapView) *swapLog {
	l := newSwapLog()
	l.snaps[0][1] = snap
	return l
}

// servedBy answers every key of a model as a server running topNKernel would.
func servedBy(t *testing.T, snap snapView, users, times int) *phaseResult {
	t.Helper()
	pr := &phaseResult{phase: &phase{}}
	sc := core.NewRecScratch(snap.model)
	for u := range users {
		for k := range times {
			body, _ := expectedBody(snap, 1, u, k, sc)
			pr.phase.reads = append(pr.phase.reads, readReq{user: int32(u), t: int32(k)})
			pr.reads = append(pr.reads, result{status: http.StatusOK, gen: 1, shard: 0, body: body})
		}
	}
	return pr
}

// bodyRecorder buffers a handler's response so a test can alter it.
type bodyRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bodyRecorder) Header() http.Header { return b.header }
func (b *bodyRecorder) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}
func (b *bodyRecorder) Write(p []byte) (int, error) {
	b.WriteHeader(http.StatusOK)
	return b.body.Write(p)
}

func TestCovered(t *testing.T) {
	parent := &span{start: 0, end: 100}
	kids := []*span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}, {start: 50, end: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

func TestArrivalsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	due := arrivals(rng, 2000, 1500*time.Millisecond)
	if len(due) != 3000 {
		t.Fatalf("%d arrivals, want 3000", len(due))
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= 1500*time.Millisecond {
			t.Fatalf("arrival %d at %v out of order or range", i, due[i])
		}
	}
}

// TestClosedPhaseSendsBackToBack: a closed phase ignores the planned due
// times, so a schedule spread over a minute finishes at once, and each
// request's latency runs from when it was sent.
func TestClosedPhaseSendsBackToBack(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
	}))
	defer srv.Close()
	g, err := newGenerator(srv.URL, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	p := &phase{name: "closed", closed: true}
	for i := range 100 {
		p.reads = append(p.reads, readReq{due: time.Duration(i) * 600 * time.Millisecond})
	}
	pr := g.run(p)
	if pr.err != nil {
		t.Fatal(pr.err)
	}
	if pr.elapsed > 10*time.Second {
		t.Fatalf("closed phase took %v, want it to ignore the minute-long schedule", pr.elapsed)
	}
	for i, r := range pr.reads {
		if !r.ok() || r.due != r.sent || r.latencyMs() < 1 || r.latencyMs() > 1000 {
			t.Fatalf("read %d: status %d, due %v, sent %v, latency %.3f ms", i, r.status, r.due, r.sent, r.latencyMs())
		}
	}
}
