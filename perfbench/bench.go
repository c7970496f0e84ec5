package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// processStart is when the workload process started; the first set-up is
// timed from it.
var processStart = time.Now()

const (
	setupsPerRun = 2                      // set-ups per run at least; setup_s is their median
	setupBudget  = time.Second            // cheap set-ups repeat until they have taken this long,
	maxSetups    = 15                     // up to this many times
	warmup       = time.Second            // unmeasured lead-in: caches fill, connections open
	abortLate    = 100 * time.Millisecond // a ladder probe this late has failed
	ladderRatio  = 1.05                   // ladder rungs are 5% apart
	ladderLow    = -14                    // lowest rung: ×0.5 the fixed rate
	ladderHigh   = 57                     // highest rung: ×16 the fixed rate
	ladderProbe  = time.Second            // length of one ladder probe
	lateWindow   = 100                    // a probe's last reads, whose lateness shows a growing backlog
	replayKeys   = 2000                   // keys replayed per kernel and handler replay
	replayBatch  = 100                    // observe batches replayed through the fold
)

type runConfig struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	spansDir string // where the traced run writes its spans; "" skips writing
	setups   int
	wrap     func(name string, h http.Handler) http.Handler // node middleware (tests)
}

// metric is one reported number. A percentile records its sample count and
// quantile so the report can show the support behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	q     float64
	extra bool // printed, but not part of the result line
}

type report struct {
	metrics           []metric
	attempted, failed int
	verdict           verdict
}

func pct(name string, d *dist, q float64, unit string) metric {
	return metric{name: name, value: d.q(q), unit: unit, n: d.n(), q: q}
}

// latencies collects due-to-done latencies in ms; a failed request is +Inf.
func latencies(rs []result) *dist {
	d := &dist{}
	for i := range rs {
		if !rs[i].attempted() {
			continue
		}
		if rs[i].ok() {
			d.add(rs[i].latencyMs())
		} else {
			d.add(math.Inf(1))
		}
	}
	return d
}

func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// vmHWM returns the process's peak resident set in MiB.
func vmHWM() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// run executes one workload: set-ups, then the phases, then the correctness
// gate, then (traced runs) the replays.
func run(cfg runConfig) (*report, error) {
	w := cfg.workload
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var (
		sys    *system
		dep    *deployment
		setupS []float64
		buildS []float64
	)
	var spent time.Duration
	for i := 0; i < cfg.setups || (spent < setupBudget && i < maxSetups); i++ {
		if dep != nil {
			dep.close()
			dep, sys = nil, nil
			freeMemory()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if sys, err = w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spec := sys.spec
		spec.tracer, spec.wrap = tr, cfg.wrap
		if dep, err = deploy(spec); err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		buildS = append(buildS, sys.buildS)
		spent += time.Since(t0)
	}
	defer dep.close()

	// Inputs, all from the seed.
	d := time.Duration(cfg.seconds) * time.Second
	var batches []observeBatch
	if w.observeRate > 0 {
		span := warmup + 2*d // covers either run's open-loop phases
		n := math.Ceil(w.observeRate*span.Seconds()) + math.Ceil(w.closedObserveRate()*d.Seconds()) + 1
		var err error
		if batches, err = driftBatches(int(n)); err != nil {
			return nil, fmt.Errorf("drift stream: %w", err)
		}
	}
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i] = b.body
	}
	gen, err := newGenerator(dep.gwURL, bodies, dep.shardIdx)
	if err != nil {
		return nil, err
	}
	defer gen.close()
	rn := &runner{w: w, seed: cfg.seed, keys: newKeySpace(sys.users, w.times, w.zipf), gen: gen, log: dep.log, refs: newRefMemo()}

	rn.exec(rn.plan("warmup", w.readRate, w.observeRate, warmup))
	rep := &report{}
	var layers []metric
	if !cfg.trace {
		// The result line's latency comes from a closed loop. At the fixed
		// rates the processors idle between requests, and on a shared VM how
		// fast an idle processor wakes moved the open-loop p50 between runs
		// by more than the largest bound allows. Its p90 is the steadier
		// closed-loop percentile (DESIGN.md).
		closed := rn.exec(rn.closedPlan(d))
		cl := latencies(closed.reads)
		rep.metrics = append(rep.metrics, pct("closed_p90_ms", cl, 0.9, "ms"))
		rep.metrics = append(rep.metrics, extra(pct("closed_p50_ms", cl, 0.5, "ms"),
			metric{name: "closed_rps", value: float64(cl.n()) / closed.elapsed.Seconds(), unit: "1/s"})...)
	} else if layers, err = traced(cfg, rn, dep, tr); err != nil {
		return nil, err
	}

	dep.stopBackground()
	if rn.err != nil {
		return nil, rn.err
	}
	rep.verdict = rn.verdict
	verifyAcks(rn.phases, &rep.verdict)
	rep.attempted, rep.failed = failures(rn.phases)
	rep.failed += rep.verdict.mismatches

	if cfg.trace {
		more, err := replays(w, sys, dep, rn.phases, batches)
		if err != nil {
			return nil, err
		}
		layers = append(layers, more...)
		layers = append(layers,
			metric{name: "tcss.build_s", value: median(buildS), unit: "s"},
			metric{name: "geo.dist_bytes", value: 8 * float64(sys.distN) * float64(sys.distN), unit: "B"},
		)
		rep.metrics = layers
	}
	hwm, err := vmHWM()
	if err != nil {
		return nil, err
	}
	// The traced run prints set-up time and memory too, so that it shows
	// every end-to-end figure, but keeps them out of its result line.
	rep.metrics = append(rep.metrics,
		metric{name: "setup_s", value: median(setupS), unit: "s", extra: cfg.trace},
		metric{name: "mem_peak_mb", value: hwm, unit: "MiB", extra: cfg.trace},
	)
	rep.metrics = append(rep.metrics, metric{name: "fail_frac", value: float64(rep.failed) / float64(max(rep.attempted, 1)), unit: "1", extra: true})
	return rep, nil
}

// runner plans and runs the phases of one run, and checks each phase's
// answers after it ends. Each phase draws its schedule from its own seeded
// generator; observes consume the drift batches in order across phases.
type runner struct {
	w        *workload
	seed     int64
	keys     keySpace
	gen      *generator
	log      *swapLog
	refs     *refMemo
	phases   []*phaseResult
	verdict  verdict
	err      error // the first phase that could not pace its requests
	nextObs  int
	phaseIdx int64
}

func (rn *runner) plan(name string, readRate, observeRate float64, d time.Duration) *phase {
	rn.phaseIdx++
	rng := rand.New(rand.NewSource(rn.seed*1_000_003 + rn.phaseIdx))
	p := &phase{name: name, reads: rn.keys.reads(rng, readRate, d)}
	for _, due := range arrivals(rng, observeRate, d) {
		p.observes = append(p.observes, observeReq{due: due, batch: int32(rn.nextObs)})
		rn.nextObs++
	}
	return p
}

// closedPlan plans the closed-loop phase: the workload's mix at closedRate
// reads/s for d, sent back to back.
func (rn *runner) closedPlan(d time.Duration) *phase {
	p := rn.plan("closed", rn.w.closedRate, rn.w.closedObserveRate(), d)
	p.closed = true
	return p
}

func (rn *runner) exec(p *phase) *phaseResult {
	runtime.GC() // every phase starts from a collected heap
	before := readRuntime()
	pr := rn.gen.run(p)
	pr.rt = readRuntime().minus(before)
	if pr.err != nil && rn.err == nil {
		rn.err = fmt.Errorf("%s phase: %w", p.name, pr.err)
	}
	rn.phases = append(rn.phases, pr)
	rn.verdict.add(verifyReads(rn.log, rn.refs, pr))
	return pr
}

// readPct returns the q-quantile of a phase's read latency over all its
// reads, a failed read counting as +Inf.
func readPct(name string, pr *phaseResult, q float64) metric {
	return pct(name, latencies(pr.reads), q, "ms")
}

// ladder finds slo_rps: the highest rung of a fixed geometric ladder around
// the workload's fixed read rate (rungs 5% apart) at which the read p99 stays
// within latencyMax and the generator's backlog does not grow. It binary
// searches the ladder, one probe per step. Probes carry reads only.
func (rn *runner) ladder(probe time.Duration) float64 {
	rung := func(i int) float64 { return rn.w.readRate * math.Pow(ladderRatio, float64(i)) }
	lo, hi := ladderLow-1, ladderHigh+1 // lo passes and hi fails by assumption
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		p := rn.plan("ladder", rung(mid), 0, probe)
		p.abortLate = abortLate
		if meetsSLO(rn.exec(p)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rung(lo)
}

// meetsSLO: the probe's p99 over all its reads, taken like recommend_p99_ms
// (a failed read misses the limit), is within latencyMax, and the backlog
// does not grow: the generator's median lateness over the probe's last
// lateWindow reads stays within the limit too.
func meetsSLO(pr *phaseResult) bool {
	if pr.aborted || readPct("", pr, 0.99).value > latencyMax {
		return false
	}
	late := &dist{}
	for _, r := range pr.reads[max(0, len(pr.reads)-lateWindow):] {
		late.add(r.lateMs())
	}
	return late.q(0.5) <= latencyMax
}

// spansPath names the traced run's span file.
func spansPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv", workload, seed))
}
