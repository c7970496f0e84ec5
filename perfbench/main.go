// Command perfbench is the repository's benchmark. One run brings up an
// in-process cluster — cluster.Gateway in front of two shards, each a primary
// and a replica serve.Server, every one on its own loopback listener and on
// its default options — and drives one seeded workload through the gateway
// from at most two connections:
//
//	bash perfbench/run.sh --workload recommend-hot --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it sends the workload's requests back to back (a closed loop)
// and reports the end-to-end metrics; with --trace 1 it offers the workload at
// its fixed rates (an open loop) with spans recorded around every layer
// boundary and reports the per-layer metrics. Every answer is checked byte for
// byte after the measurement, and the command exits nonzero on any mismatch.
// The report goes to standard output, one metric per line with its unit and
// sample count, and its last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// --workload all runs every workload in turn, each in its own process.
// BENCHMARK.json at the repository root records the workloads, their rates
// and why they were chosen, and which layer metric should move which
// end-to-end metric on which workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: recommend-hot, recommend-wide, observe-mix, or all")
		seed     = flag.Int64("seed", 1, "seed of the request stream")
		seconds  = flag.Int("seconds", 10, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
		spansDir = flag.String("spans-dir", ".bench_build", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *trace == 1 {
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	rep, err := run(runConfig{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spansDir: *spansDir, setups: setupsPerRun,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, w.name, rep)
	if rep.verdict.mismatches > 0 {
		os.Exit(1)
	}
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport writes one line per metric and then the JSON result line. The
// result line carries exactly the metrics BENCHMARK.json lists for the run's
// mode; the extra lines (fail_frac, which the result line carries as its
// failed/attempted pair, and the observe latencies of an untraced run) are
// printed only.
func printReport(out io.Writer, workload string, rep *report) {
	line := resultLine{
		Correct:   rep.verdict.mismatches == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	for _, m := range rep.metrics {
		support := ""
		if m.n > 0 {
			support = fmt.Sprintf("  (n=%d, %d beyond)", m.n, beyond(m.n, m.q))
		}
		fmt.Fprintf(out, "%-16s %-28s %14.6g %-12s%s\n", workload, m.name, m.value, m.unit, support)
		if !m.extra && !math.IsInf(m.value, 0) && !math.IsNaN(m.value) {
			line.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	fmt.Fprintf(out, "%-16s verified %d answers, %d mismatches\n", workload, rep.verdict.checked, rep.verdict.mismatches)
	if rep.verdict.first != "" {
		fmt.Fprintf(out, "%-16s first mismatch: %s\n", workload, rep.verdict.first)
	}
	raw, err := json.Marshal(&line)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintln(out, string(raw))
}

// runAll runs each workload in its own child process, so each reports its
// own set-up time and peak memory, and ends with one combined result line
// whose metric names are prefixed with the workload.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	total := resultLine{Correct: true, Metrics: make(map[string]jsonMetric)}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if last != "" {
				fmt.Println(last)
			}
			last = sc.Text()
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			status = 1
		}
		var line resultLine
		if err := json.Unmarshal([]byte(last), &line); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s printed no result line\n", w.name)
			status = 1
			continue
		}
		total.Correct = total.Correct && line.Correct
		total.Attempted += line.Attempted
		total.Failed += line.Failed
		for k, v := range line.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	raw, err := json.Marshal(&total)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Println(string(raw))
	if !total.Correct {
		status = 1
	}
	return status
}
