// Command perfbench is the repository benchmark: it runs the paper's
// testers through the unified engine driver on the in-process SMP
// backend, a TCP-loopback star, a 10k-player aggregator tree and the
// CONGEST simulator, checks every verdict against a reference backend,
// and prints end-to-end metrics (untraced run) or per-layer metrics, a
// cost ledger and the tracing overhead (traced run). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through perfbench/run.py from the repository root, which
// builds this module and passes the flags through:
//
//	python3 perfbench/run.py --workload smp-e1 --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name (see README.md)")
		seed    = flag.Uint64("seed", 1, "input seed: equal seeds give equal inputs")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; have %v\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	started := time.Now().UTC()
	prov := collectProvenance(w, *seed, *seconds, *trace == 1, started)
	printProvenance(prov)

	budget := time.Duration(*seconds * float64(time.Second))
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = runTraced(w, *seed, budget)
	} else {
		rep, err = runUntraced(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.printLines(os.Stdout)
	if path, werr := saveReport(prov, rep); werr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report not saved: %v\n", werr)
	} else {
		fmt.Printf("report %s\n", path)
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.check.ok() {
		return 1
	}
	return 0
}

// checkCheckout refuses to run outside a repository checkout: the
// benchmark measures the tree it was built from, so a directory that
// holds only the benchmark has nothing to measure.
func checkCheckout() error {
	for _, p := range []string{"go.mod", "internal/engine/engine.go"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("not at the root of a dut checkout (%s: %v)", p, err)
		}
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured: the metrics it emits, the
// correctness tally, and free-form lines (ledger, self times) printed
// before the JSON result.
type report struct {
	metrics map[string]metric
	check   correctness
	lines   []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric. A NaN (a quantile of no samples, when every
// call failed) is recorded as 0 so the result still marshals; the
// correctness gate already fails such a run.
func (r *report) set(name string, value float64, unit string) {
	if math.IsNaN(value) {
		value = 0
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) result() result {
	return result{
		Correct:   r.check.ok(),
		Attempted: r.check.attempted,
		Failed:    r.check.failed + r.check.mismatch,
		Metrics:   r.metrics,
	}
}

// printLines prints the free-form lines, then every metric by name with
// its unit in name order, then the correctness tally.
func (r *report) printLines(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(f, "metric %-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
	c := r.check
	fmt.Fprintf(f, "check verdict_mismatch %d\n", c.mismatch)
	fmt.Fprintf(f, "check failed_trial_ratio %g (%d of %d trials)\n", c.failedRatio(), c.failed, c.attempted)
	if c.firstBad != "" {
		fmt.Fprintf(f, "check first bad trial: %s\n", c.firstBad)
	}
}
