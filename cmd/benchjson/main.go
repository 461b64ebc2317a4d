// Command benchjson distills `go test -bench` output into a small JSON
// report. It reads the benchmark text on stdin and writes one record per
// benchmark line with the iteration count, ns/op, and the derived
// trials/sec throughput — the shape `make bench` stores in
// BENCH_engine.json so engine-backend throughput can be tracked across
// commits without parsing the raw bench text again.
//
// With -baseline, benchjson first reads a previously committed report
// and prints per-benchmark deltas (trials/sec, B/op, allocs/op) against
// it before writing the new file, so `make bench` shows how the run
// moved relative to the checked-in BENCH_engine.json.
//
// With -max-regress P (0 < P <= 100, requires -baseline), benchjson
// exits non-zero when any benchmark regresses more than P percent
// against its baseline entry, turning the delta report into a
// regression gate for CI. -regress-metric picks what the gate
// compares: trials_per_sec (the default; a drop is a regression) or
// allocs_per_op (an increase is a regression — the stable choice for
// shared CI runners, where throughput is noisy but allocation counts
// are deterministic). Benchmarks without a baseline entry never fail
// the gate (they are new), and the report is still written so the
// failing run can be inspected.
//
// Trends across commits are perfbench's job (`perfbench --history`);
// benchjson only compares one run with the committed report.
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' ./internal/engine | benchjson -baseline BENCH_engine.json -o BENCH_engine.json -max-regress 20
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	// Name is the benchmark name with the Benchmark prefix and any
	// -GOMAXPROCS suffix stripped (e.g. "EngineSMP").
	Name string `json:"name"`
	// Iterations is b.N for the recorded run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op: nanoseconds per trial.
	NsPerOp float64 `json:"ns_per_op"`
	// TrialsPerSec is 1e9/NsPerOp: engine trial throughput.
	TrialsPerSec float64 `json:"trials_per_sec"`
	// BytesPerOp is B/op when -benchmem was set (0 otherwise).
	BytesPerOp int64 `json:"bytes_per_op,omitempty"`
	// AllocsPerOp is allocs/op when -benchmem was set, nil otherwise. A
	// pointer keeps a genuine zero-allocation benchmark distinguishable
	// from a run without -benchmem: &0 serializes as "allocs_per_op": 0,
	// nil omits the field entirely.
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
}

// allocs unpacks the optional allocs/op measurement.
func (b Benchmark) allocs() (int64, bool) {
	if b.AllocsPerOp == nil {
		return 0, false
	}
	return *b.AllocsPerOp, true
}

// Report is the file benchjson writes.
type Report struct {
	// OS echoes the bench header's goos when present.
	OS string `json:"os,omitempty"`
	// Arch echoes the bench header's goarch when present.
	Arch string `json:"arch,omitempty"`
	// CPU echoes the bench header's cpu when present.
	CPU string `json:"cpu,omitempty"`
	// Benchmarks holds one entry per parsed benchmark line.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_engine.json", "output file (- for stdout)")
	baseline := flag.String("baseline", "", "committed report to diff against (read before -o overwrites it)")
	maxRegress := flag.Float64("max-regress", 0,
		"fail (exit 1) when -regress-metric regresses more than this percentage vs -baseline; 0 disables the gate")
	regressMetric := flag.String("regress-metric", metricTrialsPerSec,
		"metric the -max-regress gate compares: trials_per_sec or allocs_per_op")
	flag.Parse()
	if *maxRegress < 0 || *maxRegress > 100 {
		fmt.Fprintf(os.Stderr, "benchjson: -max-regress %v outside [0,100]\n", *maxRegress)
		os.Exit(2)
	}
	if *maxRegress > 0 && *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -max-regress needs -baseline to compare against")
		os.Exit(2)
	}
	if *regressMetric != metricTrialsPerSec && *regressMetric != metricAllocsPerOp {
		fmt.Fprintf(os.Stderr, "benchjson: -regress-metric %q: want %s or %s\n",
			*regressMetric, metricTrialsPerSec, metricAllocsPerOp)
		os.Exit(2)
	}
	report, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	var regressions []string
	if *baseline != "" {
		if base, err := readReport(*baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline %s unreadable (%v); skipping deltas\n", *baseline, err)
		} else {
			printDeltas(os.Stderr, base, report)
			if *maxRegress > 0 {
				regressions = findRegressions(base, report, *maxRegress, *regressMetric)
			}
		}
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
	} else {
		err = os.WriteFile(*out, enc, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchjson: regression:", r)
		}
		os.Exit(1)
	}
}

// Metrics the -max-regress gate can compare.
const (
	metricTrialsPerSec = "trials_per_sec"
	metricAllocsPerOp  = "allocs_per_op"
)

// findRegressions returns one description per benchmark whose chosen
// metric regressed more than maxPct percent against its baseline entry:
// a trials/sec drop, or an allocs/op increase (any increase over a zero
// baseline counts). New benchmarks (absent from the baseline) and
// baseline entries without a usable value are skipped.
func findRegressions(base, cur Report, maxPct float64, metric string) []string {
	prev := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		prev[b.Name] = b
	}
	var out []string
	for _, b := range cur.Benchmarks {
		old, ok := prev[b.Name]
		if !ok {
			continue
		}
		switch metric {
		case metricAllocsPerOp:
			oldAllocs, oldOK := old.allocs()
			newAllocs, newOK := b.allocs()
			if !oldOK || !newOK {
				continue // one side ran without -benchmem: nothing to gate
			}
			if newAllocs <= oldAllocs {
				continue
			}
			// A zero-alloc baseline tolerates no growth at any budget.
			if oldAllocs == 0 || pctChange(float64(oldAllocs), float64(newAllocs)) > maxPct {
				out = append(out, fmt.Sprintf("%s allocs/op %d -> %d (over allowed +%.1f%%)",
					b.Name, oldAllocs, newAllocs, maxPct))
			}
		default:
			if old.TrialsPerSec <= 0 {
				continue
			}
			drop := -pctChange(old.TrialsPerSec, b.TrialsPerSec)
			if drop > maxPct {
				out = append(out, fmt.Sprintf("%s trials/sec %.0f -> %.0f (-%.1f%% > allowed %.1f%%)",
					b.Name, old.TrialsPerSec, b.TrialsPerSec, drop, maxPct))
			}
		}
	}
	return out
}

// readReport loads a previously written benchjson file.
func readReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, err
	}
	return r, nil
}

// printDeltas writes one line per benchmark comparing the fresh run
// against the baseline report: trials/sec throughput plus the -benchmem
// pairs, each with its relative change. Benchmarks present on only one
// side are flagged rather than silently dropped.
func printDeltas(w io.Writer, base, cur Report) {
	prev := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		prev[b.Name] = b
	}
	fmt.Fprintln(w, "benchjson: deltas vs baseline")
	for _, b := range cur.Benchmarks {
		old, ok := prev[b.Name]
		if !ok {
			fmt.Fprintf(w, "  %-16s new benchmark (no baseline entry)\n", b.Name)
			continue
		}
		delete(prev, b.Name)
		fmt.Fprintf(w, "  %-16s trials/sec %.0f -> %.0f (%+.1f%%)  B/op %d -> %d (%+.1f%%)  allocs/op %s\n",
			b.Name,
			old.TrialsPerSec, b.TrialsPerSec, pctChange(old.TrialsPerSec, b.TrialsPerSec),
			old.BytesPerOp, b.BytesPerOp, pctChange(float64(old.BytesPerOp), float64(b.BytesPerOp)),
			allocsDelta(old, b))
	}
	for name := range prev {
		fmt.Fprintf(w, "  %-16s missing from this run (baseline only)\n", name)
	}
}

// allocsDelta renders the allocs/op comparison, writing "n/a" for a
// side that ran without -benchmem rather than conflating it with zero.
func allocsDelta(old, cur Benchmark) string {
	oldAllocs, oldOK := old.allocs()
	newAllocs, newOK := cur.allocs()
	switch {
	case oldOK && newOK:
		return fmt.Sprintf("%d -> %d (%+d)", oldAllocs, newAllocs, newAllocs-oldAllocs)
	case oldOK:
		return fmt.Sprintf("%d -> n/a", oldAllocs)
	case newOK:
		return fmt.Sprintf("n/a -> %d", newAllocs)
	default:
		return "n/a"
	}
}

// pctChange is the relative change from old to cur in percent; 0 when
// the baseline value is 0 (no meaningful ratio).
func pctChange(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (cur - old) / old
}

// parse reads `go test -bench` text and extracts the result lines.
func parse(r io.Reader) (Report, error) {
	var report Report
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.OS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.Arch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok, err := parseLine(line)
		if err != nil {
			return Report{}, err
		}
		if ok {
			report.Benchmarks = append(report.Benchmarks, b)
		}
	}
	return report, sc.Err()
}

// parseLine parses one benchmark result line; ok is false for
// Benchmark-prefixed lines that are not results (e.g. a bare name echoed
// with -v).
func parseLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	// Name, iterations, value, "ns/op", then optional -benchmem pairs.
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Benchmark{}, false, nil
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	nsPerOp, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Benchmark{}, false, fmt.Errorf("bad ns/op in %q: %w", line, err)
	}
	b := Benchmark{Name: name, Iterations: iters, NsPerOp: nsPerOp}
	if nsPerOp > 0 {
		b.TrialsPerSec = 1e9 / nsPerOp
	}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			v := v
			b.AllocsPerOp = &v
		}
	}
	return b, true, nil
}
