package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/distributed-uniformity/dut/internal/engine
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineSMP-8     	   50000	      2500 ns/op	     320 B/op	       6 allocs/op
BenchmarkEngineCluster   	     100	    131515.5 ns/op
BenchmarkEngineCONGEST-8 	    1000	     17400 ns/op
BenchmarkEngineZero-8    	  500000	      1900 ns/op	     329 B/op	       0 allocs/op
PASS
ok  	github.com/distributed-uniformity/dut/internal/engine	0.008s
`

func allocsPtr(v int64) *int64 { return &v }

func TestParse(t *testing.T) {
	report, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if report.OS != "linux" || report.Arch != "amd64" || report.CPU == "" {
		t.Fatalf("header: %+v", report)
	}
	if len(report.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(report.Benchmarks))
	}
	smp := report.Benchmarks[0]
	if smp.Name != "EngineSMP" {
		t.Errorf("name %q: GOMAXPROCS suffix not stripped", smp.Name)
	}
	if smp.Iterations != 50000 || smp.NsPerOp != 2500 {
		t.Errorf("smp = %+v", smp)
	}
	if want := 1e9 / 2500; math.Abs(smp.TrialsPerSec-want) > 1e-9 {
		t.Errorf("trials/sec = %v, want %v", smp.TrialsPerSec, want)
	}
	if a, ok := smp.allocs(); smp.BytesPerOp != 320 || !ok || a != 6 {
		t.Errorf("benchmem pairs: %+v", smp)
	}
	cluster := report.Benchmarks[1]
	if cluster.Name != "EngineCluster" || cluster.NsPerOp != 131515.5 {
		t.Errorf("cluster = %+v", cluster)
	}
	if _, ok := cluster.allocs(); cluster.BytesPerOp != 0 || ok {
		t.Errorf("cluster benchmem should be absent: %+v", cluster)
	}
	zero := report.Benchmarks[3]
	if a, ok := zero.allocs(); !ok || a != 0 {
		t.Errorf("zero-alloc benchmark must record an explicit 0: %+v", zero)
	}
}

func TestZeroAllocsSurviveJSONRoundTrip(t *testing.T) {
	// The whole point of the pointer: a measured 0 allocs/op must appear
	// in the JSON, while a run without -benchmem must omit the field.
	report, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if out := string(enc); !strings.Contains(out, `"allocs_per_op":0`) {
		t.Errorf("encoded report drops the explicit zero allocs/op:\n%s", out)
	}
	noMem, err := json.Marshal(report.Benchmarks[1]) // EngineCluster ran without -benchmem
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(noMem), "allocs_per_op") {
		t.Errorf("benchmark without -benchmem should omit allocs_per_op:\n%s", noMem)
	}
	var back Report
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if a, ok := back.Benchmarks[3].allocs(); !ok || a != 0 {
		t.Errorf("round-tripped zero allocs = (%d, %v), want (0, true)", a, ok)
	}
	if _, ok := back.Benchmarks[1].allocs(); ok {
		t.Error("round-tripped no-benchmem entry grew an allocs measurement")
	}
}

func TestParseSkipsNonResultLines(t *testing.T) {
	report, err := parse(strings.NewReader("BenchmarkFoo\nBenchmarkBar some junk here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from junk", len(report.Benchmarks))
	}
}

func TestPrintDeltas(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "EngineSMP", TrialsPerSec: 578369, BytesPerOp: 357, AllocsPerOp: allocsPtr(15)},
		{Name: "EngineBare", TrialsPerSec: 200},
		{Name: "EngineGone", TrialsPerSec: 100},
	}}
	cur := Report{Benchmarks: []Benchmark{
		{Name: "EngineSMP", TrialsPerSec: 1156738, BytesPerOp: 40, AllocsPerOp: allocsPtr(3)},
		{Name: "EngineBare", TrialsPerSec: 220},
		{Name: "EngineNew", TrialsPerSec: 50},
	}}
	var buf strings.Builder
	printDeltas(&buf, base, cur)
	out := buf.String()
	for _, want := range []string{
		"allocs/op 15 -> 3 (-12)",
		"trials/sec 578369 -> 1156738 (+100.0%)",
		"B/op 357 -> 40 (-88.8%)",
		"allocs/op n/a",
		"EngineNew",
		"EngineGone",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("delta output missing %q:\n%s", want, out)
		}
	}
}

func TestPctChange(t *testing.T) {
	if got := pctChange(0, 5); got != 0 {
		t.Errorf("pctChange(0, 5) = %v, want 0", got)
	}
	if got := pctChange(200, 100); got != -50 {
		t.Errorf("pctChange(200, 100) = %v, want -50", got)
	}
}

func TestParseRejectsMalformedCounts(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX xx 5 ns/op\n")); err == nil {
		t.Error("bad iteration count accepted")
	}
	if _, err := parse(strings.NewReader("BenchmarkX 5 yy ns/op\n")); err == nil {
		t.Error("bad ns/op accepted")
	}
}

func TestFindRegressions(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "Steady", TrialsPerSec: 1000},
		{Name: "Slower", TrialsPerSec: 1000},
		{Name: "ZeroBase", TrialsPerSec: 0},
	}}
	cur := Report{Benchmarks: []Benchmark{
		{Name: "Steady", TrialsPerSec: 950},   // -5%: inside a 20% budget
		{Name: "Slower", TrialsPerSec: 700},   // -30%: over budget
		{Name: "ZeroBase", TrialsPerSec: 500}, // no meaningful baseline ratio
		{Name: "Brand", TrialsPerSec: 1},      // new benchmark, never gated
	}}
	got := findRegressions(base, cur, 20, metricTrialsPerSec)
	if len(got) != 1 || !strings.Contains(got[0], "Slower") {
		t.Errorf("findRegressions = %v, want exactly the Slower entry", got)
	}
	if got := findRegressions(base, cur, 50, metricTrialsPerSec); len(got) != 0 {
		t.Errorf("findRegressions with 50%% budget = %v, want none", got)
	}
}

func TestFindRegressionsAllocsMetric(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "Steady", TrialsPerSec: 1000, AllocsPerOp: allocsPtr(100)},
		{Name: "Grown", TrialsPerSec: 1000, AllocsPerOp: allocsPtr(100)},
		{Name: "ZeroHeld", TrialsPerSec: 1000, AllocsPerOp: allocsPtr(0)},
		{Name: "ZeroLost", TrialsPerSec: 1000, AllocsPerOp: allocsPtr(0)},
		{Name: "NoMem", TrialsPerSec: 1000},
	}}
	cur := Report{Benchmarks: []Benchmark{
		// Throughput collapse must not trip the allocs gate — CI uses it
		// precisely because trials/sec is noisy on shared runners.
		{Name: "Steady", TrialsPerSec: 10, AllocsPerOp: allocsPtr(105)}, // +5%: inside a 10% budget
		{Name: "Grown", TrialsPerSec: 1000, AllocsPerOp: allocsPtr(120)},
		{Name: "ZeroHeld", TrialsPerSec: 1000, AllocsPerOp: allocsPtr(0)},
		{Name: "ZeroLost", TrialsPerSec: 1000, AllocsPerOp: allocsPtr(1)},
		{Name: "NoMem", TrialsPerSec: 1000, AllocsPerOp: allocsPtr(50)},
	}}
	got := findRegressions(base, cur, 10, metricAllocsPerOp)
	if len(got) != 2 {
		t.Fatalf("findRegressions(allocs) = %v, want Grown and ZeroLost", got)
	}
	joined := strings.Join(got, "\n")
	for _, want := range []string{"Grown", "ZeroLost"} {
		if !strings.Contains(joined, want) {
			t.Errorf("allocs regressions missing %s:\n%s", want, joined)
		}
	}
}
