package main

// The benchmark's self-check: a tiny-size pass over every workload that
// asserts each named metric appears with its unit, that the ledger
// covers every workload, that traced and untraced verdicts are
// identical, and that BENCHMARK.json names the same workloads and
// metrics as the code. Run from perfbench/ with
//
//	go test ./...

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/engine"
)

func TestMain(m *testing.M) {
	// Runs write under .bench_build of the checkout root, like the
	// benchmark itself.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type fileMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []fileMetric            `json:"end_to_end"`
	PerLayer  []fileMetric            `json:"per_layer"`
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, file []fileMetric, code []metricSpec) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(code))
			return
		}
		for i, m := range file {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func assertMetrics(t *testing.T, name string, rep *report, want []metricSpec) {
	t.Helper()
	if !rep.check.ok() {
		t.Fatalf("%s: correctness gate failed: %+v", name, rep.check)
	}
	if len(rep.metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", name, len(rep.metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.metrics[m.name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, m.name)
			continue
		}
		if got.Unit != m.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", name, m.name, got.Unit, m.unit)
		}
	}
}

// tiny shrinks the workload for the self-check: same backend, same
// frames and layers, a few players and short calls.
func (w workload) tiny() workload {
	switch w.kind {
	case kindSMP:
		w.n, w.k, w.q = 256, 8, 24
	case kindCluster:
		w.k = 32
		if w.shards > 0 {
			w.shards = 4
		}
	case kindCONGEST:
		w.n, w.k, w.q, w.gridSide = 64, 64, 12, 8
	}
	if w.batch > 8 {
		w.batch = 8
	}
	w.callTrials = w.batch * w.window * w.workers
	w.setupReps = 2
	return w
}

func TestTinyPassEveryWorkload(t *testing.T) {
	for _, full := range workloads {
		w := full.tiny()
		t.Run(w.name, func(t *testing.T) {
			rep, err := runUntraced(w, 1, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, w.name+" untraced", rep, endToEnd)
			for _, m := range endToEnd {
				if v := rep.metrics[m.name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v)
				}
			}

			rep, err = runTraced(w, 1, 400*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, w.name+" traced", rep, perLayer)
			var ledger, remainder bool
			for _, l := range rep.lines {
				ledger = ledger || strings.HasPrefix(l, "ledger "+w.name+": explained")
				remainder = remainder || strings.HasPrefix(l, "ledger.unexplained_ns_per_trial ")
			}
			if !ledger || !remainder {
				t.Errorf("ledger does not cover %s (explained line %v, remainder line %v)", w.name, ledger, remainder)
			}
			if rep.metrics["ledger.explained_ns_per_trial"].Value <= 0 {
				t.Errorf("ledger explains nothing on %s", w.name)
			}
		})
	}
}

func TestTracedVerdictsMatchUntraced(t *testing.T) {
	for _, full := range workloads {
		w := full.tiny()
		t.Run(w.name, func(t *testing.T) {
			plain, err := deploy(w, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.held.close()
			rec, err := newRecorder(1 << 12)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.release()
			traced, err := deploy(w, rec)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.held.close()
			const seed = 77
			opts := engine.Options{Seed: seed, Workers: w.workers, Batch: w.batch, Window: w.window}
			trials := 2 * w.callTrials
			want, err := engine.Run(context.Background(), plain.held, plain.src, trials, opts)
			if err != nil {
				t.Fatal(err)
			}
			rec.seeds[0] = seed
			got, err := engine.Run(context.Background(), traced.held, tracedSource(traced.src, rec, traced.held, w.chunk()), trials, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i].Verdict != want[i].Verdict {
					t.Fatalf("trial %d: traced accept=%v, untraced accept=%v", i, got[i].Verdict, want[i].Verdict)
				}
			}
			if rec.count[layerRule].Load() == 0 || rec.count[layerSample].Load() == 0 {
				t.Errorf("traced run recorded no rule or sample spans")
			}
		})
	}
}
