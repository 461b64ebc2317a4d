package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// ledgerItem is one explained cost: a probed unit cost times its count
// per trial.
type ledgerItem struct {
	name        string
	unitNs      float64
	perTrial    float64
	unitComment string
}

func (it ledgerItem) ns() float64 { return it.unitNs * it.perTrial }

// ledger reconciles the probed unit costs against the measured time per
// trial. Measured is core time: wall time per trial times GOMAXPROCS,
// so idle cores, GC, scheduling and every unprobed step land in the
// remainder, which is printed as it is, negative or not.
type ledger struct {
	items     []ledgerItem
	measured  float64
	explained float64
}

func buildLedger(w workload, p probeResult, framesPerTrial map[string]float64, samplesPerTrial, trialsPerSec float64) ledger {
	items := []ledgerItem{
		{"dist.sample", p.sampleNs, samplesPerTrial, "ns/sample x samples"},
		{"dist.source", p.sourceUs * 1e3, 1, "ns/trial"},
		{"core.rule", p.ruleNs, float64(w.k), "ns/call x k calls"},
		{"engine.driver", p.driverNs, 1, "ns/trial"},
	}
	switch w.kind {
	case kindSMP:
		items = append(items, ledgerItem{"core.decide", p.decideNs, 1, "ns/trial"})
	case kindCONGEST:
		items = append(items, ledgerItem{"congest.sim", p.simUs * 1e3, 1, "ns/trial, constant rule"})
	case kindCluster:
		var frames float64
		for _, f := range probeFrames {
			c := framesPerTrial[f]
			frames += c
			items = append(items, ledgerItem{"wire." + f, p.encodeNs[f] + p.decodeNs[f], c, "encode+decode ns x frames"})
		}
		items = append(items, ledgerItem{"transport.one_way", p.rttUs * 1e3 / 2, frames, "rtt/2 x frames"})
	}
	l := ledger{items: items, measured: 1e9 * float64(runtime.GOMAXPROCS(0)) / trialsPerSec}
	for _, it := range items {
		l.explained += it.ns()
	}
	return l
}

func (l ledger) emit(rep *report, w workload) {
	for _, it := range l.items {
		rep.linef("ledger %-24s %14.2f ns x %12.4f per trial = %14.1f ns/trial  (%s)",
			it.name, it.unitNs, it.perTrial, it.ns(), it.unitComment)
	}
	rep.linef("ledger %s: explained %.1f ns/trial vs measured %.1f ns/trial per core (GOMAXPROCS=%d)",
		w.name, l.explained, l.measured, runtime.GOMAXPROCS(0))
	rep.linef("ledger.unexplained_ns_per_trial %.1f", l.measured-l.explained)
	rep.set("ledger.measured_ns_per_trial", l.measured, "ns")
	rep.set("ledger.explained_ns_per_trial", l.explained, "ns")
	rep.set("ledger.unexplained_ns_per_trial", l.measured-l.explained, "ns")
}

// formatFrames renders frames per trial by frame name, in name order.
func formatFrames(m map[string]float64) string {
	names := make([]string, 0, len(m))
	for f := range m {
		names = append(names, f)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, f := range names {
		parts[i] = fmt.Sprintf("%s:%.4f", f, m[f])
	}
	return strings.Join(parts, " ")
}
