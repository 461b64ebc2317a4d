package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/distributed-uniformity/dut/internal/network"
)

// endToEnd and perLayer are the metric names and units a run emits,
// untraced and traced; BENCHMARK.json lists the same (the self-check
// test compares them).
var endToEnd = []metricSpec{
	{"trials_per_sec", "1/s"},
	{"setup_s", "s"},
	{"cpu_s_per_ktrial", "s"},
	{"peak_rss_mb", "MB"},
}

type metricSpec struct{ name, unit string }

var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"dist.sample_ns", "ns"},
		{"dist.samples_per_trial", "count"},
		{"dist.source_us_per_trial", "us"},
		{"core.rule_ns_per_call", "ns"},
		{"core.rule_allocs_per_call", "count"},
		{"core.rule_bytes_per_call", "B"},
		{"core.decide_ns_per_trial", "ns"},
	}
	for _, f := range probeFrames {
		specs = append(specs,
			metricSpec{"wire.encode_ns." + f, "ns"},
			metricSpec{"wire.decode_ns." + f, "ns"},
			metricSpec{"wire.decode_allocs." + f, "count"})
	}
	return append(specs,
		metricSpec{"transport.rtt_us", "us"},
		metricSpec{"transport.frames_per_trial.root_up", "count"},
		metricSpec{"transport.frames_per_trial.root_down", "count"},
		metricSpec{"transport.frames_per_trial.agg_up", "count"},
		metricSpec{"transport.frames_per_trial.agg_down", "count"},
		metricSpec{"transport.bytes_per_trial.up", "B"},
		metricSpec{"transport.bytes_per_trial.down", "B"},
		metricSpec{"transport.payload_ratio", "ratio"},
		metricSpec{"transport.read_block_us_per_trial", "us"},
		metricSpec{"transport.write_block_us_per_trial", "us"},
		metricSpec{"network.chunk_ms_p50", "ms"},
		metricSpec{"network.chunk_ms_p90", "ms"},
		metricSpec{"network.chunk_samples", "count"},
		metricSpec{"network.session_open_s", "s"},
		metricSpec{"network.stragglers_per_trial", "count"},
		metricSpec{"network.retries_per_run", "count"},
		metricSpec{"network.goroutines_peak", "count"},
		metricSpec{"engine.driver_ns_per_trial", "ns"},
		metricSpec{"engine.worker_busy_ratio", "ratio"},
		metricSpec{"congest.messages_per_trial", "count"},
		metricSpec{"congest.comm_rounds_per_trial", "count"},
		metricSpec{"congest.sim_us_per_trial", "us"},
		metricSpec{"runtime.allocs_per_trial", "count"},
		metricSpec{"runtime.alloc_bytes_per_trial", "B"},
		metricSpec{"runtime.gc_cycles_per_ktrial", "count"},
		metricSpec{"runtime.gc_cpu_fraction", "ratio"},
		metricSpec{"runtime.sched_latency_p99_us", "us"},
		metricSpec{"ledger.measured_ns_per_trial", "ns"},
		metricSpec{"ledger.explained_ns_per_trial", "ns"},
		metricSpec{"ledger.unexplained_ns_per_trial", "ns"},
		metricSpec{"trace.overhead_ratio", "ratio"},
	)
}()

// stealLimit is the hypervisor steal share above which a call is left
// out of the per-call medians, as long as the cleanest third of the
// steady calls (and at least three) remain. A stolen vCPU stalls every
// stop-the-world pause of the whole process, so such a call measures
// the host, not the program.
const stealLimit = 0.05

// phase summarizes one timed phase.
type phase struct {
	kept, steady     int // calls in the medians, steady calls
	trials           int
	wall             time.Duration
	rates, cpuPerK   []float64
	samples, msgs    int
	commRounds       int
	stragglers, retr int
}

func summarize(calls []call) phase {
	var p phase
	var ok []call
	for _, c := range steady(calls) {
		if c.err == nil {
			ok = append(ok, c)
		}
	}
	sort.SliceStable(ok, func(i, j int) bool { return ok[i].steal < ok[j].steal })
	keep := min(len(ok), max(3, (len(ok)+2)/3))
	for keep < len(ok) && ok[keep].steal <= stealLimit {
		keep++
	}
	for _, c := range ok[:keep] {
		p.rates = append(p.rates, float64(c.trials)/c.wall.Seconds())
		p.cpuPerK = append(p.cpuPerK, c.cpu.Seconds()/float64(c.trials)*1000)
	}
	p.kept, p.steady = keep, len(ok)
	for _, c := range calls {
		if c.err != nil {
			continue
		}
		p.trials += c.trials
		p.wall += c.wall
		p.samples += c.samples
		p.msgs += c.messages
		p.commRounds += c.commRounds
		p.stragglers += c.stragglers
		p.retr += c.retries
	}
	return p
}

// rate is the phase's median per-call throughput.
func (p phase) rate() float64 { return median(append([]float64(nil), p.rates...)) }

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport()
	d, err := deploy(w, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var st setupStats
	st.add(d)
	sampler := startRSSSampler()
	steal0, total0 := hostTicks()
	calls := timedLoop(w, d, d.src, seed, 0, budget)
	steal1, total1 := hostTicks()
	samples := sampler.stop()
	d.held.close()
	rep.linef("rss over %d samples: p50 %.2f p90 %.2f max %.2f MB; getrusage high-water mark %.2f MB",
		len(samples), quantile(samples, 0.5), quantile(samples, 0.9), quantile(samples, 1), peakRSSMB())
	if err := moreSetups(w, &st, w.setupReps-1); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := verify(w, d.t, d.src, calls, &rep.check); err != nil {
		return nil, err
	}
	ph := summarize(calls)
	rep.set("trials_per_sec", ph.rate(), "1/s")
	rep.set("setup_s", median(st.total), "s")
	rep.set("cpu_s_per_ktrial", median(ph.cpuPerK), "s")
	// The sustained peak: the RSS the process holds for at least a tenth
	// of the timed calls. The high-water mark tracks single GC overshoot
	// spikes and is too noisy to gate on.
	rep.set("peak_rss_mb", quantile(samples, 0.9), "MB")
	rep.linef("timed %d calls, %d trials in %.3fs; trials_per_sec quartiles %.2f / %.2f / %.2f over the %d of %d steady calls with the least hypervisor steal (all under %.0f%%, or the cleanest third)",
		len(calls), ph.trials, ph.wall.Seconds(),
		quantile(ph.rates, 0.25), quantile(ph.rates, 0.5), quantile(ph.rates, 0.75), ph.kept, ph.steady, 100*stealLimit)
	rep.linef("setup_s over %d set-ups: min %.6f median %.6f max %.6f",
		len(st.total), quantile(st.total, 0), quantile(st.total, 0.5), quantile(st.total, 1))
	rep.linef("acceptance: %s", acceptance(calls))
	rep.linef("host: the hypervisor stole %.1f%% of this VM's CPU time during the timed calls",
		100*stealShare(steal0, total0, steal1, total1))
	return rep, nil
}

// acceptance reports the acceptance rate on U_n (even trials) and on
// nu_z (odd trials): the tester's own sanity, not a gate.
func acceptance(calls []call) string {
	var acc, n [2]int
	for _, c := range calls {
		for j, v := range c.verdicts {
			n[j%2]++
			if v {
				acc[j%2]++
			}
		}
	}
	frac := func(i int) float64 {
		if n[i] == 0 {
			return 0
		}
		return float64(acc[i]) / float64(n[i])
	}
	return fmt.Sprintf("accept(U_n)=%.3f over %d trials, accept(nu_z)=%.3f over %d trials", frac(0), n[0], frac(1), n[1])
}

// runTraced measures the per-layer metrics: an untraced half (runtime
// metrics and the overhead baseline), a traced half with the seams
// wrapped, then the layer probes and the ledger.
func runTraced(w workload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport()
	for _, m := range perLayer {
		rep.set(m.name, 0, m.unit)
	}
	half := budget / 2

	d, err := deploy(w, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var st setupStats
	st.add(d)
	m0 := readRuntime()
	plainCalls := timedLoop(w, d, d.src, seed, 0, half)
	m1 := readRuntime()
	d.held.close()
	plain := summarize(plainCalls)

	rec, err := newRecorder(1 << 18)
	if err != nil {
		return nil, err
	}
	defer rec.release()
	peak := startGoroutinePeak()
	td, err := deploy(w, rec)
	if err != nil {
		peak.stop()
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	var root0, agg0 network.TierCounts
	if td.ins.counting != nil {
		root0, agg0 = settle(td.ins.counting, rec)
	}
	rec.reset()
	tracedCalls := timedLoop(w, td, tracedSource(td.src, rec, td.held, w.chunk()), seed, 1, half)
	var root1, agg1 network.TierCounts
	if td.ins.counting != nil {
		root1, agg1 = settle(td.ins.counting, rec)
	}
	td.held.close()
	goroutines := peak.stop()
	traced := summarize(tracedCalls)

	spanPath := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.csv", w.name, seed))
	if kept, err := rec.writeSpans(spanPath); err != nil {
		rep.linef("trace: spans not written: %v", err)
	} else {
		rep.linef("trace: %d of %d spans written to %s", kept, rec.next.Load(), spanPath)
	}

	probes, err := runProbes(w, d.t, d.src, d.uniform)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if err := moreSetups(w, &st, w.setupReps-1); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := verify(w, d.t, d.src, plainCalls, &rep.check); err != nil {
		return nil, err
	}
	if err := verify(w, d.t, d.src, tracedCalls, &rep.check); err != nil {
		return nil, err
	}
	if traced.trials == 0 || plain.trials == 0 {
		return rep, nil // the gate reports the failure
	}

	// Unit costs.
	rep.set("dist.sample_ns", probes.sampleNs, "ns")
	rep.set("dist.source_us_per_trial", probes.sourceUs, "us")
	rep.set("core.rule_ns_per_call", probes.ruleNs, "ns")
	rep.set("core.rule_allocs_per_call", probes.ruleAllocs, "count")
	rep.set("core.rule_bytes_per_call", probes.ruleBytes, "B")
	rep.set("core.decide_ns_per_trial", probes.decideNs, "ns")
	for _, f := range probeFrames {
		rep.set("wire.encode_ns."+f, probes.encodeNs[f], "ns")
		rep.set("wire.decode_ns."+f, probes.decodeNs[f], "ns")
		rep.set("wire.decode_allocs."+f, probes.decodeAllocs[f], "count")
	}
	rep.set("transport.rtt_us", probes.rttUs, "us")
	rep.set("engine.driver_ns_per_trial", probes.driverNs, "ns")
	rep.set("congest.sim_us_per_trial", probes.simUs, "us")

	// Counts from the traced phase.
	n := float64(traced.trials)
	rep.set("dist.samples_per_trial", float64(traced.samples)/n, "count")
	if w.kind == kindCONGEST {
		rep.set("congest.messages_per_trial", float64(traced.msgs)/n, "count")
		rep.set("congest.comm_rounds_per_trial", float64(traced.commRounds)/n, "count")
	}
	frames := map[string]float64{}
	if w.kind == kindCluster {
		root, agg := tierDelta(root0, root1), tierDelta(agg0, agg1)
		if w.shards <= 1 {
			// A flat star has no aggregator tier: every listener is a
			// worker's root (CountingTransport files the second worker's
			// root under the aggregator tier).
			root = addTiers(root, agg)
			agg = tierCounts{}
		}
		rep.set("transport.frames_per_trial.root_up", root.upTotal()/n, "count")
		rep.set("transport.frames_per_trial.root_down", root.downTotal()/n, "count")
		rep.set("transport.frames_per_trial.agg_up", agg.upTotal()/n, "count")
		rep.set("transport.frames_per_trial.agg_down", agg.downTotal()/n, "count")
		for _, tc := range []tierCounts{root, agg} {
			for f, c := range tc.up {
				frames[f] += float64(c) / n
			}
			for f, c := range tc.down {
				frames[f] += float64(c) / n
			}
		}
		var up, down [2]float64
		for t := range up {
			up[t] = float64(rec.up[t].Load()) / n
			down[t] = float64(rec.down[t].Load()) / n
		}
		rep.set("transport.bytes_per_trial.up", up[0]+up[1], "B")
		rep.set("transport.bytes_per_trial.down", down[0]+down[1], "B")
		// The model's payload is k r-bit messages; players talk to the
		// aggregator tier on a tree and to the root on a flat star.
		players := 0
		if w.shards > 1 {
			players = 1
		}
		rep.set("transport.payload_ratio", up[players]/(float64(w.k*w.r)/8), "ratio")
		rep.linef("bytes per trial by tier: root up %.1f down %.1f, aggregator up %.1f down %.1f",
			up[0], down[0], up[1], down[1])
		rep.set("transport.read_block_us_per_trial", float64(rec.busy[layerRead].Load())/n/1e3, "us")
		rep.set("transport.write_block_us_per_trial", float64(rec.busy[layerWrite].Load())/n/1e3, "us")
		rep.set("network.session_open_s", median(st.open), "s")
		rep.set("network.stragglers_per_trial", float64(traced.stragglers)/n, "count")
		rep.set("network.retries_per_run", float64(traced.retr), "count")
		rep.linef("frames per trial by type: %s", formatFrames(frames))
	}
	rec.mu.Lock()
	chunks := make([]float64, len(rec.chunks))
	for i, c := range rec.chunks {
		chunks[i] = float64(c) / 1e6
	}
	rec.mu.Unlock()
	rep.set("network.chunk_ms_p50", quantile(chunks, 0.5), "ms")
	rep.set("network.chunk_ms_p90", quantile(chunks, 0.9), "ms")
	rep.set("network.chunk_samples", float64(len(chunks)), "count")
	rep.set("network.goroutines_peak", float64(goroutines), "count")
	rep.set("engine.worker_busy_ratio",
		float64(rec.busy[layerChunk].Load())/(float64(w.workers)*float64(traced.wall.Nanoseconds())), "ratio")

	// Runtime metrics over the untraced half.
	pn := float64(plain.trials)
	rep.set("runtime.allocs_per_trial", float64(m1.allocs-m0.allocs)/pn, "count")
	rep.set("runtime.alloc_bytes_per_trial", float64(m1.allocBytes-m0.allocBytes)/pn, "B")
	rep.set("runtime.gc_cycles_per_ktrial", float64(m1.gcCycles-m0.gcCycles)/pn*1000, "count")
	if cpu := m1.totalCPU - m0.totalCPU; cpu > 0 {
		rep.set("runtime.gc_cpu_fraction", (m1.gcCPU-m0.gcCPU)/cpu, "ratio")
	}
	rep.set("runtime.sched_latency_p99_us", schedP99(m0, m1)*1e6, "us")

	rep.set("trace.overhead_ratio", plain.rate()/traced.rate()-1, "ratio")
	rep.linef("trace: untraced %.2f trials/s over %d calls, traced %.2f trials/s over %d calls",
		plain.rate(), len(plain.rates), traced.rate(), len(traced.rates))
	traceLines(rep, w, rec, traced)

	l := buildLedger(w, probes, frames, float64(traced.samples)/n, plain.rate())
	l.emit(rep, w)
	return rep, nil
}

// traceLines prints each traced layer's span time per trial (summed over
// goroutines, so on the cluster it includes time a span's goroutine
// waited to be scheduled) and, for in-process backends whose chunk runs
// its children on the same goroutine, the chunk's self time (its span
// minus its children's).
func traceLines(rep *report, w workload, rec *recorder, traced phase) {
	n := float64(traced.trials)
	var busy [numLayers]float64
	for l := layer(0); l < numLayers; l++ {
		busy[l] = float64(rec.busy[l].Load()) / n
		rep.linef("trace layer %-10s spans %10d  in spans %14.1f ns/trial", layerNames[l], rec.count[l].Load(), busy[l])
	}
	if w.kind != kindCluster {
		rep.linef("trace self chunk (backend orchestration) %.1f ns/trial", busy[layerChunk]-busy[layerSample]-busy[layerRule])
	} else {
		rep.linef("trace self chunk: n/a on the cluster; samples, rules and connection I/O run on node and aggregator goroutines concurrently with the chunk's wait")
	}
}

// settle waits until the last batch's verdict relays have reached the
// players (a chunk returns once the root has decided) by polling the
// frame and byte counts until they stop moving, then returns the
// counts. It gives up after two seconds.
func settle(c *network.CountingTransport, rec *recorder) (root, agg network.TierCounts) {
	deadline := time.Now().Add(2 * time.Second)
	root, agg = c.Snapshot()
	bytes := rec.bytes()
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		r, a := c.Snapshot()
		b := rec.bytes()
		if b == bytes && r.UpTotal() == root.UpTotal() && r.DownTotal() == root.DownTotal() &&
			a.UpTotal() == agg.UpTotal() && a.DownTotal() == agg.DownTotal() {
			break
		}
		root, agg, bytes = r, a, b
	}
	return root, agg
}

// goroutinePeak samples runtime.NumGoroutine until stopped.
type goroutinePeak struct {
	done chan struct{}
	peak chan int
}

func startGoroutinePeak() *goroutinePeak {
	g := &goroutinePeak{done: make(chan struct{}), peak: make(chan int, 1)}
	go func() {
		peak := runtime.NumGoroutine()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.done:
				g.peak <- peak
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return g
}

// stop ends the sampler, waits for it, and returns the peak.
func (g *goroutinePeak) stop() int {
	close(g.done)
	return <-g.peak
}

// tierCounts is a per-frame-name tally of one tier.
type tierCounts struct{ up, down map[string]uint64 }

func tierDelta(a, b network.TierCounts) tierCounts {
	d := tierCounts{up: map[string]uint64{}, down: map[string]uint64{}}
	for f, c := range b.Up {
		if c > a.Up[f] {
			d.up[f.String()] = c - a.Up[f]
		}
	}
	for f, c := range b.Down {
		if c > a.Down[f] {
			d.down[f.String()] = c - a.Down[f]
		}
	}
	return d
}

func addTiers(a, b tierCounts) tierCounts {
	s := tierCounts{up: map[string]uint64{}, down: map[string]uint64{}}
	for _, t := range []tierCounts{a, b} {
		for f, c := range t.up {
			s.up[f] += c
		}
		for f, c := range t.down {
			s.down[f] += c
		}
	}
	return s
}

func (t tierCounts) upTotal() float64   { return sumCounts(t.up) }
func (t tierCounts) downTotal() float64 { return sumCounts(t.down) }

func sumCounts(m map[string]uint64) float64 {
	var s uint64
	for _, c := range m {
		s += c
	}
	return float64(s)
}
