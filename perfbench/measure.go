package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// heldBackend is an engine.BatchBackend around the measured backend
// that hands every worker a scratch opened during set-up and takes it
// back when the worker retires, so cluster sessions stay open across the
// timed engine.Run calls and set-up stays out of the timed region. With
// a recorder it also times every chunk.
type heldBackend struct {
	inner engine.BatchBackend
	free  chan *heldScratch
	rec   *recorder
	call  atomic.Int64 // index of the engine.Run call in progress
}

// heldScratch is one worker's scratch; Close returns it to the pool
// instead of closing the session it holds.
type heldScratch struct {
	inner any
	owner *heldBackend
}

func (s *heldScratch) Close() error {
	s.owner.free <- s
	return nil
}

func (h *heldBackend) Players() int { return h.inner.Players() }

func (h *heldBackend) RunRound(ctx context.Context, spec engine.RoundSpec) (engine.RoundResult, error) {
	return h.inner.RunRound(ctx, spec)
}

// NewScratch hands out a held scratch; set-up opened exactly one per
// engine worker.
func (h *heldBackend) NewScratch() any {
	select {
	case s := <-h.free:
		return s
	default:
		return nil // more workers than set-up opened (an engine.Run bug): surfaces as a foreign scratch
	}
}

func (h *heldBackend) RunRoundScratch(ctx context.Context, spec engine.RoundSpec, scratch any) (engine.RoundResult, error) {
	s, ok := scratch.(*heldScratch)
	if !ok {
		return engine.RoundResult{}, fmt.Errorf("perfbench: foreign scratch %T", scratch)
	}
	return h.inner.RunRoundScratch(ctx, spec, s.inner)
}

func (h *heldBackend) RunRoundsScratch(ctx context.Context, scratch any, specs []engine.RoundSpec, batch int, out []engine.RoundResult) error {
	s, ok := scratch.(*heldScratch)
	if !ok {
		return fmt.Errorf("perfbench: foreign scratch %T", scratch)
	}
	if h.rec == nil {
		return h.inner.RunRoundsScratch(ctx, s.inner, specs, batch, out)
	}
	start := h.rec.now()
	err := h.inner.RunRoundsScratch(ctx, s.inner, specs, batch, out)
	end := h.rec.now()
	h.rec.add(layerChunk, chunkKey(int(h.call.Load()), specs[0].Trial), start, end)
	h.rec.mu.Lock()
	h.rec.chunks = append(h.rec.chunks, time.Duration(end-start))
	h.rec.mu.Unlock()
	return err
}

// close ends every held session.
func (h *heldBackend) close() {
	for {
		select {
		case s := <-h.free:
			if c, ok := s.inner.(io.Closer); ok {
				_ = c.Close() // teardown after every result was read; not a trial failure
			}
		default:
			return
		}
	}
}

// deployment is one set-up of a workload: tester, source, and the
// measured backend with every worker's scratch (and session) open.
type deployment struct {
	t       tester
	src     engine.Source
	uniform *dist.AliasSampler
	held    *heldBackend
	ins     *instrument
	// build is backend construction; open is every worker's first
	// session open (zero for in-process backends).
	build, open time.Duration
}

// setupSeed seeds the one-trial chunk that opens a cluster session; it
// is outside every seed the timed calls use.
const setupSeed = 0x5e70000

// deploy builds the workload and opens one scratch per worker. A
// cluster opens its session lazily on the first chunk, so each worker's
// scratch runs a one-trial chunk here.
func deploy(w workload, rec *recorder) (*deployment, error) {
	start := time.Now()
	t, err := w.newTester()
	if err != nil {
		return nil, err
	}
	src, uniform, err := w.newSource()
	if err != nil {
		return nil, err
	}
	var ins *instrument
	if rec != nil {
		ins = &instrument{rec: rec}
	}
	b, err := w.newBackend(t, ins)
	if err != nil {
		return nil, err
	}
	held := &heldBackend{inner: b, free: make(chan *heldScratch, w.workers), rec: rec}
	d := &deployment{t: t, src: src, uniform: uniform, held: held, ins: ins}
	d.build = time.Since(start)
	for i := 0; i < w.workers; i++ {
		s := b.NewScratch()
		if w.kind == kindCluster {
			specs := []engine.RoundSpec{{Trial: 0, Seed: setupSeed, Sampler: uniform}}
			out := make([]engine.RoundResult, 1)
			if err := b.RunRoundsScratch(context.Background(), s, specs, w.batch, out); err != nil {
				held.free <- &heldScratch{inner: s, owner: held}
				held.close()
				return nil, fmt.Errorf("opening worker %d's session: %w", i, err)
			}
		}
		held.free <- &heldScratch{inner: s, owner: held}
	}
	d.open = time.Since(start) - d.build
	return d, nil
}

// setupStats is the repeated set-up measurement, in seconds.
type setupStats struct {
	total, open []float64
}

func (st *setupStats) add(d *deployment) {
	st.total = append(st.total, (d.build + d.open).Seconds())
	st.open = append(st.open, d.open.Seconds())
}

// moreSetups sets the workload up and tears it down n more times. It
// runs after the timed phase, so neither the timed heap nor the peak RSS
// carries the extra deployments' garbage.
func moreSetups(w workload, st *setupStats, n int) error {
	for i := 0; i < n; i++ {
		d, err := deploy(w, nil)
		if err != nil {
			return err
		}
		st.add(d)
		d.held.close()
	}
	return nil
}

// call is one timed engine.Run call.
type call struct {
	seed     uint64
	trials   int
	verdicts []bool
	wall     time.Duration
	cpu      time.Duration
	steal    float64 // share of the VM's CPU time the hypervisor stole during the call
	err      error
	// Sums of the per-trial accounting.
	samples, messages, commRounds, stragglers, retries int
}

// callSeed derives call i's engine seed from the run seed (splitmix64),
// so the same --seed gives the same inputs call by call.
func callSeed(seed uint64, phase, i int) uint64 {
	z := seed + uint64(phase)<<40 + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// timedLoop repeats engine.Run calls of w.callTrials trials until the
// budget is spent (at least two calls).
func timedLoop(w workload, d *deployment, src engine.Source, seed uint64, phase int, budget time.Duration) []call {
	// Collect set-up garbage first, so the GC pacer starts from the
	// deployment's live heap rather than from whatever set-up left.
	runtime.GC()
	var calls []call
	start := time.Now()
	for i := 0; len(calls) < 2 || time.Since(start) < budget; i++ {
		c := call{seed: callSeed(seed, phase, i), trials: w.callTrials}
		d.held.call.Store(int64(i))
		if d.held.rec != nil {
			d.held.rec.mu.Lock()
			d.held.rec.seeds[uint64(i)] = c.seed
			d.held.rec.mu.Unlock()
		}
		opts := engine.Options{Seed: c.seed, Workers: w.workers, Batch: w.batch, Window: w.window}
		steal0, total0 := hostTicks()
		cpu0 := cpuTime()
		t0 := time.Now()
		res, err := engine.Run(context.Background(), d.held, src, c.trials, opts)
		c.wall = time.Since(t0)
		c.cpu = cpuTime() - cpu0
		steal1, total1 := hostTicks()
		c.steal = stealShare(steal0, total0, steal1, total1)
		c.err = err
		if err == nil {
			c.verdicts = make([]bool, len(res))
			for j, r := range res {
				c.verdicts[j] = r.Verdict
				c.samples += r.Samples
				c.messages += r.Messages
				c.commRounds += r.CommRounds
				c.stragglers += r.Stragglers
				c.retries += r.Retries
			}
		}
		calls = append(calls, c)
		if err != nil {
			break // the correctness gate reports it; later calls would time a broken session
		}
	}
	return calls
}

// steady drops the first call as warm-up when enough calls remain.
func steady(calls []call) []call {
	if len(calls) >= 4 {
		return calls[1:]
	}
	return calls
}

// correctness is the verdict gate's tally.
type correctness struct {
	attempted, failed, mismatch int
	firstBad                    string
}

func (c correctness) ok() bool { return c.attempted > 0 && c.failed == 0 && c.mismatch == 0 }

func (c correctness) failedRatio() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// verify replays every timed call on the reference backend with the
// same seed, outside the timed region, and compares verdicts.
func verify(w workload, t tester, src engine.Source, calls []call, c *correctness) error {
	ref, opts, err := w.reference(t)
	if err != nil {
		return err
	}
	for i, cl := range calls {
		c.attempted += cl.trials
		if cl.err != nil {
			c.failed += cl.trials
			if c.firstBad == "" {
				c.firstBad = fmt.Sprintf("call %d (engine seed %#x): %v", i, cl.seed, cl.err)
			}
			continue
		}
		opts.Seed = cl.seed
		want, err := engine.Run(context.Background(), ref, src, cl.trials, opts)
		if err != nil {
			return fmt.Errorf("reference run for engine seed %#x: %w", cl.seed, err)
		}
		for j, r := range want {
			if r.Verdict == cl.verdicts[j] {
				continue
			}
			c.mismatch++
			if c.firstBad == "" {
				c.firstBad = fmt.Sprintf("call %d (engine seed %#x) trial %d: measured accept=%v, reference accept=%v",
					i, cl.seed, j, cl.verdicts[j], r.Verdict)
			}
		}
	}
	return nil
}

// hostTicks reads the aggregate "cpu" line of /proc/stat: the jiffies
// the hypervisor stole from this VM's vCPUs, and all jiffies (user
// through steal; guest time is already inside user).
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of the VM's CPU time the hypervisor stole
// between two hostTicks readings. On a shared host it explains runs
// that read slow for reasons outside the program.
func stealShare(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler reads the process's resident set size from
// /proc/self/statm every 10ms until stopped.
type rssSampler struct {
	done    chan struct{}
	samples chan []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{done: make(chan struct{}), samples: make(chan []float64, 1)}
	page := float64(os.Getpagesize())
	go func() {
		var out []float64
		sample := func() {
			data, err := os.ReadFile("/proc/self/statm")
			if err != nil {
				return
			}
			var size, resident float64
			if _, err := fmt.Sscan(string(data), &size, &resident); err == nil {
				out = append(out, resident*page/(1<<20))
			}
		}
		sample()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				sample()
				s.samples <- out
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return s
}

// stop ends the sampler, waits for it, and returns the samples in MiB.
func (s *rssSampler) stop() []float64 {
	close(s.done)
	return <-s.samples
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a snapshot of the runtime/metrics the report uses.
type runtimeSample struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
	sched                        *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
		sched:      s[5].Value.Float64Histogram(),
	}
}

// schedP99 is the 99th percentile of the scheduling latencies observed
// between two snapshots, in seconds (bucket upper bound).
func schedP99(a, b runtimeSample) float64 {
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen >= target {
			hi := b.sched.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.sched.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// median of xs (xs is reordered).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (xs is reordered).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}
