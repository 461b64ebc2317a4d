package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"time"

	"github.com/distributed-uniformity/dut/internal/congest"
	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/network"
)

// Layer probes measure one unit cost each from outside the program,
// through the layer's public functions, at the workload's own n, q, r,
// k, batch and frame sizes. Each probe times repeated batches of the
// operation and reports the fastest batch's cost per operation: on a
// shared host, interference only ever adds time.

// probeFrames are the wire frames the probes encode and decode: the
// batch frames every cluster run sends plus the tree's two aggregator
// frames (a sum-shaped referee makes the tree send AGG_SUM).
var probeFrames = []string{"ROUND_BATCH", "VOTE_BATCH_R", "VERDICT_BATCH", "AGG_SUM", "AGG_VERDICT"}

// probeResult holds every unit cost; times in ns unless named otherwise.
type probeResult struct {
	sampleNs, sourceUs, ruleNs, ruleAllocs, ruleBytes, decideNs float64
	encodeNs, decodeNs, decodeAllocs                            map[string]float64
	rttUs, driverNs, simUs                                      float64
}

// probeReps is the number of timed batches per probe; probeBatch is
// the target duration of one batch.
const (
	probeReps  = 7
	probeBatch = 15 * time.Millisecond
)

// timePerOp calibrates how many op calls fill probeBatch, then returns
// the fastest of probeReps batches' time per call in ns.
func timePerOp(op func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if el := time.Since(start); el >= probeBatch/4 || n >= 1<<24 {
			n = int(float64(n) * float64(probeBatch) / float64(max(el, time.Microsecond)))
			break
		}
		n *= 4
	}
	n = max(n, 1)
	per := make([]float64, probeReps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return quantile(per, 0)
}

// allocsPerOp is the heap objects and bytes one op call allocates,
// from runtime.MemStats over n calls (as testing.AllocsPerRun counts).
func allocsPerOp(n int, op func()) (objects, bytes float64) {
	op() // let lazily built state settle
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// runProbes measures every unit cost for workload w. Probes run after
// the timed phases, with no session open.
func runProbes(w workload, t tester, src engine.Source, uniform *dist.AliasSampler) (probeResult, error) {
	var p probeResult
	rng := rand.New(rand.NewPCG(1, 2))
	runtime.GC() // no background marking of the closed sessions' garbage while probing

	// dist: AliasSampler.SampleInto over one player's q samples.
	buf := make([]int, w.q)
	p.sampleNs = timePerOp(func() { uniform.SampleInto(buf, rng) }) / float64(w.q)

	// dist: the engine.Source per trial, even (U_n) and odd (nu_z) alike.
	trialRNG := engine.NewReusableRNG()
	trial := 0
	var srcErr error
	p.sourceUs = timePerOp(func() {
		for i := 0; i < 2; i++ {
			if _, err := src(trial, trialRNG.SeedTrial(7, trial)); err != nil {
				srcErr = err
			}
			trial++
		}
	}) / 2 / 1e3
	if srcErr != nil {
		return p, srcErr
	}

	// core: LocalRule.Message on pre-drawn samples, half from U_n and
	// half from nu_z draws, as in the workload.
	const players = 64
	draws := make([][]int, players)
	for i := range draws {
		s, err := src(i, trialRNG.SeedTrial(11, i))
		if err != nil {
			return p, err
		}
		draws[i] = dist.SampleN(s, w.q, rng)
	}
	shared := engine.SharedSeed(3, 0)
	var ruleErr error
	player := 0
	ruleOp := func() {
		if _, err := t.rule.Message(player, draws[player%players], shared, rng); err != nil {
			ruleErr = err
		}
		player++
	}
	p.ruleNs = timePerOp(ruleOp)
	p.ruleAllocs, p.ruleBytes = allocsPerOp(4096, ruleOp)
	if ruleErr != nil {
		return p, ruleErr
	}

	// core: Referee.Decide over k messages the rule produced.
	msgs := make([]core.Message, w.k)
	for i := range msgs {
		m, err := t.rule.Message(i, draws[i%players], shared, rng)
		if err != nil {
			return p, err
		}
		msgs[i] = m
	}
	var decideErr error
	p.decideNs = timePerOp(func() {
		if _, err := t.referee.Decide(msgs); err != nil {
			decideErr = err
		}
	})
	if decideErr != nil {
		return p, decideErr
	}

	if err := probeWire(w, &p); err != nil {
		return p, err
	}
	rtt, err := probeRTT(w)
	if err != nil {
		return p, err
	}
	p.rttUs = rtt
	if p.driverNs, err = probeDriver(w, uniform); err != nil {
		return p, err
	}
	if w.kind == kindCONGEST {
		if p.simUs, err = probeSim(w, t); err != nil {
			return p, err
		}
	}
	return p, nil
}

// frameSizes are the workload's frame dimensions: trials per batch,
// shards, players per shard and the AGG_SUM counter planes.
func frameSizes(w workload) (count, shards, members, planes int) {
	count = w.batch
	shards = max(w.shards, 1)
	members = (w.k + shards - 1) / shards
	planes = bits.Len(uint(members * (1<<w.r - 1)))
	return
}

// maskedWords is words bitset words of pseudo-random content with the
// padding above count cleared, as the validators demand.
func maskedWords(rng *rand.Rand, planes, count int) []uint64 {
	words := (count + 63) / 64
	out := make([]uint64, planes*words)
	for i := range out {
		out[i] = rng.Uint64()
	}
	if rem := count % 64; rem != 0 {
		for p := 0; p < planes; p++ {
			out[(p+1)*words-1] &= 1<<rem - 1
		}
	}
	return out
}

// probeWire times the public encoders and ReadFrame for every probe
// frame at the workload's sizes.
func probeWire(w workload, p *probeResult) error {
	count, shards, members, planes := frameSizes(w)
	rng := rand.New(rand.NewPCG(5, 6))
	seeds := make([]uint64, count)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	present := make([]uint32, shards)
	for i := range present {
		present[i] = uint32(members)
	}
	vote := network.VoteBatchR{Player: 1, Batch: 9, Count: uint32(count), Bits: uint8(w.r), Planes: maskedWords(rng, w.r, count)}
	verdicts := network.VerdictBatch{Batch: 9, Count: uint32(count), Bits: maskedWords(rng, 1, count)}
	sum := network.AggSum{
		Agg: 0, Batch: 9, Count: uint32(count), Bits: uint8(w.r), Planes: uint8(planes),
		Present: uint32(members), Sums: maskedWords(rng, planes, count),
	}
	aggVerdict := network.AggVerdict{Batch: 9, Count: uint32(count), Present: present, Bits: maskedWords(rng, 1, count)}
	var out bytes.Buffer
	enc := map[string]func(buf []byte) ([]byte, error){
		"ROUND_BATCH": func(buf []byte) ([]byte, error) {
			return network.AppendRoundBatch(buf, network.RoundBatch{Batch: 9, Seeds: seeds})
		},
		// VOTE_BATCH_R has only a Write* encoder: it writes into a reused
		// buffer.
		"VOTE_BATCH_R": func(buf []byte) ([]byte, error) {
			out.Reset()
			err := network.WriteVoteBatchR(&out, vote)
			return append(buf, out.Bytes()...), err
		},
		"VERDICT_BATCH": func(buf []byte) ([]byte, error) {
			return network.AppendVerdictBatch(buf, verdicts)
		},
		"AGG_SUM": func(buf []byte) ([]byte, error) {
			return network.AppendAggSum(buf, sum)
		},
		"AGG_VERDICT": func(buf []byte) ([]byte, error) {
			return network.AppendAggVerdict(buf, aggVerdict)
		},
	}
	p.encodeNs = map[string]float64{}
	p.decodeNs = map[string]float64{}
	p.decodeAllocs = map[string]float64{}
	for _, name := range probeFrames {
		encode := enc[name]
		frame, err := encode(nil)
		if err != nil {
			return fmt.Errorf("encoding %s: %w", name, err)
		}
		buf := make([]byte, 0, len(frame))
		p.encodeNs[name] = timePerOp(func() {
			var eerr error
			if buf, eerr = encode(buf[:0]); eerr != nil {
				err = eerr
			}
		})
		if err != nil {
			return fmt.Errorf("encoding %s: %w", name, err)
		}
		r := bytes.NewReader(frame)
		decode := func() {
			r.Reset(frame)
			if _, _, derr := network.ReadFrame(r); derr != nil {
				err = derr
			}
		}
		p.decodeNs[name] = timePerOp(decode)
		p.decodeAllocs[name], _ = allocsPerOp(1024, decode)
		if err != nil {
			return fmt.Errorf("decoding %s: %w", name, err)
		}
	}
	return nil
}

// probeRTT echoes one VOTE_BATCH_R-sized frame over the workload's
// transport (MemTransport where the workload has none) and returns the
// median round trip in microseconds.
func probeRTT(w workload) (float64, error) {
	count, _, _, _ := frameSizes(w)
	size := 8 + 13 + 8*w.r*((count+63)/64)
	tr := w.newTransport()
	l, err := tr.Listen()
	if err != nil {
		return 0, err
	}
	defer l.Close()
	echoDone := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoDone <- err
			return
		}
		defer c.Close()
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				echoDone <- nil // the client closed: done
				return
			}
			if _, err := c.Write(buf); err != nil {
				echoDone <- err
				return
			}
		}
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	frame := make([]byte, size)
	back := make([]byte, size)
	var rttErr error
	rtt := timePerOp(func() {
		if _, err := c.Write(frame); err != nil {
			rttErr = err
			return
		}
		if _, err := io.ReadFull(c, back); err != nil {
			rttErr = err
		}
	})
	c.Close()
	if err := <-echoDone; err != nil {
		return 0, err
	}
	return rtt / 1e3, rttErr
}

// noopBackend is an engine.BatchBackend that does no protocol work: it
// isolates engine.Run's own cost per trial.
type noopBackend struct{ k int }

func (b noopBackend) Players() int    { return b.k }
func (b noopBackend) NewScratch() any { return nil }

func (b noopBackend) RunRound(context.Context, engine.RoundSpec) (engine.RoundResult, error) {
	return engine.RoundResult{Verdict: true}, nil
}

func (b noopBackend) RunRoundScratch(ctx context.Context, spec engine.RoundSpec, _ any) (engine.RoundResult, error) {
	return b.RunRound(ctx, spec)
}

func (b noopBackend) RunRoundsScratch(_ context.Context, _ any, _ []engine.RoundSpec, _ int, out []engine.RoundResult) error {
	for i := range out {
		out[i] = engine.RoundResult{Verdict: true}
	}
	return nil
}

// probeDriver is engine.Run's cost per trial over the no-op backend at
// the workload's batch, window and worker count.
func probeDriver(w workload, uniform *dist.AliasSampler) (float64, error) {
	trials := 64 * w.chunk() * w.workers
	src := engine.Fixed(uniform)
	opts := engine.Options{Workers: w.workers, Batch: w.batch, Window: w.window}
	var err error
	per := timePerOp(func() {
		if _, rerr := engine.Run(context.Background(), noopBackend{k: w.k}, src, trials, opts); rerr != nil {
			err = rerr
		}
	})
	return per / float64(trials), err
}

// probeSim is the CONGEST simulator's cost per trial: the same grid and
// threshold with a constant core.RuleFunc and a no-op sampler, so only
// BFS, convergecast and broadcast remain. One worker: a single core's
// cost.
func probeSim(w workload, t tester) (float64, error) {
	g, err := congest.Grid(w.gridSide, w.gridSide)
	if err != nil {
		return 0, err
	}
	accept := core.RuleFunc(func(int, []int, uint64, *rand.Rand) (core.Message, error) { return 1, nil })
	ct, err := congest.NewTester(congest.TesterConfig{Graph: g, Root: 0, Q: w.q, Rule: accept, T: t.t})
	if err != nil {
		return 0, err
	}
	b, err := congest.NewBackend(ct)
	if err != nil {
		return 0, err
	}
	trials := 2 * w.chunk()
	opts := engine.Options{Workers: 1, Batch: w.batch, Window: w.window}
	src := engine.Fixed(dist.NopSampler{})
	per := timePerOp(func() {
		if _, rerr := engine.Run(context.Background(), b, src, trials, opts); rerr != nil {
			err = rerr
		}
	})
	return per / float64(trials) / 1e3, err
}
