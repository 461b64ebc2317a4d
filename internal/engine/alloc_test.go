package engine_test

// Allocation guards for the batched sampling pipeline: the SMP hot path
// must stay within the budget BENCH_engine.json records (the ISSUE-3
// acceptance bar is <= 5 allocs per trial, down from 15), and the
// scratch round itself must be allocation-free in steady state. The
// assertions are skipped under the race detector, whose instrumentation
// allocates on its own account.

import (
	"context"
	"testing"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// maxSMPTrialAllocs is the acceptance bar for the full driver path:
// per-trial allocations of engine.Run over the SMP scratch backend.
const maxSMPTrialAllocs = 5.0

func smpAllocBackend(t *testing.T) engine.Backend {
	t.Helper()
	p, err := core.NewSMP(xbPlayers, xbSamples, xbRule(), core.BitReferee{Rule: core.ThresholdRule{T: 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.BackendFor(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEngineSMPTrialAllocs measures the amortized per-trial allocation
// count of the whole driver (worker pool, source, scratch round) and
// holds it to the acceptance bar.
func TestEngineSMPTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b := smpAllocBackend(t)
	u := xbSource(t)
	const trials = 2000
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := engine.Run(context.Background(), b, u, trials,
			engine.Options{Seed: xbSeed, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	perTrial := allocs / trials
	t.Logf("engine.Run over SMP: %.3f allocs/trial (%.0f total for %d trials)", perTrial, allocs, trials)
	if perTrial > maxSMPTrialAllocs {
		t.Fatalf("SMP hot path allocates %.3f per trial, budget %.0f", perTrial, maxSMPTrialAllocs)
	}
}

// TestSMPScratchRoundAllocs holds the steady-state scratch round itself
// to zero allocations: buffers, votes and generators all come from the
// per-worker scratch.
func TestSMPScratchRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sb, ok := smpAllocBackend(t).(engine.ScratchBackend)
	if !ok {
		t.Fatal("SMP backend does not implement engine.ScratchBackend")
	}
	src := xbSource(t)
	sampler, err := src(0, engine.TrialRNG(xbSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	scratch := sb.NewScratch()
	ctx := context.Background()
	trial := 0
	allocs := testing.AllocsPerRun(200, func() {
		spec := engine.RoundSpec{Trial: trial, Seed: xbSeed, Sampler: sampler}
		trial++
		if _, err := sb.RunRoundScratch(ctx, spec, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("scratch round allocates %.2f per round, want 0", allocs)
	}
}

// TestSMPScratchRoundAllocsFMO is TestSMPScratchRoundAllocs with the
// paper's real tester instead of a constant rule: the FMO threshold
// tester at the E1 shape, whose every player runs the collision kernel.
func TestSMPScratchRoundAllocsFMO(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 4096
	p, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: 64, Q: 322, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.BackendFor(p)
	if err != nil {
		t.Fatal(err)
	}
	sb, ok := b.(engine.ScratchBackend)
	if !ok {
		t.Fatal("SMP backend does not implement engine.ScratchBackend")
	}
	u, err := dist.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.FromDist(u)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := src(0, engine.TrialRNG(xbSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	scratch := sb.NewScratch()
	ctx := context.Background()
	trial := 0
	allocs := testing.AllocsPerRun(100, func() {
		spec := engine.RoundSpec{Trial: trial, Seed: xbSeed, Sampler: sampler}
		trial++
		if _, err := sb.RunRoundScratch(ctx, spec, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("FMO scratch round allocates %.2f per round, want 0", allocs)
	}
}
