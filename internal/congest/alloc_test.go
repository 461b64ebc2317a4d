package congest

import (
	"context"
	"math/rand/v2"
	"testing"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// Allocation guards for the CONGEST scratch path: a steady-state trial —
// sampling, voting, BFS-tree aggregation on the simulator, verdict
// broadcast — must not touch the allocator at all. Every piece of
// per-trial state (node status slices, outbox/inbox slots, wake sets,
// explorer scratch, the verdict sink) lives on the worker's reusable
// scratch.

func allocTester(t *testing.T) *Tester {
	t.Helper()
	g, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	return allocTesterOn(t, g)
}

func allocTesterOn(t *testing.T, g *Graph) *Tester {
	t.Helper()
	rule := core.RuleFunc(func(player int, samples []int, shared uint64, private *rand.Rand) (core.Message, error) {
		h := shared ^ uint64(player)*0x9e3779b97f4a7c15
		for _, s := range samples {
			h = h*1099511628211 + uint64(s)
		}
		h ^= private.Uint64()
		if h&1 == 0 {
			return core.Accept, nil
		}
		return core.Reject, nil
	})
	tester, err := NewTester(TesterConfig{Graph: g, Root: 0, Q: 3, Rule: rule, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	return tester
}

func allocSampler(t *testing.T) dist.Sampler {
	t.Helper()
	u, err := dist.Uniform(16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dist.NewAliasSampler(u)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCONGESTScratchRunAllocs holds the steady-state seeded run to zero
// allocations (the pre-position-indexed simulator spent 17 per trial on
// status maps, explorer slices and the escaping verdict). Complete(5)
// keeps every node active in every round; Grid(8,8) keeps most nodes
// asleep in most rounds, so it holds the wake sets and the partial inbox
// clears to zero too.
func TestCONGESTScratchRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	complete, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Grid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{{"complete5", complete}, {"grid8x8", grid}} {
		t.Run(tc.name, func(t *testing.T) {
			tester := allocTesterOn(t, tc.g)
			sampler := allocSampler(t)
			sc := tester.newScratch()
			shared := uint64(0)
			allocs := testing.AllocsPerRun(200, func() {
				shared++
				if _, _, err := tester.runSeededScratch(sampler, shared, sc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("CONGEST scratch run allocates %.2f per trial, want 0", allocs)
			}
		})
	}
}

// TestCONGESTBatchChunkAllocs holds the full batched backend chunk to
// zero steady-state allocations per trial.
func TestCONGESTBatchChunkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b, err := NewBackend(allocTester(t))
	if err != nil {
		t.Fatal(err)
	}
	bb, ok := b.(engine.BatchBackend)
	if !ok {
		t.Fatal("CONGEST backend does not implement engine.BatchBackend")
	}
	sampler := allocSampler(t)
	const chunk = 16
	specs := make([]engine.RoundSpec, chunk)
	out := make([]engine.RoundResult, chunk)
	for i := range specs {
		specs[i] = engine.RoundSpec{Trial: i, Seed: 0xfeedface, Sampler: sampler}
	}
	scratch := bb.NewScratch()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		if err := bb.RunRoundsScratch(ctx, scratch, specs, chunk, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("CONGEST batched chunk allocates %.2f per chunk, want 0", allocs)
	}
}
