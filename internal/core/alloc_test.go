package core

import (
	"math/rand/v2"
	"testing"
)

// Allocation guards for the paper's real local rules. Both collision
// rules reach the pooled centralized.CollisionCount kernel through
// CollisionStatistic, so a rule call must not allocate once the pool is
// warm. Skipped under the race detector, whose instrumentation
// allocates.

// ruleAllocs measures one rule's steady-state allocations per Message
// call on q samples over [n].
func ruleAllocs(t *testing.T, rule LocalRule, n, q int) float64 {
	t.Helper()
	rng := rand.New(rand.NewPCG(3, 4))
	samples := make([]int, q)
	for i := range samples {
		samples[i] = rng.IntN(n)
	}
	return testing.AllocsPerRun(200, func() {
		if _, err := rule.Message(0, samples, 17, rng); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuantizedCollisionRuleZeroAllocs guards Theorem 6.4's r-bit rule
// at the E22 shape (n = 64, q = 4, r = 3).
func TestQuantizedCollisionRuleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rule, err := NewQuantizedCollisionRule(64, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := ruleAllocs(t, rule, 64, 4); allocs != 0 {
		t.Fatalf("QuantizedCollisionRule.Message allocates %.1f per call, want 0", allocs)
	}
}

// TestThresholdVoteRuleZeroAllocs guards the FMO threshold tester's
// local vote rule at the E1 shape (n = 4096, k = 64, q = 322).
func TestThresholdVoteRuleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	p, err := NewThresholdTester(ThresholdTesterConfig{N: 4096, K: 64, Q: 322, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := ruleAllocs(t, p.Local(), 4096, 322); allocs != 0 {
		t.Fatalf("threshold tester's Local().Message allocates %.1f per call, want 0", allocs)
	}
}
