package centralized

import (
	"fmt"
	"math"
	"sync"
)

// counters is a zeroed per-element count array, reused across kernel
// calls through counterPool. Every call resets exactly the entries it
// touched before putting the array back, so the pool only ever holds
// zeroed arrays and a call's cost is O(q), independent of the domain.
type counters struct{ h []int64 }

var counterPool sync.Pool

// CollisionCount returns the number of colliding sample pairs,
// sum_i C(c_i, 2) over the histogram counts c_i, computed in O(q) time
// with no allocation once the pooled counters cover the domain.
//
//dut:hotpath every collision-based local rule evaluates this per player per trial
func CollisionCount(samples []int, n int) (int64, error) {
	return CountCollisions(samples, n)
}

// CountCollisions is CollisionCount over any integer sample type: the
// one collision kernel, shared by the sample-based testers, both
// collision local rules and the ACT referee's bucket messages. Each
// sample s adds the count of earlier copies of s, h[s], before h[s] is
// incremented, so the running sum is sum_i C(c_i, 2) without ever
// scanning the domain.
func CountCollisions[S ~int | ~uint64](samples []S, n int) (int64, error) {
	size := max(n, 0)
	c, _ := counterPool.Get().(*counters)
	if c == nil || len(c.h) < size {
		// Pool miss or a domain larger than the pooled array: the only
		// allocation, amortized over every later call at this size.
		c = new(counters)
		c.h = make([]int64, size)
	}
	h := c.h[:size]
	var coll int64
	for i, s := range samples {
		if uint64(s) >= uint64(size) {
			release(c, h, samples[:i])
			return 0, fmt.Errorf("centralized: dist: sample %d outside domain of size %d", s, n)
		}
		coll += h[s]
		h[s]++
	}
	release(c, h, samples)
	return coll, nil
}

// release zeroes the counters the touched samples incremented and
// returns the array to the pool.
func release[S ~int | ~uint64](c *counters, h []int64, touched []S) {
	for _, s := range touched {
		h[s] = 0
	}
	counterPool.Put(c)
}

// CollisionStatistic adapts CollisionCount to the Statistic type for a
// fixed domain size.
func CollisionStatistic(n int) Statistic {
	return func(samples []int) (float64, error) {
		c, err := CollisionCount(samples, n)
		return float64(c), err
	}
}

// CollisionTester is the Goldreich-Ron collision-based uniformity tester:
// accept iff the number of colliding pairs among q samples is at most a
// threshold. Under U_n the expected count is C(q,2)/n; under any
// distribution eps-far from uniform in L1 it is at least C(q,2)(1+eps^2)/n,
// because ||mu||_2^2 >= (1 + eps^2)/n by Cauchy-Schwarz. With
// q = Theta(sqrt(n)/eps^2) samples the two cases separate with constant
// probability [Paninski 2008].
type CollisionTester struct {
	n         int
	q         int
	eps       float64
	threshold float64
}

var _ Tester = (*CollisionTester)(nil)

// NewCollisionTester builds the tester with its closed-form threshold,
// halfway between the uniform and eps-far expected collision counts.
func NewCollisionTester(n, q int, eps float64) (*CollisionTester, error) {
	if n <= 0 {
		return nil, fmt.Errorf("centralized: collision tester over domain %d", n)
	}
	if q < 2 {
		return nil, fmt.Errorf("centralized: collision tester needs q >= 2, got %d", q)
	}
	if eps <= 0 || eps > 2 {
		return nil, fmt.Errorf("centralized: collision tester eps %v outside (0,2]", eps)
	}
	pairs := float64(q) * float64(q-1) / 2
	threshold := pairs / float64(n) * (1 + eps*eps/2)
	return &CollisionTester{n: n, q: q, eps: eps, threshold: threshold}, nil
}

// NewCollisionTesterWithThreshold builds the tester with an explicitly
// calibrated threshold (see CalibrateThreshold).
func NewCollisionTesterWithThreshold(n, q int, eps, threshold float64) (*CollisionTester, error) {
	t, err := NewCollisionTester(n, q, eps)
	if err != nil {
		return nil, err
	}
	if threshold < 0 {
		return nil, fmt.Errorf("centralized: negative collision threshold %v", threshold)
	}
	t.threshold = threshold
	return t, nil
}

// RecommendedSamples returns the sample size at which the collision tester
// separates uniform from eps-far with probability at least 2/3:
// c * sqrt(n)/eps^2 with a constant validated by the E5 experiment.
func RecommendedSamples(n int, eps float64) int {
	return int(6*math.Sqrt(float64(n))/(eps*eps)) + 2
}

// N returns the domain size.
func (t *CollisionTester) N() int { return t.n }

// SampleSize returns the sample count q the tester was built for.
func (t *CollisionTester) SampleSize() int { return t.q }

// Eps returns the proximity parameter.
func (t *CollisionTester) Eps() float64 { return t.eps }

// Threshold returns the acceptance threshold on the collision count.
func (t *CollisionTester) Threshold() float64 { return t.threshold }

// Test accepts iff the collision count is at most the threshold.
func (t *CollisionTester) Test(samples []int) (bool, error) {
	c, err := CollisionCount(samples, t.n)
	if err != nil {
		return false, err
	}
	return float64(c) <= t.threshold, nil
}
