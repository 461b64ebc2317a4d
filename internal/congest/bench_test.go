package congest

import (
	"testing"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
)

// BenchmarkSimulatorGrid times one steady-state scratch trial at the
// congest-grid benchmark shape: the FMO18 threshold tester on a 32x32
// grid (n = k = 1024, q = 42, T = 512) rooted at node 0, sampling the
// uniform distribution. It covers sampling, the local rule and the
// simulator's BFS, convergecast and broadcast rounds.
func BenchmarkSimulatorGrid(b *testing.B) {
	const (
		side = 32
		k    = side * side
		q    = 42
	)
	g, err := Grid(side, side)
	if err != nil {
		b.Fatal(err)
	}
	smp, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: k, K: k, Q: q, Eps: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	tester, err := NewTester(TesterConfig{Graph: g, Root: 0, Q: q, Rule: smp.Local(), T: core.DefaultThresholdT(k)})
	if err != nil {
		b.Fatal(err)
	}
	u, err := dist.Uniform(k)
	if err != nil {
		b.Fatal(err)
	}
	sampler, err := dist.NewAliasSampler(u)
	if err != nil {
		b.Fatal(err)
	}
	sc := tester.newScratch()
	if _, _, err := tester.runSeededScratch(sampler, 0, sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tester.runSeededScratch(sampler, uint64(i)+1, sc); err != nil {
			b.Fatal(err)
		}
	}
}
