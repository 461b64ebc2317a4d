package main

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"time"

	"github.com/distributed-uniformity/dut/internal/congest"
	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/network"
)

// Backend kinds.
const (
	kindSMP     = "smp"
	kindCluster = "cluster"
	kindCONGEST = "congest"
)

// workload is one benchmark input: the tester, its parameters, the
// backend that runs it and the engine's batch geometry.
type workload struct {
	name string
	kind string
	// Tester parameters: domain n, players k, samples per player q,
	// message bits r, proximity eps.
	n, k, q, r int
	eps        float64
	// Cluster topology: L1 aggregators (0 = flat star) and transport
	// ("tcp" or "mem"); CONGEST grid side.
	shards    int
	transport string
	gridSide  int
	// Engine geometry.
	batch, window, workers int
	// callTrials is the trial count of one engine.Run call; the timed
	// loop repeats calls until the run's seconds are spent and reports
	// per-call medians.
	callTrials int
	// setupReps is how many times setup is repeated (median reported).
	setupReps int
}

var workloads = []workload{
	{
		name: "smp-e1",
		kind: kindSMP, n: 4096, k: 64, q: 322, r: 1, eps: 0.5,
		batch: 16, window: 1, workers: 2, callTrials: 256, setupReps: 201,
	},
	{
		name: "flat-tcp-e22",
		kind: kindCluster, n: 64, k: 1024, q: 4, r: 3, eps: 0.5, transport: "tcp",
		batch: 256, window: 4, workers: 2, callTrials: 2048, setupReps: 7,
	},
	{
		name: "tree-10k-e22",
		kind: kindCluster, n: 64, k: 10000, q: 4, r: 3, eps: 0.5, transport: "mem", shards: 16,
		batch: 64, window: 2, workers: 1, callTrials: 128, setupReps: 7,
	},
	{
		name: "congest-grid",
		kind: kindCONGEST, n: 1024, k: 1024, q: 42, r: 1, eps: 0.5, gridSide: 32,
		batch: 4, window: 1, workers: 2, callTrials: 32, setupReps: 101,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// chunk is the engine's scheduling unit for this workload.
func (w workload) chunk() int { return w.batch * w.window }

// ell is the hard instance's cube dimension: n = 2^(ell+1).
func (w workload) ell() (int, error) {
	if w.n < 2 || w.n&(w.n-1) != 0 {
		return 0, fmt.Errorf("domain %d is not a power of two", w.n)
	}
	return bits.Len(uint(w.n)) - 2, nil
}

// params lists every workload parameter for the provenance block.
func (w workload) params() map[string]any {
	transport := w.transport
	if transport == "" {
		transport = "none"
	}
	return map[string]any{
		"n": w.n, "k": w.k, "q": w.q, "r": w.r, "eps": w.eps,
		"shards": w.shards, "transport": transport, "grid_side": w.gridSide,
		"batch": w.batch, "window": w.window, "workers": w.workers,
		"call_trials": w.callTrials, "setup_reps": w.setupReps, "backend": w.kind,
	}
}

// newSource is the workload's input: even trials sample U_n, odd
// trials a fresh nu_z drawn from the trial's RNG (the lower bound's
// averaged adversary).
func (w workload) newSource() (engine.Source, *dist.AliasSampler, error) {
	ell, err := w.ell()
	if err != nil {
		return nil, nil, err
	}
	h, err := dist.NewHardInstance(ell, w.eps)
	if err != nil {
		return nil, nil, err
	}
	u, err := dist.Uniform(w.n)
	if err != nil {
		return nil, nil, err
	}
	uniform, err := dist.NewAliasSampler(u)
	if err != nil {
		return nil, nil, err
	}
	src := func(trial int, rng *rand.Rand) (dist.Sampler, error) {
		if trial%2 == 0 {
			return uniform, nil
		}
		nu, _, err := h.RandomPerturbed(rng)
		if err != nil {
			return nil, err
		}
		return dist.NewAliasSampler(nu)
	}
	return src, uniform, nil
}

// tester is the workload's protocol pieces, shared by the measured
// backend, the reference backend and the layer probes.
type tester struct {
	rule    core.LocalRule
	referee core.Referee
	smp     *core.SMP // the in-process reference protocol
	t       int       // CONGEST root threshold
}

func (w workload) newTester() (tester, error) {
	switch w.kind {
	case kindSMP, kindCONGEST:
		p, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: w.n, K: w.k, Q: w.q, Eps: w.eps})
		if err != nil {
			return tester{}, err
		}
		return tester{rule: p.Local(), referee: p.RefereeFunc(), smp: p, t: core.DefaultThresholdT(w.k)}, nil
	case kindCluster:
		p, err := core.NewQuantizedSumTester(w.n, w.k, w.q, w.r)
		if err != nil {
			return tester{}, err
		}
		return tester{rule: p.Local(), referee: p.RefereeFunc(), smp: p}, nil
	}
	return tester{}, fmt.Errorf("unknown backend kind %q", w.kind)
}

// newTransport is the cluster's transport, fresh per backend.
func (w workload) newTransport() network.Transport {
	if w.transport == "tcp" {
		return network.TCPTransport{}
	}
	return network.NewMemTransport()
}

// instrument is what a traced build wraps: the local rule and, for the
// cluster, the transport. A nil instrument builds the plain program.
type instrument struct {
	rec      *recorder
	counting *network.CountingTransport
}

// newBackend builds the measured backend. With an instrument, the
// local rule and the transport are wrapped; the referee never is
// (ThresholdShape/SumShape type-switch on it to pick the decide kernel).
func (w workload) newBackend(t tester, ins *instrument) (engine.BatchBackend, error) {
	rule := t.rule
	if ins != nil {
		rule = &tracedRule{inner: rule, rec: ins.rec}
	}
	var (
		b   engine.Backend
		err error
	)
	switch w.kind {
	case kindSMP:
		p := t.smp
		if ins != nil {
			if p, err = core.NewSMP(w.k, w.q, rule, t.referee); err != nil {
				return nil, err
			}
		}
		b, err = core.BackendFor(p)
	case kindCONGEST:
		g, gerr := congest.Grid(w.gridSide, w.gridSide)
		if gerr != nil {
			return nil, gerr
		}
		ct, terr := congest.NewTester(congest.TesterConfig{Graph: g, Root: 0, Q: w.q, Rule: rule, T: t.t})
		if terr != nil {
			return nil, terr
		}
		b, err = congest.NewBackend(ct)
	case kindCluster:
		tr := w.newTransport()
		if ins != nil {
			if ins.counting, err = network.NewCountingTransport(tr); err != nil {
				return nil, err
			}
			tr = &tracedTransport{inner: ins.counting, rec: ins.rec, flat: w.shards <= 1}
		}
		c, cerr := network.NewCluster(network.ClusterConfig{
			K: w.k, Q: w.q, Rule: rule, Referee: t.referee, Transport: tr, Timeout: 60 * time.Second,
		})
		if cerr != nil {
			return nil, cerr
		}
		var opts []network.BackendOption
		if w.shards > 1 {
			opts = append(opts, network.WithShards(w.shards))
		}
		b, err = network.NewBackend(c, opts...)
	default:
		err = fmt.Errorf("unknown backend kind %q", w.kind)
	}
	if err != nil {
		return nil, err
	}
	bb, ok := b.(engine.BatchBackend)
	if !ok {
		return nil, fmt.Errorf("%s backend %T is not an engine.BatchBackend", w.kind, b)
	}
	return bb, nil
}

// reference is the backend and options every measured verdict is
// checked against: the unbatched scratch path of the in-process SMP
// backend (for smp-e1 that is the measured backend's other path).
func (w workload) reference(t tester) (engine.Backend, engine.Options, error) {
	b, err := core.BackendFor(t.smp)
	if err != nil {
		return nil, engine.Options{}, err
	}
	return b, engine.Options{Workers: 2}, nil
}
