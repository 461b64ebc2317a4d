package congest

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/distributed-uniformity/dut/internal/core"
)

// The event-driven Simulator against a dense reference: the simulator
// loop as it was before wake sets, stepping every live node in every
// round. For the uniformity protocol the two must agree on everything
// observable — verdict, round count, message count, widest message and
// every node's final verdict state.

// simStats is what one run reports.
type simStats struct {
	rounds, messages, maxBits int
}

// denseRun steps every live node in every round, with a full clear of
// the next inbox generation per round. It shares only Outbox and Inbox
// with the Simulator.
func denseRun(g *Graph, programs []NodeProgram, maxRounds int) (simStats, error) {
	var st simStats
	n := g.N()
	adj := make([][]int, n)
	for u := range adj {
		adj[u] = g.Neighbors(u)
		sort.Ints(adj[u])
	}
	newInboxes := func() []Inbox {
		in := make([]Inbox, n)
		for u := range in {
			in[u] = Inbox{msgs: make([]Payload, len(adj[u])), has: make([]bool, len(adj[u]))}
		}
		return in
	}
	inboxes, next := newInboxes(), newInboxes()
	outs := make([]*Outbox, n)
	for u := range outs {
		outs[u] = newOutbox(u, adj[u])
	}
	done := make([]bool, n)
	remaining := n
	for round := 0; remaining > 0; round++ {
		if round >= maxRounds {
			return st, fmt.Errorf("dense: %d nodes still running after %d rounds", remaining, maxRounds)
		}
		st.rounds = round + 1
		for u := range next {
			clear(next[u].has)
		}
		for u := 0; u < n; u++ {
			if done[u] {
				continue
			}
			out := outs[u]
			out.reset()
			finished, err := programs[u].Step(round, inboxes[u], out)
			if err != nil {
				return st, fmt.Errorf("dense: node %d round %d: %w", u, round, err)
			}
			for pos, to := range adj[u] {
				if !out.has[pos] {
					continue
				}
				back, _ := slices.BinarySearch(adj[to], u)
				next[to].msgs[back] = out.msgs[pos]
				next[to].has[back] = true
				st.messages++
				if b := bits.Len64(uint64(out.msgs[pos])); b > st.maxBits {
					st.maxBits = b
				}
			}
			if finished {
				done[u] = true
				remaining--
			}
		}
		inboxes, next = next, inboxes
	}
	return st, nil
}

// protocolNodes builds one uniformity node per vertex with the given
// scores, all reporting the root's verdict to *result.
func protocolNodes(g *Graph, root, threshold int, scores []uint64, result *bool) ([]*uniformityNode, []NodeProgram) {
	nodes := make([]*uniformityNode, g.N())
	programs := make([]NodeProgram, g.N())
	for u := range nodes {
		nodes[u] = newUniformityNode(g, u, u == root, threshold, scores[u], result)
		programs[u] = nodes[u]
	}
	return nodes, programs
}

// outcome is everything observable about one run of the protocol.
type outcome struct {
	simStats
	verdict bool
	nodes   []*uniformityNode
	err     error
}

// simOutcome reads a finished Simulator run.
func simOutcome(sim *Simulator, nodes []*uniformityNode, verdict bool, err error) outcome {
	return outcome{simStats{sim.Rounds(), sim.MessagesSent(), sim.MaxMessageBits()}, verdict, nodes, err}
}

// denseOutcome runs the protocol on fresh nodes under denseRun.
func denseOutcome(g *Graph, root, threshold int, scores []uint64) outcome {
	var verdict bool
	nodes, programs := protocolNodes(g, root, threshold, scores, &verdict)
	st, err := denseRun(g, programs, 8*g.N()+16)
	return outcome{st, verdict, nodes, err}
}

// checkAgainstDense runs the protocol on a fresh Simulator and on the
// dense reference and fails on any observable difference.
func checkAgainstDense(t testing.TB, label string, g *Graph, root, threshold int, scores []uint64) {
	t.Helper()
	var verdict bool
	nodes, programs := protocolNodes(g, root, threshold, scores, &verdict)
	sim, err := NewSimulator(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	err = sim.Run(8*g.N() + 16)
	compareRuns(t, label, simOutcome(sim, nodes, verdict, err), denseOutcome(g, root, threshold, scores))
}

func compareRuns(t testing.TB, label string, got, want outcome) {
	t.Helper()
	if (got.err != nil) != (want.err != nil) {
		t.Fatalf("%s: Run error %v, dense error %v", label, got.err, want.err)
	}
	if got.err != nil {
		return
	}
	if got.simStats != want.simStats {
		t.Fatalf("%s: Run %+v, dense %+v", label, got.simStats, want.simStats)
	}
	if got.verdict != want.verdict {
		t.Fatalf("%s: verdict %v, dense %v", label, got.verdict, want.verdict)
	}
	for u, node := range got.nodes {
		ref := want.nodes[u]
		if node.verdictSeen != ref.verdictSeen || node.verdict != ref.verdict {
			t.Fatalf("%s: node %d verdict (%v, seen %v), dense (%v, seen %v)", label, u,
				node.verdict, node.verdictSeen, ref.verdict, ref.verdictSeen)
		}
	}
}

// randomConnected is a random tree on n nodes plus up to extra random
// chords, built through NewGraph.
func randomConnected(n, extra int, rng *rand.Rand) (*Graph, error) {
	tree, err := RandomTree(n, rng)
	if err != nil {
		return nil, err
	}
	seen := map[[2]int]bool{}
	var edges [][2]int
	for u := 0; u < n; u++ {
		for _, v := range tree.Neighbors(u) {
			if u < v {
				seen[[2]int{u, v}] = true
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	for i := 0; i < extra && n > 2; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	return NewGraph(n, edges)
}

// randomScores draws one r-bit score per node and a threshold in the
// range NewTester accepts for that width.
func randomScores(n, r int, rng *rand.Rand) ([]uint64, int) {
	scores := make([]uint64, n)
	for u := range scores {
		scores[u] = rng.Uint64() & (1<<r - 1)
	}
	maxTotal := n * (1<<r - 1)
	return scores, 1 + rng.IntN(maxTotal+1)
}

func TestRunMatchesDenseStepper(t *testing.T) {
	rng := testRand(16)
	type shape struct {
		name string
		g    func() (*Graph, error)
	}
	shapes := []shape{
		{"path1", func() (*Graph, error) { return Path(1) }},
		{"path2", func() (*Graph, error) { return Path(2) }},
		{"path17", func() (*Graph, error) { return Path(17) }},
		{"ring3", func() (*Graph, error) { return Ring(3) }},
		{"ring20", func() (*Graph, error) { return Ring(20) }},
		{"star9", func() (*Graph, error) { return Star(9) }},
		{"complete7", func() (*Graph, error) { return Complete(7) }},
		{"grid1x9", func() (*Graph, error) { return Grid(1, 9) }},
		{"grid5x7", func() (*Graph, error) { return Grid(5, 7) }},
		{"grid9x9", func() (*Graph, error) { return Grid(9, 9) }},
		{"grid12x12", func() (*Graph, error) { return Grid(12, 12) }},
		{"tree40", func() (*Graph, error) { return RandomTree(40, rng) }},
		{"tree130", func() (*Graph, error) { return RandomTree(130, rng) }},
		{"connected65", func() (*Graph, error) { return randomConnected(65, 90, rng) }},
		{"connected30", func() (*Graph, error) { return randomConnected(30, 400, rng) }},
	}
	for _, sh := range shapes {
		g, err := sh.g()
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		roots := []int{0, n - 1, n / 2, rng.IntN(n)}
		for _, root := range roots {
			for _, r := range []int{1, 3} {
				for rep := 0; rep < 3; rep++ {
					scores, threshold := randomScores(n, r, rng)
					if r == 1 {
						threshold = 1 + rng.IntN(n)
					}
					label := fmt.Sprintf("%s root=%d r=%d rep=%d", sh.name, root, r, rep)
					checkAgainstDense(t, label, g, root, threshold, scores)
				}
			}
		}
	}
}

// TestScratchRunsMatchDenseStepper runs the real rules end to end on
// one reused scratch — the 1-bit threshold tester and the 3-bit
// quantized-sum tester — and replays every trial's node scores on the
// dense reference.
func TestScratchRunsMatchDenseStepper(t *testing.T) {
	grid, err := Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := RandomTree(36, testRand(17))
	if err != nil {
		t.Fatal(err)
	}
	const (
		domain = 64
		k      = 36
		q      = 6
	)
	threshold, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: domain, K: k, Q: q, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	quantized, err := core.NewQuantizedSumTester(domain, k, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	rules := []struct {
		name string
		cfg  TesterConfig
	}{
		{"1-bit", TesterConfig{Q: q, Rule: threshold.Local(), T: core.DefaultThresholdT(k)}},
		{"3-bit", TesterConfig{Q: q, Rule: quantized.Local(), T: core.QuantizedSumThreshold(domain, k, q)}},
	}
	sampler := uniformSampler(t, domain)
	for _, g := range []*Graph{grid, tree} {
		for _, root := range []int{0, 17, 35} {
			for _, rl := range rules {
				cfg := rl.cfg
				cfg.Graph, cfg.Root = g, root
				tester, err := NewTester(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sc := tester.newScratch()
				for shared := uint64(1); shared <= 20; shared++ {
					label := fmt.Sprintf("%s root=%d shared=%d", rl.name, root, shared)
					got, sim, err := tester.runSeededScratch(sampler, shared, sc)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					scores := make([]uint64, k)
					for u, node := range sc.nodes {
						scores[u] = node.score
					}
					compareRuns(t, label, simOutcome(sim, sc.nodes, got, nil), denseOutcome(g, root, tester.t, scores))
				}
			}
		}
	}
}

func FuzzSimulator(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(0), uint8(0), uint8(1))
	f.Add(uint64(2), uint8(33), uint8(20), uint8(5), uint8(3))
	f.Add(uint64(3), uint8(1), uint8(0), uint8(0), uint8(1))
	f.Add(uint64(4), uint8(64), uint8(200), uint8(63), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, size, extra, root, width uint8) {
		rng := testRand(seed)
		n := 1 + int(size)%96
		g, err := randomConnected(n, int(extra), rng)
		if err != nil {
			t.Fatal(err)
		}
		r := 1 + int(width)%8
		scores, threshold := randomScores(n, r, rng)
		if r == 1 && threshold > n {
			threshold = n
		}
		checkAgainstDense(t, fmt.Sprintf("n=%d r=%d", n, r), g, int(root)%n, threshold, scores)
	})
}

// silentProgram never terminates and never sends.
type silentProgram struct{}

func (silentProgram) Step(int, Inbox, *Outbox) (bool, error) { return false, nil }

func TestSimulatorReportsQuiescence(t *testing.T) {
	g, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	programs := make([]NodeProgram, g.N())
	for u := range programs {
		programs[u] = silentProgram{}
	}
	sim, err := NewSimulator(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	err = sim.Run(1000)
	if err == nil {
		t.Fatal("a silent protocol ran to completion")
	}
	if want := "5 nodes still running at round 1 with no message in flight"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want it to contain %q", err, want)
	}
	if sim.Rounds() != 1 {
		t.Fatalf("quiescence found after %d rounds, want 1", sim.Rounds())
	}
}

// insomniacProgram never terminates and asks to stay awake on every step.
type insomniacProgram struct{}

func (insomniacProgram) Step(_ int, _ Inbox, out *Outbox) (bool, error) {
	out.StayAwake()
	return false, nil
}

func TestSimulatorBoundsLivelock(t *testing.T) {
	g, err := Path(3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(g, []NodeProgram{silentProgram{}, insomniacProgram{}, silentProgram{}})
	if err != nil {
		t.Fatal(err)
	}
	err = sim.Run(40)
	if err == nil {
		t.Fatal("a livelocked protocol ran to completion")
	}
	if want := "3 nodes still running after 40 rounds"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want it to contain %q", err, want)
	}
	if sim.Rounds() != 40 {
		t.Fatalf("livelock stopped after %d rounds, want 40", sim.Rounds())
	}
}

// timerProgram sends nothing and terminates in round `at`, staying
// awake until then; it records the rounds it was stepped in.
type timerProgram struct {
	at    int
	steps []int
}

func (p *timerProgram) Step(round int, _ Inbox, out *Outbox) (bool, error) {
	p.steps = append(p.steps, round)
	if round == p.at {
		return true, nil
	}
	out.StayAwake()
	return false, nil
}

// echoProgram terminates as soon as it has mail, and is stepped only
// when it does after round 0.
type echoProgram struct{ steps []int }

func (p *echoProgram) Step(round int, in Inbox, _ *Outbox) (bool, error) {
	p.steps = append(p.steps, round)
	_, ok := in.Get(0)
	return ok, nil
}

// senderProgram sends one message to its single neighbor in round `at`
// and terminates.
type senderProgram struct {
	to, at int
}

func (p *senderProgram) Step(round int, _ Inbox, out *Outbox) (bool, error) {
	if round < p.at {
		out.StayAwake()
		return false, nil
	}
	return true, out.Send(p.to, 1)
}

func TestSimulatorWakeContract(t *testing.T) {
	g, err := NewGraph(4, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	timer := &timerProgram{at: 6}
	echo := &echoProgram{}
	sender := &senderProgram{to: 1, at: 4}
	short := &timerProgram{at: 2}
	sim, err := NewSimulator(g, []NodeProgram{sender, echo, timer, short})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	if sim.Rounds() != 7 || sim.MessagesSent() != 1 {
		t.Fatalf("rounds %d, messages %d; want 7 and 1", sim.Rounds(), sim.MessagesSent())
	}
	if want := []int{0, 5}; !slices.Equal(echo.steps, want) {
		t.Errorf("echo stepped in rounds %v, want %v (round 0, then only with mail)", echo.steps, want)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(timer.steps, want) {
		t.Errorf("timer stepped in rounds %v, want %v", timer.steps, want)
	}
	if want := []int{0, 1, 2}; !slices.Equal(short.steps, want) {
		t.Errorf("short timer stepped in rounds %v, want %v", short.steps, want)
	}
}

// faultyProgram wraps a uniformity node and fails at a given round while
// armed, leaving mail and wake bits mid-round.
type faultyProgram struct {
	*uniformityNode
	failAt int
	armed  bool
}

func (p *faultyProgram) Step(round int, in Inbox, out *Outbox) (bool, error) {
	if p.armed && round == p.failAt {
		return false, errors.New("injected failure")
	}
	return p.uniformityNode.Step(round, in, out)
}

// TestSimulatorRerunAfterError checks that a run stopped by an error
// leaves no stale mail or wake bits behind: a Reset-and-rerun on the
// same simulator matches the dense reference.
func TestSimulatorRerunAfterError(t *testing.T) {
	g, err := Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	scores, threshold := randomScores(g.N(), 1, testRand(18))
	threshold = 1 + threshold%g.N()
	var verdict bool
	nodes, _ := protocolNodes(g, 0, threshold, scores, &verdict)
	faulty := &faultyProgram{uniformityNode: nodes[12], failAt: 4, armed: true}
	programs := make([]NodeProgram, g.N())
	for u := range programs {
		programs[u] = nodes[u]
	}
	programs[12] = faulty
	sim, err := NewSimulator(g, programs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(500); err == nil || !strings.Contains(err.Error(), "node 12 round 4: injected failure") {
		t.Fatalf("armed run: error %v, want node 12's injected failure at round 4", err)
	}
	faulty.armed = false
	for u, node := range nodes {
		node.reset(scores[u], &verdict)
	}
	sim.Reset()
	if err := sim.Run(500); err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "rerun", simOutcome(sim, nodes, verdict, nil), denseOutcome(g, 0, threshold, scores))
}

// partingProgram sends its one neighbor a message and terminates in
// round at, staying awake until then; it records the rounds in which it
// found mail.
type partingProgram struct {
	to, at int
	mail   []int
}

func (p *partingProgram) Step(round int, in Inbox, out *Outbox) (bool, error) {
	if _, ok := in.Get(0); ok {
		p.mail = append(p.mail, round)
	}
	if round < p.at {
		out.StayAwake()
		return false, nil
	}
	return true, out.Send(p.to, 1)
}

// TestSimulatorRerunAfterPartingMail checks that mail sent in the last
// round to an already terminated node does not leak into the next run.
func TestSimulatorRerunAfterPartingMail(t *testing.T) {
	g, err := Path(2)
	if err != nil {
		t.Fatal(err)
	}
	first, last := &partingProgram{to: 1, at: 0}, &partingProgram{to: 0, at: 1}
	sim, err := NewSimulator(g, []NodeProgram{first, last})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		first.mail, last.mail = nil, nil
		sim.Reset()
		if err := sim.Run(10); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if sim.Rounds() != 2 || sim.MessagesSent() != 2 {
			t.Fatalf("run %d: rounds %d, messages %d; want 2 and 2", run, sim.Rounds(), sim.MessagesSent())
		}
		if len(first.mail) != 0 || !slices.Equal(last.mail, []int{1}) {
			t.Fatalf("run %d: mail seen in rounds %v and %v, want [] and [1]", run, first.mail, last.mail)
		}
	}
}
