package network

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// TestVoteCodecZeroAllocs guards one steady-state batch round trip on
// MemTransport with the paper's real rules: the node's serve loop
// decodes a ROUND_BATCH, samples, runs the collision rule on every
// trial and encodes its VOTE_BATCH (1-bit FMO vote) or VOTE_BATCH_R
// (Theorem 6.4's 3-bit quantized count); the referee slot's readVotes
// decodes and checks it; the node then decodes the VERDICT_BATCH. Every
// frame keeps its real read or write deadline, and none of it may
// allocate once the node's and the slot's scratch and the connection's
// buffers and deadline timers are warm. Skipped under the race detector,
// whose instrumentation allocates.
func TestVoteCodecZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	quantized, err := core.NewQuantizedCollisionRule(64, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	fmo, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: 1024, K: 64, Q: 42, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		n, q int
		rule core.LocalRule
	}{
		{"VOTE_BATCH", 1024, 42, fmo.Local()},
		{"VOTE_BATCH_R", 64, 4, quantized},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				player = 7
				batch  = 5
				count  = 64
			)
			node, err := NewPlayerNode(player, tc.q, tc.rule, uniformSampler(t, tc.n), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			tr := NewMemTransport()
			l, err := tr.Listen()
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = l.Close() }()
			accepted := make(chan net.Conn, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					close(accepted)
					return
				}
				accepted <- c
			}()
			nodeConn, err := tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			refConn, ok := <-accepted
			if !ok {
				t.Fatal("accept failed")
			}
			defer func() { _ = nodeConn.Close(); _ = refConn.Close() }()
			served := make(chan error, 1)
			go func() { served <- node.serve(nodeConn) }()

			server, err := NewRefereeServer(count, andReferee(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			bs := &batchSession{server: server, msgBits: tc.rule.Bits()}
			slot := newBatchSlot(refConn, player)
			seeds := make([]uint64, count)
			for i := range seeds {
				seeds[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
			}
			round, err := AppendRoundBatch(nil, RoundBatch{Batch: batch, Seeds: seeds})
			if err != nil {
				t.Fatal(err)
			}
			verdict, err := AppendVerdictBatch(nil, VerdictBatch{Batch: batch, Count: count, Bits: []uint64{^uint64(0)}})
			if err != nil {
				t.Fatal(err)
			}
			step := func() {
				if err := writeCoalesced(refConn, round); err != nil {
					t.Fatal(err)
				}
				if _, err := bs.readVotes(slot, batch, count); err != nil {
					t.Fatal(err)
				}
				if err := writeCoalesced(refConn, verdict); err != nil {
					t.Fatal(err)
				}
			}
			step() // grows the node's vote and encode buffers and the slot's reader
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Errorf("one node vote and slot readVotes allocate %.1f per batch, want 0", allocs)
			}
			if err := writeCoalesced(refConn, AppendFinish(nil)); err != nil {
				t.Fatal(err)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSessionBatchZeroAllocs guards one settled batch of a whole
// MemTransport session with Theorem 6.4's 3-bit quantized tester: the
// ROUND_BATCH fan-out, every node's sampling and vote, the persistent
// slot readers' gather, the decide and the verdict fan-out — through two
// aggregators' relay and reduce on the tree. Every goroutine of the
// session counts, and every frame keeps its real deadline; none of it
// may allocate once the session's scratch, buffers and timers are warm.
// The quorum cases keep two players out of the session (each drops its
// one dial) under every absentee policy: a batch with absentees is
// decided by the same word-parallel decide, flat or tree, and is just
// as clean. Skipped under the race detector, whose instrumentation
// allocates.
func TestSessionBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const (
		n, k, q, bits = 64, 64, 4, 3
		batch         = 64
	)
	tester, err := core.NewQuantizedSumTester(n, k, q, bits)
	if err != nil {
		t.Fatal(err)
	}
	sampler := uniformSampler(t, n)
	type testCase struct {
		name   string
		shards int
		quorum bool
		policy core.AbsenteePolicy
	}
	cases := []testCase{{"flat", 0, false, 0}, {"tree-2", 2, false, 0}}
	for _, pol := range []struct {
		name   string
		policy core.AbsenteePolicy
	}{
		{"accept", core.AbsenteeAccept},
		{"reject", core.AbsenteeReject},
		{"omit", core.AbsenteeOmit},
	} {
		cases = append(cases,
			testCase{"flat-quorum-" + pol.name, 0, true, pol.policy},
			testCase{"tree-2-quorum-" + pol.name, 2, true, pol.policy})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ClusterConfig{
				K: k, Q: q,
				Rule:    tester.Local(),
				Referee: tester.RefereeFunc(),
				Timeout: 10 * time.Second,
				Shards:  tc.shards,
			}
			if tc.quorum {
				// The accept phase waits out the absentees for one timeout.
				ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{Plans: map[uint32]FaultPlan{
					5:  {DropDials: 1},
					40: {DropDials: 1},
				}})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Transport, cfg.Timeout, cfg.DialRetries = ft, time.Second, -1
				cfg.MinVotes, cfg.Absentees = k-4, tc.policy
			}
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			bs, err := newBatchSession(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := bs.Close(); err != nil {
					t.Error(err)
				}
			}()
			specs := make([]engine.RoundSpec, batch)
			for i := range specs {
				specs[i] = engine.RoundSpec{Seed: 11, Trial: i, Sampler: sampler}
			}
			out := make([]engine.RoundResult, batch)
			step := func() {
				if err := bs.runChunk(ctx, specs, batch, out); err != nil {
					t.Fatal(err)
				}
			}
			for range 3 {
				step() // grows every scratch, buffer and timer the batch touches
			}
			if tc.quorum && (out[0].Votes != k-2 || out[0].Stragglers != 2) {
				t.Fatalf("quorum batch counted %d votes, %d stragglers; want %d, 2", out[0].Votes, out[0].Stragglers, k-2)
			}
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Errorf("one settled %d-trial batch allocates %.1f, want 0", batch, allocs)
			}
		})
	}
}
