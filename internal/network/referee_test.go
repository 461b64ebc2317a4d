package network

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// fakePlayer dials the listener and runs script against the connection;
// errors are ignored (the referee's verdict on the exchange is what the
// tests assert).
func fakePlayer(t *testing.T, m *MemTransport, addr net.Addr, script func(conn net.Conn)) {
	t.Helper()
	conn, err := m.Dial(addr)
	if err != nil {
		return
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	script(conn)
}

// fakeSession opens a flat batch session over an in-memory transport
// whose k players are the given scripts instead of real nodes. The
// cluster decides with andReferee over a rule of the given message
// width, which the referee pins at HELLO time.
func fakeSession(t *testing.T, k, bits int, timeout time.Duration, scripts ...func(conn net.Conn)) (*batchSession, error) {
	t.Helper()
	m := NewMemTransport()
	c, err := NewCluster(ClusterConfig{
		K: k, Q: 0, Rule: treeTestRule{bits: bits}, Referee: andReferee(),
		Transport: m, Timeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.Listen()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, script := range scripts {
		wg.Add(1)
		go func(script func(conn net.Conn)) {
			defer wg.Done()
			fakePlayer(t, m, l.Addr(), script)
		}(script)
	}
	t.Cleanup(wg.Wait)
	return openBatchSession(context.Background(), c, l, nil)
}

// runOneTrial runs one trial on the session as a batch of one.
func runOneTrial(bs *batchSession) (engine.RoundResult, error) {
	specs := []engine.RoundSpec{{Seed: 7, Sampler: dist.NopSampler{}}}
	out := make([]engine.RoundResult, 1)
	err := bs.runChunk(context.Background(), specs, 1, out)
	return out[0], err
}

// voteAccept answers one ROUND_BATCH with an all-accept VOTE_BATCH for
// the given player, reporting whether the exchange went through.
func voteAccept(conn net.Conn, player uint32) bool {
	rb, err := expectFrame[RoundBatch](conn, FrameRoundBatch)
	if err != nil {
		return false
	}
	bits := make([]uint64, batchWords(len(rb.Seeds)))
	for j := range rb.Seeds {
		bits[j/64] |= 1 << (j % 64)
	}
	return WriteVoteBatch(conn, VoteBatch{Player: player, Batch: rb.Batch, Count: uint32(len(rb.Seeds)), Bits: bits}) == nil
}

func TestRefereeRejectsDuplicatePlayerID(t *testing.T) {
	// Regression: two nodes claiming the same id used to both get slots,
	// with votes indexed by accept order.
	dup := func(conn net.Conn) {
		if err := WriteHello(conn, Hello{Player: 0, Bits: 1}); err != nil {
			return
		}
		voteAccept(conn, 0)
	}
	_, err := fakeSession(t, 2, 1, time.Second, dup, dup)
	if err == nil || !strings.Contains(err.Error(), "duplicate player id") {
		t.Errorf("err = %v, want duplicate-player-id error", err)
	}
}

func TestRefereeRejectsOutOfRangePlayerID(t *testing.T) {
	// Regression: an id >= k used to be accepted silently.
	_, err := fakeSession(t, 1, 1, time.Second, func(conn net.Conn) {
		_ = WriteHello(conn, Hello{Player: 5, Bits: 1})
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v, want out-of-range error", err)
	}
}

func TestRefereeEnforcesAnnouncedBits(t *testing.T) {
	// Regression: a player could send messages wider than the width it
	// announced, and the referee would feed them to the decision function
	// unchecked. A 2-bit player sending 3-bit planes fails the round.
	bs, err := fakeSession(t, 1, 2, time.Second, func(conn net.Conn) {
		if err := WriteHello(conn, Hello{Player: 0, Bits: 2}); err != nil {
			return
		}
		rb, err := expectFrame[RoundBatch](conn, FrameRoundBatch)
		if err != nil {
			return
		}
		_ = WriteVoteBatchR(conn, VoteBatchR{Player: 0, Batch: rb.Batch, Count: 1, Bits: 3, Planes: []uint64{1, 0, 1}})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = bs.Close() }()
	if _, err := runOneTrial(bs); err == nil || !strings.Contains(err.Error(), "3-bit votes") {
		t.Errorf("err = %v, want bits-enforcement error", err)
	}
}

func TestRefereeNegotiatesMessageWidth(t *testing.T) {
	// With the rule's width pinned on the server, a node announcing a
	// different width in HELLO fails the handshake with a named-player,
	// named-widths error rather than a generic rejection.
	_, err := fakeSession(t, 1, 2, time.Second, func(conn net.Conn) {
		_ = WriteHello(conn, Hello{Player: 0, Bits: 7})
	})
	if err == nil {
		t.Fatal("width mismatch accepted, want handshake error")
	}
	for _, want := range []string{"player 0", "7-bit", "2-bit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to name %q", err, want)
		}
	}
}

func TestRefereeAcceptsFullWidthMessages(t *testing.T) {
	// A 64-bit announcement admits any message (no 1<<64 overflow).
	bs, err := fakeSession(t, 1, 64, time.Second, func(conn net.Conn) {
		if err := WriteHello(conn, Hello{Player: 0, Bits: 64}); err != nil {
			return
		}
		rb, err := expectFrame[RoundBatch](conn, FrameRoundBatch)
		if err != nil {
			return
		}
		planes := make([]uint64, 64)
		for b := range planes {
			planes[b] = 1
		}
		if err := WriteVoteBatchR(conn, VoteBatchR{Player: 0, Batch: rb.Batch, Count: 1, Bits: 64, Planes: planes}); err != nil {
			return
		}
		_, _ = expectFrame[VerdictBatch](conn, FrameVerdictBatch)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = bs.Close() }()
	if _, err := runOneTrial(bs); err != nil {
		t.Errorf("full-width message rejected: %v", err)
	}
}

// slowPlayer votes accept on each of rounds ROUND_BATCH frames, but
// waits 400ms before each vote and 400ms before reading each verdict;
// verdicts it sees go to seen, and finished closes once FINISH arrives.
func slowPlayer(rounds int, seen chan<- bool, finished chan<- struct{}) func(conn net.Conn) {
	return func(conn net.Conn) {
		if err := WriteHello(conn, Hello{Player: 0, Bits: 1}); err != nil {
			return
		}
		for r := 0; r < rounds; r++ {
			rb, err := expectFrame[RoundBatch](conn, FrameRoundBatch)
			if err != nil {
				return
			}
			time.Sleep(400 * time.Millisecond) // slow, but within the per-frame budget
			if err := WriteVoteBatch(conn, VoteBatch{Player: 0, Batch: rb.Batch, Count: 1, Bits: []uint64{1}}); err != nil {
				return
			}
			time.Sleep(400 * time.Millisecond) // verdict pickup past a stale deadline
			v, err := expectFrame[VerdictBatch](conn, FrameVerdictBatch)
			if err != nil {
				return
			}
			seen <- v.Bits[0]&1 == 1
		}
		if _, err := expectFrame[Finish](conn, FrameFinish); err != nil {
			return
		}
		close(finished)
	}
}

func TestVerdictBroadcastSurvivesSlowRound(t *testing.T) {
	// Regression: the verdict broadcast used to reuse the deadline set
	// before vote gathering, so a round whose vote phase plus verdict
	// delivery outlasted one timeout failed spuriously even though every
	// individual frame wait was within budget.
	seen := make(chan bool, 1)
	finished := make(chan struct{})
	bs, err := fakeSession(t, 1, 1, 600*time.Millisecond, slowPlayer(1, seen, finished))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOneTrial(bs)
	if err != nil {
		t.Fatalf("slow round failed: %v", err)
	}
	if !res.Verdict {
		t.Error("verdict = reject, want accept")
	}
	select {
	case v := <-seen:
		if !v {
			t.Error("player saw reject")
		}
	case <-time.After(3 * time.Second):
		t.Error("player never received the verdict")
	}
	if err := bs.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestSessionVerdictBroadcastSurvivesSlowRound(t *testing.T) {
	// Same regression as above across consecutive rounds of one session:
	// every slow round keeps its full budget, and FINISH still arrives.
	const rounds = 2
	seen := make(chan bool, rounds)
	finished := make(chan struct{})
	bs, err := fakeSession(t, 1, 1, 600*time.Millisecond, slowPlayer(rounds, seen, finished))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		res, err := runOneTrial(bs)
		if err != nil {
			t.Fatalf("slow session round %d failed: %v", r, err)
		}
		if !res.Verdict {
			t.Errorf("round %d verdict = reject, want accept", r)
		}
	}
	if err := bs.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	select {
	case <-finished:
	case <-time.After(3 * time.Second):
		t.Error("player never reached FINISH")
	}
	if len(seen) != rounds {
		t.Errorf("player saw %d verdicts, want %d", len(seen), rounds)
	}
}
