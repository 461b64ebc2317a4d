package network

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
)

// RefereeServer holds the referee's decision settings for a session of
// k players: the accept/HELLO phase and the decision of its
// core.Referee. By default it is strict — all k votes are required,
// exactly the paper's model. WithMinVotes relaxes it to a
// quorum: the referee tolerates stragglers, crashed nodes and protocol
// violators, decides from the votes it has (absentees entering the
// decision per the configured core.AbsenteePolicy), and reports what
// happened in a RoundStats.
type RefereeServer struct {
	k        int
	decide   core.Referee
	timeout  time.Duration
	minVotes int
	policy   core.AbsenteePolicy
	bits     int
}

// RefereeOption customizes NewRefereeServer beyond the required
// arguments.
type RefereeOption func(*RefereeServer)

// WithMinVotes sets the quorum: a round succeeds once at least m valid
// votes arrive, with missing players treated per the absentee policy.
// m = k (the default) is strict mode, where any failure aborts the round.
func WithMinVotes(m int) RefereeOption {
	return func(s *RefereeServer) { s.minVotes = m }
}

// WithAbsentees sets how missing votes enter the decision in quorum mode;
// core.AbsenteeDefault (the default) defers to the decision rule's advice.
func WithAbsentees(p core.AbsenteePolicy) RefereeOption {
	return func(s *RefereeServer) { s.policy = p }
}

// WithMessageBits pins the message width r the referee's rule decides
// over: a HELLO announcing any other width is rejected by name instead
// of being discovered later as a width-violation on some vote. Zero
// (the default) accepts any legal width, preserving the behavior of
// directly constructed servers that never negotiate.
func WithMessageBits(r int) RefereeOption {
	return func(s *RefereeServer) { s.bits = r }
}

// NewRefereeServer builds the server. timeout bounds each connection's
// per-frame wait and, in quorum mode, the whole accept phase; zero means
// 10 seconds.
func NewRefereeServer(k int, decide core.Referee, timeout time.Duration, opts ...RefereeOption) (*RefereeServer, error) {
	if k <= 0 {
		return nil, fmt.Errorf("network: referee for %d players", k)
	}
	if decide == nil {
		return nil, fmt.Errorf("network: nil decision function")
	}
	if timeout < 0 {
		return nil, fmt.Errorf("network: negative timeout %v", timeout)
	}
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	s := &RefereeServer{k: k, decide: decide, timeout: timeout, minVotes: k}
	for _, o := range opts {
		o(s)
	}
	if s.minVotes < 1 || s.minVotes > k {
		return nil, fmt.Errorf("network: quorum of %d votes for %d players", s.minVotes, k)
	}
	if !s.policy.Valid() {
		return nil, fmt.Errorf("network: unknown absentee policy %d", int(s.policy))
	}
	if s.bits < 0 || s.bits > 64 {
		return nil, fmt.Errorf("network: referee expecting %d message bits, want 1..64 (or 0 for any)", s.bits)
	}
	return s, nil
}

// strict reports whether all k votes are required (the seed semantics:
// any failure aborts the round).
func (s *RefereeServer) strict() bool { return s.minVotes >= s.k }

// RoundStats describes one referee round of a (possibly fault-tolerant)
// deployment: how many votes actually arrived, how many players
// straggled, how hard the nodes had to retry, and how long the round
// took. Cluster threads it back to callers of RunStats / RunManyStats.
type RoundStats struct {
	// Round is the 0-based round index within the session.
	Round int
	// Votes is the number of valid votes received.
	Votes int
	// Stragglers is k minus Votes: players absent, crashed, timed out or
	// rejected for protocol violations.
	Stragglers int
	// Retries is the total number of node-side dial/HELLO retry attempts.
	// The setup-phase retries of a session are reported on its first
	// round's stats.
	Retries int
	// Wall is the wall-clock duration of the round: its share of the
	// wire batch that carried it.
	Wall time.Duration
	// Verdict is the referee's decision for the round.
	Verdict bool
}

// connTracker collects a session's listeners and connections so that
// they are all closed when the session ends and force-closed when its
// context dies (which also unblocks a pending Accept).
type connTracker struct {
	mu    sync.Mutex
	conns []io.Closer
}

func (t *connTracker) track(c io.Closer) {
	t.mu.Lock()
	t.conns = append(t.conns, c)
	t.mu.Unlock()
}

func (t *connTracker) closeAll() {
	t.mu.Lock()
	for _, c := range t.conns {
		_ = c.Close()
	}
	t.mu.Unlock()
}

// watch force-closes all tracked connections when ctx dies; the returned
// stop function must be deferred.
func (t *connTracker) watch(ctx context.Context) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			t.closeAll()
		case <-done:
		}
	}()
	return func() { close(done) }
}

// checkBits checks a HELLO's message width: in [1,64] and matching the
// referee's negotiated width when one is pinned (WithMessageBits).
func (s *RefereeServer) checkBits(h Hello) error {
	if h.Bits < 1 || h.Bits > 64 {
		return fmt.Errorf("network: player %d announced %d message bits", h.Player, h.Bits)
	}
	if s.bits != 0 && int(h.Bits) != s.bits {
		return fmt.Errorf("network: player %d announced %d-bit messages but the referee's rule decides over %d-bit messages",
			h.Player, h.Bits, s.bits)
	}
	return nil
}

// placePlayer validates one player's HELLO at the flat root and returns
// its slot index, the player id: the width must pass checkBits, the id
// must be in [0,k) and not yet registered.
func (s *RefereeServer) placePlayer(h Hello, slots []*batchSlot) (int, error) {
	if err := s.checkBits(h); err != nil {
		return 0, err
	}
	if h.Player >= uint32(s.k) {
		return 0, fmt.Errorf("network: player id %d out of range [0, %d)", h.Player, s.k)
	}
	if slots[h.Player] != nil {
		return 0, fmt.Errorf("network: duplicate player id %d", h.Player)
	}
	return int(h.Player), nil
}

// handshake reads one accepted connection's hello and places it
// against the slots registered so far. It returns the slot index, the
// id the slot speaks for (a player id, or an aggregator id at the
// tree's root) and how many players the slot brings.
type handshake func(conn net.Conn, slots []*batchSlot) (idx int, id uint32, present int, err error)

// helloHandshake is the player tiers' handshake: one HELLO, placed by
// place (placePlayer at the flat root, placeMember at an aggregator).
func (s *RefereeServer) helloHandshake(place func(Hello, []*batchSlot) (int, error)) handshake {
	return func(conn net.Conn, slots []*batchSlot) (int, uint32, int, error) {
		setDeadline(conn, s.timeout)
		h, err := expectFrame[Hello](conn, FrameHello)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("network: hello: %w", err)
		}
		i, err := place(h, slots)
		return i, h.Player, 1, err
	}
}

// acceptSlots runs an accept phase for n expected slots. In strict mode
// it blocks until all n have registered (or the listener or context
// dies). In quorum mode the whole phase is bounded by an accept deadline
// of wait, after which it ends with whoever registered; the caller
// checks the quorum. shake reads each connection's hello under a frame
// deadline and places it; a connection whose handshake fails aborts the
// phase in strict mode and is dropped in quorum mode. It returns the
// slots (nil = absent) and how many players they bring.
//
//dut:coldpath once-per-session accept and handshake validation
func (s *RefereeServer) acceptSlots(ctx context.Context, l net.Listener, tr *connTracker, n int,
	wait time.Duration, shake handshake) ([]*batchSlot, int, error) {
	if !s.strict() {
		dl, ok := l.(acceptDeadliner)
		if !ok {
			return nil, 0, fmt.Errorf("network: quorum mode needs a listener with accept deadlines (have %T)", l)
		}
		//lint:ignore dut/nondeterminism net deadlines need an absolute instant; bounds the accept wait, never the verdict
		_ = dl.SetDeadline(time.Now().Add(wait))
		defer func() { _ = dl.SetDeadline(time.Time{}) }()
	}
	slots := make([]*batchSlot, n)
	filled, present := 0, 0
	for filled < n {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		conn, err := l.Accept()
		if err != nil {
			if !s.strict() && errors.Is(err, os.ErrDeadlineExceeded) {
				return slots, present, nil
			}
			return nil, 0, fmt.Errorf("network: accept: %w", err)
		}
		tr.track(conn)
		i, id, p, err := shake(conn, slots)
		if err != nil {
			if s.strict() {
				return nil, 0, err
			}
			_ = conn.Close()
			continue
		}
		slots[i] = newBatchSlot(conn, id)
		filled++
		present += p
	}
	return slots, present, nil
}

// acceptPlayers is a root's accept phase, acceptSlots plus the quorum:
// in quorum mode at least minVotes of the k players must be present
// once the accept deadline passes, whether each slot is a player or an
// aggregator bringing its shard's present count.
func (s *RefereeServer) acceptPlayers(ctx context.Context, l net.Listener, tr *connTracker, n int,
	wait time.Duration, shake handshake) ([]*batchSlot, error) {
	slots, present, err := s.acceptSlots(ctx, l, tr, n, wait, shake)
	if err != nil {
		return nil, err
	}
	if present < s.minVotes {
		return nil, fmt.Errorf("network: quorum not met: %d of %d players connected before the accept deadline, need %d",
			present, s.k, s.minVotes)
	}
	return slots, nil
}

// decideVotes checks the quorum and applies the decision function, with
// absent players entering per the resolved absentee policy. It returns
// the verdict and the number of votes received.
func (s *RefereeServer) decideVotes(votes []core.Message, got []bool) (bool, int, error) {
	received := 0
	for _, g := range got {
		if g {
			received++
		}
	}
	if received < s.minVotes {
		return false, received, fmt.Errorf("network: quorum not met: %d of %d votes, need %d", received, s.k, s.minVotes)
	}
	msgs := votes
	if received < s.k {
		switch core.ResolveAbsentee(s.policy, s.decide) {
		case core.AbsenteeOmit:
			msgs = make([]core.Message, 0, received)
			for i, g := range got {
				if g {
					msgs = append(msgs, votes[i])
				}
			}
		case core.AbsenteeAccept:
			//lint:ignore dut/hotalloc degraded-quorum branch (received < k); the steady received==k path above is allocation-free, and the copy is deliberate so the caller's votes stay unmutated
			msgs = append([]core.Message(nil), votes...)
			for i, g := range got {
				if !g {
					msgs[i] = core.Accept
				}
			}
		default: // core.AbsenteeReject
			//lint:ignore dut/hotalloc degraded-quorum branch (received < k); the steady received==k path above is allocation-free, and the copy is deliberate so the caller's votes stay unmutated
			msgs = append([]core.Message(nil), votes...)
			for i, g := range got {
				if !g {
					msgs[i] = core.Reject
				}
			}
		}
	}
	accept, err := s.decide.Decide(msgs)
	if err != nil {
		return false, received, fmt.Errorf("network: referee decision: %w", err)
	}
	return accept, received, nil
}

func setDeadline(conn net.Conn, d time.Duration) {
	// Both transports' connections take deadlines; a failure here is
	// non-fatal (reads still error out on close).
	//lint:ignore dut/nondeterminism net deadlines need an absolute instant; bounds frame IO waits, never the verdict
	_ = conn.SetDeadline(time.Now().Add(d))
}
