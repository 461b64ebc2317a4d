package network

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// Default retry policy for a node's connect (dial + HELLO) phase: enough
// to ride out transient connection drops without masking a dead referee.
const (
	// DefaultDialRetries is the number of retry attempts after the first
	// failed connect.
	DefaultDialRetries = 2
	// DefaultRetryBackoff is the sleep before the first retry; it doubles
	// on every subsequent retry.
	DefaultRetryBackoff = 5 * time.Millisecond
)

// PlayerNode is one sensor/server in the network: it owns a sampler for
// its local observations and a core.LocalRule for its vote. Transient
// dial and HELLO failures are retried with exponential backoff (see
// SetRetryPolicy), so the faults a FaultTransport injects at connect
// time are survivable.
type PlayerNode struct {
	id      uint32
	q       int
	rule    core.LocalRule
	sampler dist.Sampler
	timeout time.Duration
	retries int
	backoff time.Duration

	// Per-round scratch, allocated once at construction: the sample batch
	// buffer dist.SampleInto fills and the reseedable per-round generator.
	// A node participates in one round at a time (rounds of a session are
	// sequential), so the reuse is race-free.
	buf []int
	rng *engine.ReusableRNG

	// voteBits is the reusable packed-vote buffer for ROUND_BATCH replies
	// and enc the reply's encode buffer; like buf they are safe to reuse
	// because a node handles one frame at a time.
	voteBits []uint64
	enc      []byte

	// staged holds per-batch sampler overrides keyed by batch id, set by
	// the referee-side aggregator before it issues the ROUND_BATCH. The
	// map is the only node state touched from another goroutine (the
	// aggregator stages while the node loop votes), hence the mutex.
	stagedMu sync.Mutex
	staged   map[uint32][]dist.Sampler
}

// NewPlayerNode builds a node. timeout bounds each frame wait; zero means
// 10 seconds. The rule's Bits() must be in [1, 64] — the referee would
// reject the HELLO anyway, and failing here keeps the error local.
func NewPlayerNode(id uint32, q int, rule core.LocalRule, sampler dist.Sampler, timeout time.Duration) (*PlayerNode, error) {
	if q < 0 {
		return nil, fmt.Errorf("network: node %d with %d samples", id, q)
	}
	if rule == nil {
		return nil, fmt.Errorf("network: node %d with nil rule", id)
	}
	if sampler == nil {
		return nil, fmt.Errorf("network: node %d with nil sampler", id)
	}
	if timeout < 0 {
		return nil, fmt.Errorf("network: negative timeout %v", timeout)
	}
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	if b := rule.Bits(); b < 1 || b > 64 {
		return nil, fmt.Errorf("network: node %d rule uses %d message bits, want 1..64", id, b)
	}
	return &PlayerNode{
		id: id, q: q, rule: rule, sampler: sampler, timeout: timeout,
		retries: DefaultDialRetries, backoff: DefaultRetryBackoff,
		buf: make([]int, q), rng: engine.NewReusableRNG(),
	}, nil
}

// SetRetryPolicy overrides the connect retry budget: retries is the
// number of attempts after the first (negative clamps to zero, i.e. fail
// fast), backoff the initial sleep between attempts (non-positive selects
// the default), doubled per retry.
func (p *PlayerNode) SetRetryPolicy(retries int, backoff time.Duration) {
	if retries < 0 {
		retries = 0
	}
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	p.retries = retries
	p.backoff = backoff
}

// dialAs uses per-player dialing when the transport supports it, so
// fault-injecting transports can apply per-player plans.
func dialAs(tr Transport, addr net.Addr, player uint32) (net.Conn, error) {
	if pd, ok := tr.(PlayerDialer); ok {
		return pd.DialPlayer(addr, player)
	}
	return tr.Dial(addr)
}

// connect dials the referee and completes the HELLO, retrying transient
// failures with exponential backoff. It returns the ready connection and
// the number of retry attempts spent.
func (p *PlayerNode) connect(tr Transport, addr net.Addr) (net.Conn, int, error) {
	backoff := p.backoff
	var lastErr error
	for attempt := 0; attempt <= p.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		conn, err := dialAs(tr, addr, p.id)
		if err != nil {
			lastErr = fmt.Errorf("network: node %d dial: %w", p.id, err)
			continue
		}
		setDeadline(conn, p.timeout)
		if err := WriteHello(conn, Hello{Player: p.id, Bits: uint8(p.rule.Bits())}); err != nil {
			_ = conn.Close()
			lastErr = fmt.Errorf("network: node %d hello: %w", p.id, err)
			continue
		}
		return conn, attempt, nil
	}
	return nil, p.retries, fmt.Errorf("network: node %d connect failed after %d attempt(s): %w", p.id, p.retries+1, lastErr)
}

// serve is the node's frame loop over an established connection:
// answer every ROUND_BATCH with a vote batch, take VERDICT_BATCH frames
// as they come, and exit on FINISH.
//
// Every frame decodes into the loop's own reader; a ROUND_BATCH's seeds
// are only read before the next decode, so the reuse is safe.
func (p *PlayerNode) serve(conn net.Conn) error {
	fr := new(frameReader)
	for {
		// Referee frames can lag a full referee phase behind — the quorum
		// accept phase before the first ROUND_BATCH, a slow peer's vote
		// before a VERDICT_BATCH — so reads get a two-timeout budget.
		setDeadline(conn, 2*p.timeout)
		t, err := decodeFrame(conn, fr)
		if err != nil {
			return fmt.Errorf("network: node %d read: %w", p.id, err)
		}
		switch t {
		case FrameRoundBatch:
			if err := p.voteBatch(conn, fr.roundBatch()); err != nil {
				return err
			}
		case FrameVerdictBatch:
			// Nothing to do: a node keeps no state across trials.
		case FrameFinish:
			return nil
		default:
			return fmt.Errorf("network: node %d got unexpected %v mid-session", p.id, t)
		}
	}
}

// stageBatch registers per-trial sampler overrides for an upcoming
// ROUND_BATCH. The aggregator calls it before issuing the frame; the
// node loop claims the slice (takeStaged) when the frame arrives. A
// batch with no staged samplers falls back to the node's own sampler
// for every trial.
func (p *PlayerNode) stageBatch(batch uint32, samplers []dist.Sampler) {
	p.stagedMu.Lock()
	if p.staged == nil {
		//lint:ignore dut/hotalloc lazy once-per-node map initialization, reused for every later batch
		p.staged = make(map[uint32][]dist.Sampler)
	}
	p.staged[batch] = samplers
	p.stagedMu.Unlock()
}

// takeStaged claims and removes the sampler overrides staged for a
// batch id.
func (p *PlayerNode) takeStaged(batch uint32) ([]dist.Sampler, bool) {
	p.stagedMu.Lock()
	s, ok := p.staged[batch]
	if ok {
		delete(p.staged, batch)
	}
	p.stagedMu.Unlock()
	return s, ok
}

// voteBatch computes one vote per seed of a ROUND_BATCH and replies
// with the packed VOTE_BATCH (single-bit rules) or VOTE_BATCH_R (r-bit
// rules, one bit-plane per message bit). Each trial derives its
// randomness from engine.NodeRNG(seed, id) feeding SampleInto and the
// rule, so lane j of the reply equals the in-process SMP player's
// message for seed j, whatever the batch size.
//
//dut:hotpath per-batch node sampling and vote encode
func (p *PlayerNode) voteBatch(conn net.Conn, rb RoundBatch) error {
	msgBits := p.rule.Bits()
	count := len(rb.Seeds)
	samplers, staged := p.takeStaged(rb.Batch)
	if staged && len(samplers) != count {
		return fmt.Errorf("network: node %d staged %d samplers for batch %d of %d trials", p.id, len(samplers), rb.Batch, count)
	}
	words := batchWords(count)
	need := msgBits * words
	if cap(p.voteBits) < need {
		p.voteBits = make([]uint64, need)
	}
	voteBits := p.voteBits[:need]
	for i := range voteBits {
		voteBits[i] = 0
	}
	for j, seed := range rb.Seeds {
		sampler := p.sampler
		if staged {
			sampler = samplers[j]
		}
		rng := p.rng.SeedNode(seed, int(p.id))
		dist.SampleInto(sampler, p.buf, rng)
		msg, err := p.rule.Message(int(p.id), p.buf, seed, rng)
		if err != nil {
			return fmt.Errorf("network: node %d rule: %w", p.id, err)
		}
		if msgBits < 64 && msg >= 1<<msgBits {
			return fmt.Errorf("network: node %d message %#x wider than the rule's %d bits", p.id, uint64(msg), msgBits)
		}
		for b := 0; b < msgBits; b++ {
			if msg>>b&1 == 1 {
				voteBits[b*words+j/64] |= 1 << (j % 64)
			}
		}
	}
	var err error
	if msgBits == 1 {
		p.enc, err = AppendVoteBatch(p.enc[:0], VoteBatch{Player: p.id, Batch: rb.Batch, Count: uint32(count), Bits: voteBits})
	} else {
		p.enc, err = AppendVoteBatchR(p.enc[:0], VoteBatchR{
			Player: p.id, Batch: rb.Batch, Count: uint32(count), Bits: uint8(msgBits), Planes: voteBits,
		})
	}
	if err != nil {
		return err
	}
	// Refresh the deadline: a large batch of sampling may have consumed
	// most of the read-phase budget.
	setDeadline(conn, p.timeout)
	return writeCoalesced(conn, p.enc)
}
