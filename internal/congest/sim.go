package congest

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// MessageBits is the CONGEST bandwidth cap per edge per round. The classic
// model allows O(log n) bits; 64 accommodates every protocol here while
// still catching accidental flooding (the simulator enforces that payloads
// fit).
const MessageBits = 64

// Payload is one edge-message: a value of at most MessageBits significant
// bits.
type Payload uint64

// fitsBits reports whether p uses at most b significant bits.
func (p Payload) fitsBits(b int) bool {
	return bits.Len64(uint64(p)) <= b
}

// Outbox collects a node's messages for the current round. Slots are
// indexed by the neighbor's position in the node's ascending-sorted
// neighbor list — flat slices instead of a per-round map, so a round of
// sends touches no allocator and no hashing.
type Outbox struct {
	node      int
	neighbors []int // ascending neighbor ids
	msgs      []Payload
	has       []bool
	awake     bool // StayAwake was called this round
}

// newOutbox builds the outbox for a node with the given ascending-sorted
// neighbor list.
//
//dut:coldpath once-per-node construction during ensureBuffers; rounds reuse the outbox
func newOutbox(node int, neighbors []int) *Outbox {
	return &Outbox{
		node:      node,
		neighbors: neighbors,
		msgs:      make([]Payload, len(neighbors)),
		has:       make([]bool, len(neighbors)),
	}
}

// reset clears the outbox for a fresh round.
func (o *Outbox) reset() {
	clear(o.has)
	o.awake = false
}

// StayAwake asks the simulator to step this node in the next round even
// if no message arrives for it. The request covers that one round only:
// a node that needs the clock (a timer, a deferred send) calls it on
// every step that must be followed by another.
func (o *Outbox) StayAwake() {
	o.awake = true
}

// Send queues a message to a neighbor; sending twice to the same neighbor
// in one round, to a non-neighbor, or over the bandwidth cap is an error
// (the simulator is strict so protocol bugs surface as failures, not as
// silently cheaty behavior).
func (o *Outbox) Send(to int, p Payload) error {
	pos, ok := slices.BinarySearch(o.neighbors, to)
	if !ok {
		return fmt.Errorf("congest: node %d sending to non-neighbor %d", o.node, to)
	}
	if o.has[pos] {
		return fmt.Errorf("congest: node %d sending twice to %d in one round", o.node, to)
	}
	if !p.fitsBits(MessageBits) {
		return fmt.Errorf("congest: message exceeds %d bits", MessageBits)
	}
	o.msgs[pos], o.has[pos] = p, true
	return nil
}

// Queued reports whether a message to the given neighbor is already
// queued this round, letting programs postpone lower-priority traffic
// instead of violating the one-message-per-edge-per-round rule.
func (o *Outbox) Queued(to int) bool {
	pos, ok := slices.BinarySearch(o.neighbors, to)
	return ok && o.has[pos]
}

// Inbox is the set of messages a node received last round, indexed by the
// sender's position in the node's ascending-sorted neighbor list.
type Inbox struct {
	msgs []Payload
	has  []bool
}

// Get returns the message from the neighbor at the given position in the
// node's sorted neighbor list, and whether one arrived this round.
func (in Inbox) Get(pos int) (Payload, bool) {
	if !in.has[pos] {
		return 0, false
	}
	return in.msgs[pos], true
}

// NodeProgram is a synchronous-round state machine. Step is called with
// the messages received at the start of the round; it queues this
// round's messages on the outbox and returns true when the node has
// terminated (a terminated node keeps receiving but no longer steps).
//
// Wake contract: every node is stepped in round 0. After that, a node
// that has not terminated is stepped only in a round in which its inbox
// holds at least one message, or in the round after a Step that called
// Outbox.StayAwake. A round in which neither holds is one in which the
// node is not called at all, so a program must not rely on seeing every
// round number; one that needs the clock calls StayAwake on every step.
// The simulator infers nothing from a node's own sends.
type NodeProgram interface {
	Step(round int, in Inbox, out *Outbox) (done bool, err error)
}

// Simulator drives a set of node programs over a graph in synchronous
// rounds. It is event-driven: a round steps only the nodes the wake
// contract on NodeProgram names (those with mail, and those that asked
// to stay awake), in ascending id order, so its cost follows the
// messages sent rather than n times the round count. Run's round buffers
// (inboxes, outboxes, wake sets, termination flags) persist on the
// struct and are clean between runs, so a Reset-and-rerun loop (the
// engine's batch scratch path) executes allocation-free.
type Simulator struct {
	graph    *Graph
	programs []NodeProgram
	// Stats.
	rounds        int
	messagesSent  int
	maxBitsInAMsg int
	// Reusable round buffers (see ensureBuffers). sortedAdj holds each
	// node's ascending neighbor list (the Graph's own adjacency keeps
	// insertion order, which BFS parents depend on); edgeBack[u][i] is
	// the position of u in sortedAdj[v] for v = sortedAdj[u][i], so
	// delivery is a direct index instead of a map insert. The two inbox
	// generations are swapped every round; an Inbox handed to Step is
	// only valid for that call. wake[g] is a bitset over node ids
	// holding exactly the nodes with mail in inboxes[g] plus those that
	// asked to stay awake into that generation's round; only those
	// inboxes are ever dirty, so only those are cleared.
	done      []bool
	sortedAdj [][]int
	edgeBack  [][]int
	inboxes   [2][]Inbox
	wake      [2][]uint64
	outs      []*Outbox
}

// NewSimulator validates that there is exactly one program per node.
//
//dut:coldpath once-per-run construction; Run reuses the simulator's buffers across rounds
func NewSimulator(g *Graph, programs []NodeProgram) (*Simulator, error) {
	if g == nil {
		return nil, fmt.Errorf("congest: nil graph")
	}
	if len(programs) != g.N() {
		return nil, fmt.Errorf("congest: %d programs for %d nodes", len(programs), g.N())
	}
	for i, p := range programs {
		if p == nil {
			return nil, fmt.Errorf("congest: nil program at node %d", i)
		}
	}
	return &Simulator{graph: g, programs: programs}, nil
}

// ensureBuffers allocates the reusable round buffers on first use.
//
//dut:coldpath first-use buffer construction behind a len guard; later rounds return early and reuse
func (s *Simulator) ensureBuffers(n int) {
	if len(s.done) == n {
		return
	}
	s.done = make([]bool, n)
	s.sortedAdj = make([][]int, n)
	s.edgeBack = make([][]int, n)
	s.outs = make([]*Outbox, n)
	for u := 0; u < n; u++ {
		adj := s.graph.Neighbors(u)
		sort.Ints(adj)
		s.sortedAdj[u] = adj
	}
	for u := 0; u < n; u++ {
		adj := s.sortedAdj[u]
		back := make([]int, len(adj))
		for i, v := range adj {
			pos, ok := slices.BinarySearch(s.sortedAdj[v], u)
			if !ok {
				// Graph edges are symmetric by construction; a miss here
				// would be a Graph invariant violation, not a protocol bug.
				panic(fmt.Sprintf("congest: edge %d-%d has no reverse entry", u, v))
			}
			back[i] = pos
		}
		s.edgeBack[u] = back
		s.outs[u] = newOutbox(u, adj)
	}
	for g := range s.inboxes {
		s.inboxes[g] = make([]Inbox, n)
		for u := 0; u < n; u++ {
			deg := len(s.sortedAdj[u])
			s.inboxes[g][u] = Inbox{msgs: make([]Payload, deg), has: make([]bool, deg)}
		}
		s.wake[g] = make([]uint64, (n+63)/64)
	}
}

// scrub restores clean round buffers after a run that stopped on an
// error, which can leave mail and wake bits anywhere.
func (s *Simulator) scrub() {
	for g := range s.inboxes {
		for u := range s.inboxes[g] {
			clear(s.inboxes[g][u].has)
		}
		clear(s.wake[g])
	}
}

// Reset prepares the simulator for a fresh run over the same graph and
// program set: statistics restart at zero while the round buffers stay
// allocated. The programs themselves must be re-armed by the caller
// (e.g. uniformityNode.reset); Reset-then-Run is bit-identical to a
// newly constructed simulator because Run leaves its buffers clean on
// every exit and all iteration is in ascending id and sorted-adjacency
// order.
func (s *Simulator) Reset() {
	s.rounds, s.messagesSent, s.maxBitsInAMsg = 0, 0, 0
}

// Run executes rounds until every node has terminated. Each round steps
// the live nodes the wake contract (see NodeProgram) names, in ascending
// id order. Two outcomes are errors, since a correct protocol
// terminates: quiescence, where nodes are still running but no message
// is in flight and no node asked to stay awake (reported at once, with
// the round it was found at), and exhausting maxRounds, which bounds a
// livelock. The Inbox a program receives is reused between rounds —
// valid only inside Step.
func (s *Simulator) Run(maxRounds int) error {
	if maxRounds <= 0 {
		return fmt.Errorf("congest: maxRounds %d", maxRounds)
	}
	n := s.graph.N()
	s.ensureBuffers(n)
	if err := s.run(n, maxRounds); err != nil {
		s.scrub()
		return err
	}
	return nil
}

// run is Run over clean buffers. On success it leaves them clean again:
// each round clears the inboxes and wake bits it walks, and the mail
// still in flight when the last node terminates is cleared at the end.
func (s *Simulator) run(n, maxRounds int) error {
	clear(s.done)
	inboxes, next := s.inboxes[0], s.inboxes[1]
	wake, nextWake := s.wake[0], s.wake[1]
	// Round 0 steps every node.
	for w := range wake {
		wake[w] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		wake[len(wake)-1] = 1<<r - 1
	}
	remaining := n
	for round := 0; remaining > 0; round++ {
		if round >= maxRounds {
			return fmt.Errorf("congest: %d nodes still running after %d rounds", remaining, maxRounds)
		}
		if !slices.ContainsFunc(wake, func(w uint64) bool { return w != 0 }) {
			return fmt.Errorf("congest: %d nodes still running at round %d with no message in flight and no node awake", remaining, round)
		}
		s.rounds = round + 1
		for w, word := range wake {
			wake[w] = 0
			for ; word != 0; word &= word - 1 {
				u := w<<6 | bits.TrailingZeros64(word)
				if !s.done[u] {
					finished, err := s.step(u, round, inboxes[u], next, nextWake)
					if err != nil {
						return fmt.Errorf("congest: node %d round %d: %w", u, round, err)
					}
					if finished {
						s.done[u] = true
						remaining--
					}
				}
				clear(inboxes[u].has)
			}
		}
		inboxes, next = next, inboxes
		wake, nextWake = nextWake, wake
	}
	// Mail sent in the last round to nodes that had already terminated.
	for w, word := range wake {
		wake[w] = 0
		for ; word != 0; word &= word - 1 {
			clear(inboxes[w<<6|bits.TrailingZeros64(word)].has)
		}
	}
	return nil
}

// step runs node u's program for one round and delivers what it sent
// into the next inbox generation, setting each recipient's bit in
// nextWake, and u's own bit if it asked to stay awake.
func (s *Simulator) step(u, round int, in Inbox, next []Inbox, nextWake []uint64) (bool, error) {
	out := s.outs[u]
	out.reset()
	finished, err := s.programs[u].Step(round, in, out)
	if err != nil {
		return false, err
	}
	back := s.edgeBack[u]
	for pos, to := range s.sortedAdj[u] {
		if !out.has[pos] {
			continue
		}
		p := out.msgs[pos]
		next[to].msgs[back[pos]] = p
		next[to].has[back[pos]] = true
		nextWake[to>>6] |= 1 << (to & 63)
		s.messagesSent++
		if b := bits.Len64(uint64(p)); b > s.maxBitsInAMsg {
			s.maxBitsInAMsg = b
		}
	}
	if !finished && out.awake {
		nextWake[u>>6] |= 1 << (u & 63)
	}
	return finished, nil
}

// Rounds returns the number of rounds executed.
func (s *Simulator) Rounds() int { return s.rounds }

// MessagesSent returns the total number of edge-messages sent.
func (s *Simulator) MessagesSent() int { return s.messagesSent }

// MaxMessageBits returns the largest significant bit-length observed.
func (s *Simulator) MaxMessageBits() int { return s.maxBitsInAMsg }
