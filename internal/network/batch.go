package network

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"os"
	"sync"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// This file implements the referee side of multi-trial batch pipelining:
// one long-lived session per engine worker in which ROUND_BATCH frames
// carry up to MaxBatchTrials public-coin seeds at once, nodes answer
// with packed VOTE_BATCH bitsets, and the referee evaluates a whole
// batch of verdicts per synchronization. Each slot gets a dedicated
// writer goroutine fed by an unbounded frame queue: a write blocks once
// the transport's buffer toward a busy peer is full, so queueing the next
// batches' ROUND_BATCH frames while earlier votes are still being
// gathered is what keeps a window of batches in flight whatever the
// transport buffers. Each slot also has a persistent reader goroutine,
// and a gather posts one read request per batch to it, so a settled
// session starts no goroutine per batch. Every cluster round runs here: a
// single SMP round is a batch of one. Determinism is untouched — every
// vote derives from (shared seed, player id) whatever the batch size,
// and the referee's per-batch evaluation reproduces decideVotes bit for
// bit. The root runs one path whatever the topology: the flat star is a
// one-shard tree whose root reduces its own players' votes into the
// same bit-sliced lane counters an aggregator sends upstream, and a
// threshold- or sum-shaped referee decides from those counters,
// word-parallel, at any presence (decideShaped). Only an opaque referee
// is decided trial by trial.

// frameQueue is an unbounded FIFO of already-encoded frames feeding one
// slot's writer goroutine. Unbounded is deliberate: the aggregator must
// never block enqueueing (a bounded queue toward a stalled node could
// deadlock the window), and memory stays bounded anyway because the
// aggregator only issues one chunk — batch times window trials — ahead
// of the gathers. Frames are appended to a flat byte run and drained
// wholesale: the writer claims every pending frame in one swap, so the
// two backing buffers ping-pong at the queue's high-water mark instead
// of growing with total throughput (the previous queue advanced with
// items = items[1:], pinning the consumed head of the backing array for
// the life of the session).
type frameQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte // pending frames, encoded by the wire.go Append* helpers
	frames int    // number of frames in buf
	closed bool
}

func newFrameQueue() *frameQueue {
	q := &frameQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues one encoded frame (the bytes are copied, so the caller
// may reuse its encode buffer immediately); pushes after close are
// dropped.
func (q *frameQueue) push(frame []byte) {
	q.mu.Lock()
	if !q.closed {
		q.buf = append(q.buf, frame...)
		q.frames++
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// drain blocks until at least one frame is pending (or the queue is
// closed and empty), then claims the entire pending run in one swap:
// spare becomes the queue's next accumulation buffer and the caller
// gets the encoded run plus its frame count. ok is false once the queue
// is closed and fully drained.
func (q *frameQueue) drain(spare []byte) (run []byte, frames int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.buf) == 0 {
		return spare[:0], 0, false
	}
	run, frames = q.buf, q.frames
	q.buf, q.frames = spare[:0], 0
	return run, frames, true
}

// close marks the queue finished; pending frames still drain.
func (q *frameQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// batchSlot is the referee side of one connection — a player at the
// flat root or at an aggregator, an aggregator at the tree's root — with
// its writer queue, its reader's request channel, its frame scratch and
// its failure state. The writer, the reader and the aggregator all
// touch the failure state, hence the lock. Only the slot's reader reads
// from the connection, one frame per gather request, and a gathered
// frame is consumed before the next gather starts, so its votes or sums
// may alias rd's scratch until then.
type batchSlot struct {
	conn       net.Conn
	id         uint32 // player id; aggregator id at the tree's root
	q          *frameQueue
	writerDone chan struct{}
	reads      chan slotRead // one-deep; closed by stopReaders
	readerDone chan struct{}
	rd         frameReader

	mu   sync.Mutex
	dead bool
	err  error
}

func newBatchSlot(conn net.Conn, id uint32) *batchSlot {
	return &batchSlot{
		conn: conn, id: id, q: newFrameQueue(), writerDone: make(chan struct{}),
		reads: make(chan slotRead, 1), readerDone: make(chan struct{}),
	}
}

// slotRead is one gather request to a slot's persistent reader: read the
// slot's frame for batch (count trials) and deliver it at index idx of
// the gatherer's table.
type slotRead struct {
	batch uint32
	count int
	idx   int
}

func (b *batchSlot) isDead() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dead
}

// broadcast queues one encoded frame to every live slot (nil = absent).
func broadcast(slots []*batchSlot, frame []byte) {
	for _, slot := range slots {
		if slot == nil || slot.isDead() {
			continue
		}
		slot.q.push(frame)
	}
}

// closeQueues closes every slot's queue; pending frames still drain.
func closeQueues(slots []*batchSlot) {
	for _, slot := range slots {
		if slot != nil {
			slot.q.close()
		}
	}
}

// batchSession is one engine worker's live pipelined session: k node
// goroutines, the accepted referee slots with their writers, and the
// per-batch evaluation scratch. It persists across engine chunks (batch
// ids grow monotonically) until the worker's scratch is closed.
type batchSession struct {
	c        *Cluster
	server   *RefereeServer
	listener net.Listener
	cancel   context.CancelFunc
	nodes    []*PlayerNode
	nodeWG   sync.WaitGroup
	// slots are the root's connections: players by id on the flat star
	// (nil = absent), aggregators by id on the tree (nil = absent).
	slots []*batchSlot

	// readWG counts the root's outstanding slot reads.
	readWG sync.WaitGroup

	// parentDone is the Done channel of the context the session was
	// opened with; waits on node goroutines give up when it closes.
	parentDone <-chan struct{}
	// tracker holds every listener and connection of the session and
	// force-closes them when the session context dies.
	tracker   *connTracker
	trackStop func()

	nextBatch uint32 // aggregator-only

	mu      sync.Mutex
	nodeErr error
	retries int // accumulated node connect retries, not yet reported

	// msgBits is the rule's message width r: 1 gathers classic
	// VOTE_BATCH bitsets, wider rules gather VOTE_BATCH_R plane sets.
	msgBits int

	// Threshold shape of the referee, when it has one: reject iff at
	// least shapeT of the k single-bit votes reject. This is what the
	// word-parallel decide evaluates.
	shapeT  int
	shapeOK bool

	// Sum shape of the referee, when it has one: reject iff the k r-bit
	// values sum to at least sumT. sumOK additionally requires the
	// referee's width to match the rule's and the counter planes to fit,
	// so the word-parallel sum path is only taken when it is exact.
	sumT  int
	sumOK bool

	// Per-batch scratch: delivered vote bitsets (r plane sets) by player
	// id, one word per bit-sliced counter plane, and the batch's lane
	// counters, plane-major.
	deliv    [][]uint64
	planes   []uint64
	counters []uint64

	// Aggregator-only scratch, reused across chunks. enc is the frame
	// encode buffer (push copies bytes into the queue, so it is free
	// again as soon as the pushes return); seeds holds the chunk's
	// public coins, which each flight's ROUND_BATCH slices. samplers is
	// pooled per flight ordinal within a chunk: staged sampler slices
	// stay referenced by the nodes until their batch is gathered, and
	// gather waits on every live slot, so by the time runChunk returns
	// all of them are free.
	enc         []byte
	seeds       []uint64
	samplers    [][]dist.Sampler
	flights     []batchFlight
	verdictBits []uint64

	// Per-trial fallback scratch: one vote slate for decideVotes.
	votes []core.Message
	got   []bool

	// Sharded-tree state, nil/empty on the flat star. aggErr (under mu)
	// records the first aggregator failure; shardSums/shardPresent/
	// shardGot are the root's per-shard gather table, indexed by shard
	// id.
	shards       [][]uint32
	aggs         []*aggregator
	aggErr       error
	shardSums    [][]uint64
	shardPresent []uint32
	shardGot     []bool
}

// batchFlight is one wire batch of a chunk: its frame id and the spec
// range it covers.
type batchFlight struct {
	id           uint32
	start, count int
}

// newBatchSession starts the session: k nodes built before anything
// dials, then the root listener and openBatchSession.
//
//dut:coldpath once-per-session construction; node build, dial and handshake are amortized across every batch the session serves
func newBatchSession(ctx context.Context, c *Cluster) (*batchSession, error) {
	nodes, err := c.buildNodes(dist.NopSampler{})
	if err != nil {
		return nil, err
	}
	l, err := c.tr.Listen()
	if err != nil {
		return nil, fmt.Errorf("network: listen: %w", err)
	}
	return openBatchSession(ctx, c, l, nodes)
}

// openBatchSession runs the session's set-up on the root listener l,
// which it takes over: spawn the node goroutines, accept the players
// (or, on the sharded tree, start the aggregators and accept them), and
// start one writer per accepted slot. Strict-mode node failures cancel
// the session context so a blocked accept unwinds.
//
//dut:coldpath once-per-session construction; amortized across every batch the session serves
func openBatchSession(ctx context.Context, c *Cluster, l net.Listener, nodes []*PlayerNode) (*batchSession, error) {
	server, err := c.newServer()
	if err != nil {
		_ = l.Close()
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	tracker := &connTracker{}
	tracker.track(l)
	bs := &batchSession{
		c: c, server: server, listener: l, cancel: cancel, nodes: nodes,
		parentDone: ctx.Done(), tracker: tracker, trackStop: tracker.watch(runCtx),
		msgBits: c.rule.Bits(),
		deliv:   make([][]uint64, c.k),
		votes:   make([]core.Message, c.k),
		got:     make([]bool, c.k),
	}
	bs.shapeT, bs.shapeOK = core.ThresholdShape(c.referee, c.k)
	planeLen := bits.Len(uint(c.k))
	if sumT, sumBits, ok := core.SumShape(c.referee, c.k); ok && sumBits == bs.msgBits {
		// The bit-sliced sum counter needs Len(k * (2^r - 1)) planes; cap
		// it where the lane sums (and atLeast's threshold compare) stay
		// exact, falling back to per-trial decoding beyond.
		if need := sumBits + bits.Len(uint(c.k)); need <= 62 {
			bs.sumT, bs.sumOK = sumT, true
			if need > planeLen {
				planeLen = need
			}
		}
	}
	bs.planes = make([]uint64, planeLen)

	if err := bs.startRoot(runCtx); err != nil {
		cancel()
		bs.waitNodes()
		bs.trackStop()
		bs.tracker.closeAll()
		// A strict-mode node or aggregator failure is the root cause; the
		// accept error it provokes is only a symptom.
		if !c.tolerant() {
			if nodeErr := bs.peekNodeErr(); nodeErr != nil {
				return nil, nodeErr
			}
			if aggErr := bs.peekAggErr(); aggErr != nil && !isTransportErr(aggErr) {
				return nil, aggErr
			}
		}
		return nil, err
	}
	return bs, nil
}

// startRoot spawns the tier below the root — on the flat star every
// node dials the root, on the tree the aggregators and their nodes
// (spawnShards) — then runs the root's accept phase and starts the
// accepted slots. The flat root takes HELLOs by player id; the tree
// root takes AGG_HELLOs by aggregator id, with the quorum over the
// summed per-shard present counts, because one aggregator speaks for a
// whole shard. Its accept deadline is two timeouts: a quorum
// aggregator holds its own accept phase open for one timeout waiting
// out stragglers before it dials upstream.
func (bs *batchSession) startRoot(ctx context.Context) error {
	s := bs.server
	n, wait, shake, read := s.k, s.timeout, s.helloHandshake(s.placePlayer), bs.deliverVote
	if bs.c.topo.enabled() {
		if err := bs.spawnShards(ctx); err != nil {
			return err
		}
		n, wait, shake, read = len(bs.shards), 2*s.timeout, bs.shakeAggregator, bs.readShard
	} else {
		for _, node := range bs.nodes {
			bs.spawnNode(node, bs.listener.Addr())
		}
	}
	slots, err := s.acceptPlayers(ctx, bs.listener, bs.tracker, n, wait, shake)
	if err != nil {
		return err
	}
	bs.slots = slots
	bs.startSlots(slots, read, &bs.readWG)
	return nil
}

// spawnNode runs one player node against addr: connect (dial + HELLO
// with retries), then serve frames until FINISH. Failures are recorded
// with failNode.
func (bs *batchSession) spawnNode(node *PlayerNode, addr net.Addr) {
	bs.nodeWG.Add(1)
	//lint:ignore dut/ctxprop cancel() closes the listeners and session conns, which unwinds connect and serve; a ctx check here would race the same teardown
	go func() {
		defer bs.nodeWG.Done()
		conn, retries, err := node.connect(bs.c.tr, addr)
		bs.addRetries(retries)
		if err != nil {
			bs.failNode(err)
			return
		}
		defer func() { _ = conn.Close() }()
		if err := node.serve(conn); err != nil {
			bs.failNode(err)
		}
	}()
}

// startSlots starts one writer and one persistent reader per present
// slot. The reader serves each gather request with read and reports its
// completion on done.
//
//dut:coldpath once per slot at session set-up; the read hook is bound here, not per batch
func (bs *batchSession) startSlots(slots []*batchSlot, read func(*batchSlot, slotRead), done *sync.WaitGroup) {
	for _, slot := range slots {
		if slot == nil {
			continue
		}
		//lint:ignore dut/ctxprop the writer drains until its frame queue closes (every teardown closes it); cancellation reaches it through failSlot closing the conn
		go bs.slotWriter(slot)
		//lint:ignore dut/ctxprop the reader idles until its request channel closes (every teardown closes it); a read in progress ends at its deadline or when teardown closes the conn
		go slotReader(slot, read, done)
	}
}

// stopReaders ends every slot's reader and waits for them to exit. Only
// the goroutine that gathers from the slots may call it, once its last
// gather has returned, so no request is in flight.
func stopReaders(slots []*batchSlot) {
	for _, slot := range slots {
		if slot != nil {
			close(slot.reads)
		}
	}
	for _, slot := range slots {
		if slot != nil {
			<-slot.readerDone
		}
	}
}

// slotReader is a slot's persistent reader. It serves one gather request
// at a time with exactly one read and never reads ahead: the frame it
// delivers aliases the slot's rd scratch until the next gather.
//
//dut:hotpath
func slotReader(slot *batchSlot, read func(*batchSlot, slotRead), done *sync.WaitGroup) {
	defer close(slot.readerDone)
	for r := range slot.reads {
		read(slot, r)
		done.Done()
	}
}

// waitNodes waits for the node goroutines, but not past the death of
// the session's parent context: a node stuck inside its own rule cannot
// be force-aborted. Its connection is closed by then, so it unwinds as
// soon as the rule returns.
//
//dut:coldpath teardown only: session close, failed set-up and strict-mode aborts
func (bs *batchSession) waitNodes() {
	done := make(chan struct{})
	//lint:ignore dut/ctxprop wg.Wait has no cancellation hook; the goroutine only closes done, and the select below honors the parent context
	go func() {
		bs.nodeWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-bs.parentDone:
	}
}

func (bs *batchSession) addRetries(n int) {
	bs.mu.Lock()
	bs.retries += n
	bs.mu.Unlock()
}

// takeRetries claims the retries accumulated since the last report, so
// each retry is counted on exactly one trial's stats.
func (bs *batchSession) takeRetries() int {
	bs.mu.Lock()
	n := bs.retries
	bs.retries = 0
	bs.mu.Unlock()
	return n
}

// failNode records a node-goroutine error; in strict mode it also tears
// the session down (any node failure dooms every further trial).
func (bs *batchSession) failNode(err error) {
	bs.mu.Lock()
	if bs.nodeErr == nil {
		bs.nodeErr = err
	}
	bs.mu.Unlock()
	if !bs.c.tolerant() {
		bs.cancel()
	}
}

func (bs *batchSession) peekNodeErr() error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.nodeErr
}

// failSlot marks a slot dead and closes its connection, recording the
// first error. In quorum mode the slot is simply a straggler from then
// on; in strict mode the next gather reports it.
func (bs *batchSession) failSlot(slot *batchSlot, err error) {
	slot.mu.Lock()
	already := slot.dead
	slot.dead = true
	if slot.err == nil {
		slot.err = err
	}
	slot.mu.Unlock()
	if !already {
		_ = slot.conn.Close()
	}
}

// slotWriter drains one slot's frame queue onto its connection. Writes
// use the write deadline only — the gather goroutines own the same
// connection's read deadline concurrently. Each wake-up claims every
// pending frame and flushes them in a single write under one deadline
// scaled by the frame count, so a full window of queued frames costs
// one syscall pair instead of one per frame while each frame keeps its
// original per-frame time budget. The node reads frame by frame off the
// same stream, so coalescing is invisible to it.
//
//dut:hotpath
func (bs *batchSession) slotWriter(slot *batchSlot) {
	defer close(slot.writerDone)
	var spare []byte
	for {
		run, frames, ok := slot.q.drain(spare)
		spare = run
		if !ok {
			return
		}
		if slot.isDead() {
			continue // keep draining; the slot is out of the session
		}
		setWriteDeadline(slot.conn, time.Duration(frames)*bs.server.timeout)
		if err := writeCoalesced(slot.conn, run); err != nil {
			//lint:ignore dut/hotalloc failure path: failSlot drops the player, so the error allocation never recurs on a live slot
			bs.failSlot(slot, fmt.Errorf("network: coalesced write of %d frame(s) to player %d: %w", frames, slot.id, err))
		}
	}
}

// runChunk executes one engine chunk: trial i's public coin is
// engine.SharedSeed(specs[i].Seed, specs[i].Trial). out receives one
// RoundResult per spec.
func (bs *batchSession) runChunk(ctx context.Context, specs []engine.RoundSpec, batch int, out []engine.RoundResult) error {
	seeds := bs.seeds[:0]
	for _, spec := range specs {
		seeds = append(seeds, engine.SharedSeed(spec.Seed, spec.Trial))
	}
	bs.seeds = seeds
	return bs.runSeeded(ctx, specs, seeds, batch, out)
}

// runSeeded executes a chunk whose public coins are given, seeds[i] for
// specs[i]: it slices the chunk into wire batches of at most batch
// trials, issues every ROUND_BATCH up front (putting the whole window
// in flight), then gathers and decides batch by batch.
func (bs *batchSession) runSeeded(ctx context.Context, specs []engine.RoundSpec, seeds []uint64, batch int, out []engine.RoundResult) error {
	flights := bs.flights[:0]
	for start := 0; start < len(specs); start += batch {
		count := min(len(specs)-start, batch)
		ord := len(flights)
		if ord == len(bs.samplers) {
			bs.samplers = append(bs.samplers, nil)
		}
		samplers := bs.samplers[ord][:0]
		for _, spec := range specs[start : start+count] {
			if spec.Sampler == nil {
				bs.flights = flights
				return fmt.Errorf("network: nil sampler")
			}
			samplers = append(samplers, spec.Sampler)
		}
		bs.samplers[ord] = samplers
		id := bs.nextBatch
		bs.nextBatch++
		for _, node := range bs.nodes {
			node.stageBatch(id, samplers)
		}
		enc, err := AppendRoundBatch(bs.enc[:0], RoundBatch{Batch: id, Seeds: seeds[start : start+count]})
		bs.enc = enc
		if err != nil {
			bs.flights = flights
			return err
		}
		broadcast(bs.slots, enc)
		flights = append(flights, batchFlight{id: id, start: start, count: count})
	}
	bs.flights = flights
	retries := 0
	for i, fl := range flights {
		if err := ctx.Err(); err != nil {
			return bs.chunkErr(err)
		}
		sw := engine.StartStopwatch()
		var received int
		if bs.sharded() {
			received = bs.gatherShards(fl.id, fl.count)
		} else {
			received = gather(bs.slots, bs.deliv, &bs.readWG, fl.id, fl.count)
		}
		if i == 0 {
			// Claim connect retries once the chunk's first batch is gathered:
			// a node or aggregator records its retries before it serves its
			// first frame, so every voter's retries are in by now. An empty
			// chunk leaves them accumulated for the next chunk's stats.
			retries = bs.takeRetries()
		}
		if bs.server.strict() && received < bs.c.k {
			return bs.chunkErr(bs.firstSlotErr())
		}
		results := out[fl.start : fl.start+fl.count]
		verdictBits, err := bs.decideBatch(fl.count, received, results)
		if err != nil {
			return bs.chunkErr(err)
		}
		// Verdict fan-out mirrors the gather's shape: on the tree the root
		// encodes one AGG_VERDICT — verdict bitset plus the per-shard
		// present accounting it just decided with — and queues the same
		// bytes to every aggregator, so its downstream work is
		// O(aggregators) regardless of player count; each aggregator
		// re-expands it into the VERDICT_BATCH its shard expects. The flat
		// star pushes VERDICT_BATCH to every player directly.
		var enc []byte
		if bs.sharded() {
			av := AggVerdict{Batch: fl.id, Count: uint32(fl.count), Present: bs.shardPresent, Bits: verdictBits}
			enc, err = AppendAggVerdict(bs.enc[:0], av)
		} else {
			vb := VerdictBatch{Batch: fl.id, Count: uint32(fl.count), Bits: verdictBits}
			enc, err = AppendVerdictBatch(bs.enc[:0], vb)
		}
		bs.enc = enc
		if err != nil {
			return bs.chunkErr(err)
		}
		broadcast(bs.slots, enc)
		// Wall time is shared evenly: the batch synchronized once for
		// count trials (the division remainder lands on the first trial so
		// the batch's summed wall time equals its elapsed time).
		engine.SpreadWall(results, sw.Elapsed())
		results[0].Retries = retries
		retries = 0
	}
	return nil
}

// chunkErr resolves the root cause of a strict-mode failure. A node
// that dies first (crash, rule error) leaves the referee only a bare
// transport error — EOF, closed pipe, blown deadline — so in that case
// the recorded node failure is the story. A descriptive referee-side error (echo-check mismatch, width
// violation) is itself the root cause: the node's subsequent EOF is the
// symptom of the referee closing the offending connection.
func (bs *batchSession) chunkErr(err error) error {
	if !bs.c.tolerant() {
		bs.cancel()
		bs.waitNodes()
		// A descriptive aggregator-recorded error (a member's protocol
		// violation escalated by failMember, or the aggregator's own) is a
		// root cause on par with a node crash.
		if aggErr := bs.peekAggErr(); aggErr != nil && !isTransportErr(aggErr) && (err == nil || isTransportErr(err)) {
			return aggErr
		}
		if nodeErr := bs.peekNodeErr(); nodeErr != nil && (err == nil || isTransportErr(err)) {
			return nodeErr
		}
		if aggErr := bs.peekAggErr(); aggErr != nil && (err == nil || isTransportErr(err)) {
			return aggErr
		}
	}
	return err
}

// isTransportErr reports whether err is a bare IO failure rather than a
// validated protocol violation.
func isTransportErr(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}

// firstSlotErr reports why a strict-mode gather came up short. A
// descriptive protocol violation wins over bare transport errors: once
// one slot is failed the session tears down and every other in-flight
// gather dies with an EOF that is pure collateral.
func (bs *batchSession) firstSlotErr() error {
	var first error
	note := func(err error) error {
		if err != nil && !isTransportErr(err) {
			return err
		}
		if first == nil && err != nil {
			first = err
		}
		return nil
	}
	for _, slot := range bs.slots {
		if slot == nil {
			continue
		}
		slot.mu.Lock()
		err := slot.err
		slot.mu.Unlock()
		if root := note(err); root != nil {
			return root
		}
	}
	// On the sharded tree the violation may be a member's, recorded on
	// its aggregator-side slot (a.slots is published before AGG_HELLO,
	// which the root read before runChunk could run, so reading it here
	// is ordered).
	for _, a := range bs.aggs {
		for _, slot := range a.slots {
			if slot == nil {
				continue
			}
			slot.mu.Lock()
			err := slot.err
			slot.mu.Unlock()
			if root := note(err); root != nil {
				return root
			}
		}
	}
	if root := note(bs.peekAggErr()); root != nil {
		return root
	}
	if first != nil {
		return first
	}
	return fmt.Errorf("network: batch gather incomplete with no recorded slot failure")
}

// gather collects one batch's VOTE_BATCH (r = 1) or VOTE_BATCH_R
// (r > 1) from every live slot at once, through the slots' persistent
// readers. Delivered plane sets land in deliv at the slot's index
// (nil = absent) — players by id at the flat root, members by shard
// position at an aggregator — and a slot whose vote batch fails
// readVotes is failed by the tier's read hook. It returns the number of
// valid deliveries.
//
//dut:hotpath
func gather(slots []*batchSlot, deliv [][]uint64, wg *sync.WaitGroup, batchID uint32, count int) int {
	clear(deliv)
	postReads(slots, wg, batchID, count)
	received := 0
	for _, d := range deliv {
		if d != nil {
			received++
		}
	}
	return received
}

// postReads hands one read of batch batchID to every live slot's reader
// and waits for all of them. The request channels never block: every
// reader finished its previous request before the last gather returned.
func postReads(slots []*batchSlot, wg *sync.WaitGroup, batchID uint32, count int) {
	for i, slot := range slots {
		if slot == nil || slot.isDead() {
			continue
		}
		wg.Add(1)
		slot.reads <- slotRead{batch: batchID, count: count, idx: i}
	}
	wg.Wait()
}

// deliverVote is the flat root's read hook: one player's vote batch into
// bs.deliv, or the slot out of the session.
//
//dut:hotpath
func (bs *batchSession) deliverVote(slot *batchSlot, r slotRead) {
	planes, err := bs.readVotes(slot, r.batch, r.count)
	if err != nil {
		bs.failSlot(slot, err)
		return
	}
	bs.deliv[r.idx] = planes
}

// readVotes reads one slot's vote batch and checks its echoes: the
// connection's player id, the batch id, the trial count and the rule's
// message width. The returned planes live in the slot's reader and stay
// valid until its next read.
func (bs *batchSession) readVotes(slot *batchSlot, batchID uint32, count int) ([]uint64, error) {
	// The vote can lag the node's whole batch of sampling plus a queued
	// verdict write; budget two timeouts, like every other cross-phase
	// read.
	setReadDeadline(slot.conn, 2*bs.server.timeout)
	want := FrameVoteBatchR
	if bs.msgBits == 1 {
		want = FrameVoteBatch
	}
	if err := expectFrameInto(slot.conn, &slot.rd, want); err != nil {
		return nil, fmt.Errorf("network: vote batch from player %d: %w", slot.id, err)
	}
	vb := slot.rd.voteBatchR() // a VOTE_BATCH reads as its one-plane VOTE_BATCH_R
	switch {
	case vb.Player != slot.id:
		return nil, fmt.Errorf("network: vote batch claims player %d on player %d's connection", vb.Player, slot.id)
	case vb.Batch != batchID:
		return nil, fmt.Errorf("network: player %d answered batch %d, expected %d", slot.id, vb.Batch, batchID)
	case int(vb.Count) != count:
		return nil, fmt.Errorf("network: player %d voted on %d trials of batch %d, expected %d", slot.id, vb.Count, batchID, count)
	case int(vb.Bits) != bs.msgBits:
		return nil, fmt.Errorf("network: player %d sent %d-bit votes, the rule uses %d bits", slot.id, vb.Bits, bs.msgBits)
	}
	return vb.Planes, nil
}

// decideBatch evaluates every trial of a gathered batch, filling one
// RoundResult per trial and returning the packed verdict bits. A
// threshold-shaped (1-bit) or sum-shaped (r-bit) referee decides the
// whole batch word-parallel at any presence (decideShaped). An opaque
// referee is decided trial by trial: each trial's vote slate is rebuilt
// from the delivered planes and handed to decideVotes.
func (bs *batchSession) decideBatch(count, received int, out []engine.RoundResult) ([]uint64, error) {
	words := batchWords(count)
	if cap(bs.verdictBits) < words {
		bs.verdictBits = make([]uint64, words)
	}
	verdictBits := bs.verdictBits[:words]
	clear(verdictBits)
	k := bs.c.k
	if bs.shapeOK || bs.sumOK {
		if err := bs.decideShaped(count, received, verdictBits); err != nil {
			return nil, err
		}
		for j := range out {
			out[j] = engine.RoundResult{
				Verdict:    verdictBits[j/64]>>(j%64)&1 == 1,
				Votes:      received,
				Stragglers: k - received,
				Messages:   received,
				Samples:    received * bs.c.q,
			}
		}
		return verdictBits, nil
	}
	votes, got := bs.votes, bs.got
	for j := 0; j < count; j++ {
		for i := range votes {
			votes[i] = 0
			got[i] = false
		}
		for player, d := range bs.deliv {
			if d == nil {
				continue
			}
			var msg core.Message
			for b := 0; b < bs.msgBits; b++ {
				msg |= core.Message(d[b*words+j/64]>>(j%64)&1) << b
			}
			votes[player] = msg
			got[player] = true
		}
		accept, recv, err := bs.server.decideVotes(votes, got)
		out[j] = engine.RoundResult{
			Verdict:    accept,
			Votes:      recv,
			Stragglers: k - recv,
			Messages:   recv,
			Samples:    recv * bs.c.q,
		}
		if err != nil {
			return nil, err
		}
		if accept {
			verdictBits[j/64] |= 1 << (j % 64)
		}
	}
	return verdictBits, nil
}

// decideShaped evaluates a gathered batch word-parallel: take the
// batch's bit-sliced lane counters (laneCounters), check the quorum,
// then compare each lane's total against the presence-adjusted
// threshold. Padding lanes above count are masked off so the verdict
// bitset stays wire-legal.
//
//dut:hotpath
func (bs *batchSession) decideShaped(count, received int, verdictBits []uint64) error {
	acc, err := bs.laneCounters(count)
	if err != nil {
		return err
	}
	if received < bs.server.minVotes {
		return fmt.Errorf("network: quorum not met: %d of %d votes, need %d", received, bs.c.k, bs.server.minVotes)
	}
	t, err := bs.adjustedThreshold(received)
	if err != nil {
		return err
	}
	words := batchWords(count)
	col := bs.planes
	for w := 0; w < words; w++ {
		for p := range col {
			col[p] = acc[p*words+w]
		}
		verdictBits[w] = ^atLeast(col, t)
	}
	if rem := count % 64; rem != 0 {
		verdictBits[words-1] &= 1<<rem - 1
	}
	return nil
}

// adjustedThreshold maps the batch's presence onto the rejection- or
// sum-threshold the per-trial decideVotes would effectively apply with
// received of k votes in. Absent players enter the per-trial decision
// per the resolved absentee policy: Omit re-shapes the rule at the
// smaller count (exact for every stock threshold rule — AND stays 1,
// OR and Majority follow the count, fixed thresholds stay fixed);
// Accept contributes zero rejections (zero value), leaving the
// threshold alone for sums and — because the lane counters only ever
// count real votes — for thresholds too; Reject contributes one
// rejection (value zero) per absentee, so the remaining votes need
// that many fewer rejections.
func (bs *batchSession) adjustedThreshold(received int) (int, error) {
	k := bs.c.k
	if bs.shapeOK {
		if received == k {
			return bs.shapeT, nil
		}
		switch core.ResolveAbsentee(bs.server.policy, bs.server.decide) {
		case core.AbsenteeOmit:
			t, ok := core.ThresholdShape(bs.server.decide, received)
			if !ok {
				return 0, fmt.Errorf("network: referee lost its threshold shape at %d votes", received)
			}
			return t, nil
		case core.AbsenteeAccept:
			return bs.shapeT, nil
		default: // core.AbsenteeReject: each absentee is one rejection already counted for.
			return bs.shapeT - (k - received), nil
		}
	}
	if received == k {
		return bs.sumT, nil
	}
	if core.ResolveAbsentee(bs.server.policy, bs.server.decide) == core.AbsenteeAccept {
		// core.Accept is message value 1, so each absentee adds one to the
		// per-trial sum; the lane counters hold only real votes.
		return bs.sumT - (k - received), nil
	}
	// Omit and Reject both contribute value zero to the sum.
	return bs.sumT, nil
}

// laneCounters returns the batch's per-lane rejection counts (threshold
// shape) or value sums (sum shape) as bit-sliced counter planes,
// plane-major. The flat root is a one-shard tree: it reduces its own
// delivery table exactly as an aggregator reduces its shard. The tree
// root adds its aggregators' partial sums lane-wise.
func (bs *batchSession) laneCounters(count int) ([]uint64, error) {
	if !bs.sharded() {
		return bs.reduceShard(bs.deliv, count, bs.planes, &bs.counters), nil
	}
	words := batchWords(count)
	planes := len(bs.planes)
	acc := grow(bs.counters, planes*words)
	bs.counters = acc
	clear(acc)
	for i, got := range bs.shardGot {
		if got && combineShardSums(acc, bs.shardSums[i], planes, words) {
			return nil, fmt.Errorf("network: aggregator %d overflowed the referee's batch counters", i)
		}
	}
	return acc, nil
}

// reduceShard reduces one batch's delivered plane sets (nil = absent)
// into bit-sliced counter planes, plane-major in *sums, which grows to
// fit: per-lane rejection counts for a threshold-shaped referee, value
// sums for a sum-shaped one. col is the per-word scratch, one word per
// counter plane.
//
//dut:hotpath
func (bs *batchSession) reduceShard(deliv [][]uint64, count int, col []uint64, sums *[]uint64) []uint64 {
	words := batchWords(count)
	s := grow(*sums, len(col)*words)
	*sums = s
	if bs.shapeOK {
		reduceThresholdSums(deliv, count, words, col, s)
	} else {
		reduceValueSums(deliv, bs.msgBits, words, col, s)
	}
	return s
}

// atLeast returns a word with bit j set iff lane j's bit-sliced counter
// is at least t; planes[i] holds bit i of every lane's counter.
func atLeast(planes []uint64, t int) uint64 {
	if t <= 0 {
		return ^uint64(0)
	}
	if len(planes) < 63 && t >= 1<<len(planes) {
		return 0
	}
	ge, eq := uint64(0), ^uint64(0)
	for i := len(planes) - 1; i >= 0; i-- {
		var tb uint64
		if t>>i&1 == 1 {
			tb = ^uint64(0)
		}
		ge |= eq & planes[i] &^ tb
		eq &= ^(planes[i] ^ tb)
	}
	return ge | eq
}

// Close finishes the session: FINISH rides each slot's queue behind any
// pending verdicts, the writers drain and exit, the idle readers exit,
// the aggregators relay it and exit, the nodes unwind, and the
// connections close.
func (bs *batchSession) Close() error {
	broadcast(bs.slots, AppendFinish(nil))
	closeQueues(bs.slots)
	for _, slot := range bs.slots {
		if slot != nil {
			<-slot.writerDone
		}
	}
	stopReaders(bs.slots)
	// Sharded: FINISH is now on the wire to every aggregator; each one
	// relays it, drains its pending reductions and exits. Wait for them
	// before cancelling so a clean shutdown never races the force-close.
	for _, a := range bs.aggs {
		<-a.done
	}
	bs.cancel()
	bs.waitNodes()
	bs.trackStop()
	bs.tracker.closeAll()
	if !bs.c.tolerant() {
		return bs.peekNodeErr()
	}
	return nil
}

// setReadDeadline bounds only reads: the batch session's slot writer
// owns the same connection's write deadline concurrently, and a full
// SetDeadline from either side would clobber the other's budget.
func setReadDeadline(conn net.Conn, d time.Duration) {
	//lint:ignore dut/nondeterminism net deadlines need an absolute instant; bounds frame IO waits, never the verdict
	_ = conn.SetReadDeadline(time.Now().Add(d))
}

// setWriteDeadline is setReadDeadline's write-side counterpart.
func setWriteDeadline(conn net.Conn, d time.Duration) {
	//lint:ignore dut/nondeterminism net deadlines need an absolute instant; bounds frame IO waits, never the verdict
	_ = conn.SetWriteDeadline(time.Now().Add(d))
}
