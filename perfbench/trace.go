package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/network"
)

// layer names a traced seam.
type layer uint8

const (
	layerChunk  layer = iota // engine.BatchBackend.RunRoundsScratch, one span per chunk
	layerSource              // engine.Source, one span per trial
	layerSample              // dist.BatchSampler.SampleInto, one span per player and trial
	layerRule                // core.LocalRule.Message, one span per player and trial
	layerRead                // net.Conn.Read on a cluster connection
	layerWrite               // net.Conn.Write on a cluster connection
	numLayers
)

var layerNames = [numLayers]string{"chunk", "source", "sample", "rule", "conn_read", "conn_write"}

// span is one recorded call: its layer, the chunk it belongs to (for
// rule spans the round's shared seed, resolved to a chunk at write-out)
// and its start and end in nanoseconds since the recorder's epoch.
type span struct {
	layer      layer
	key        uint64
	start, end int64
}

// recorder keeps spans in a fixed in-memory buffer (later spans are
// counted, not kept) plus exact per-layer totals for every span, and the
// byte counts of the traced transport. Safe for concurrent use.
type recorder struct {
	epoch time.Time
	mem   []byte // the mapping behind spans
	spans []span // span has no pointers, so it may live off-heap
	next  atomic.Int64
	busy  [numLayers]atomic.Int64
	count [numLayers]atomic.Int64
	// Bytes by referee tier (0 root, 1 aggregator): up is what the
	// tier's accepting side reads (towards the root), down what it writes.
	up, down [2]atomic.Int64

	mu     sync.Mutex
	chunks []time.Duration   // every chunk span's duration
	shared map[uint64]uint64 // shared seed -> chunk key, from the source
	seeds  map[uint64]uint64 // engine seed of each call, by call index
}

// newRecorder maps the span buffer outside the Go heap: a heap buffer
// would raise the live heap and with it the GC pacing target, so the
// traced program would collect less often than the untraced one.
func newRecorder(capacity int) (*recorder, error) {
	size := capacity * int(unsafe.Sizeof(span{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the span buffer: %w", err)
	}
	return &recorder{
		epoch:  time.Now(),
		mem:    mem,
		spans:  unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), capacity),
		shared: make(map[uint64]uint64),
		seeds:  make(map[uint64]uint64),
	}, nil
}

// release unmaps the span buffer; the recorder must not be used after.
func (r *recorder) release() {
	r.spans = nil
	_ = syscall.Munmap(r.mem) // the process is about to report and exit
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(l layer, key uint64, start, end int64) {
	r.busy[l].Add(end - start)
	r.count[l].Add(1)
	if i := r.next.Add(1) - 1; i < int64(len(r.spans)) {
		r.spans[i] = span{layer: l, key: key, start: start, end: end}
	}
}

// reset zeroes the totals (not the kept spans) so a phase's numbers
// exclude the set-up traffic before it.
func (r *recorder) reset() {
	for l := range r.busy {
		r.busy[l].Store(0)
		r.count[l].Store(0)
	}
	for t := range r.up {
		r.up[t].Store(0)
		r.down[t].Store(0)
	}
	r.mu.Lock()
	r.chunks = r.chunks[:0]
	r.mu.Unlock()
}

// bytes is the total of every tier and direction.
func (r *recorder) bytes() int64 {
	return r.up[0].Load() + r.up[1].Load() + r.down[0].Load() + r.down[1].Load()
}

// chunkKey is the id every span of one engine chunk shares.
func chunkKey(call, firstTrial int) uint64 { return uint64(call)<<32 | uint64(firstTrial) }

// writeSpans writes the kept spans as CSV (layer, chunk, start_ns,
// end_ns). Rule spans are resolved from their shared seed to the chunk
// the source registered it under.
func (r *recorder) writeSpans(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "layer,chunk_call,chunk_first_trial,start_ns,end_ns")
	n := int(min(r.next.Load(), int64(len(r.spans))))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans[:n] {
		key := s.key
		if s.layer == layerRule {
			key = r.shared[s.key]
		}
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d\n", layerNames[s.layer], key>>32, key&0xffffffff, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return n, f.Close()
}

// tracedSource wraps the workload's engine.Source: it times the source
// call and hands out a timing wrapper around the sampler it returns.
func tracedSource(inner engine.Source, rec *recorder, held *heldBackend, chunk int) engine.Source {
	return func(trial int, rng *rand.Rand) (dist.Sampler, error) {
		call := int(held.call.Load())
		key := chunkKey(call, trial-trial%chunk)
		start := rec.now()
		s, err := inner(trial, rng)
		rec.add(layerSource, key, start, rec.now())
		if err != nil {
			return nil, err
		}
		rec.mu.Lock()
		rec.shared[engine.SharedSeed(rec.seeds[uint64(call)], trial)] = key
		rec.mu.Unlock()
		bs, ok := s.(dist.BatchSampler)
		if !ok {
			return nil, fmt.Errorf("source returned a %T, not a dist.BatchSampler", s)
		}
		return &tracedSampler{inner: bs, rec: rec, key: key}, nil
	}
}

// tracedSampler times SampleInto; it draws exactly what the wrapped
// sampler draws, so verdicts are unchanged.
type tracedSampler struct {
	inner dist.BatchSampler
	rec   *recorder
	key   uint64
}

func (s *tracedSampler) Sample(rng *rand.Rand) int { return s.inner.Sample(rng) }
func (s *tracedSampler) N() int                    { return s.inner.N() }

func (s *tracedSampler) SampleInto(dst []int, rng *rand.Rand) {
	start := s.rec.now()
	s.inner.SampleInto(dst, rng)
	s.rec.add(layerSample, s.key, start, s.rec.now())
}

// tracedRule times core.LocalRule.Message.
type tracedRule struct {
	inner core.LocalRule
	rec   *recorder
}

func (r *tracedRule) Bits() int { return r.inner.Bits() }

func (r *tracedRule) Message(player int, samples []int, shared uint64, private *rand.Rand) (core.Message, error) {
	start := r.rec.now()
	m, err := r.inner.Message(player, samples, shared, private)
	r.rec.add(layerRule, shared, start, r.rec.now())
	return m, err
}

// tracedTransport wraps a network.Transport and every connection it
// makes or accepts, timing Read and Write and counting the bytes the
// accepting side reads (upstream) and writes (downstream), so each byte
// is counted once. Like network.CountingTransport it files the first
// listener under the root tier and later ones under the aggregator
// tier; on a flat star (flat set) every listener is a worker's root.
type tracedTransport struct {
	inner     network.Transport
	rec       *recorder
	flat      bool
	listeners atomic.Int32
}

func (t *tracedTransport) Listen() (net.Listener, error) {
	l, err := t.inner.Listen()
	if err != nil {
		return nil, err
	}
	tier := 0
	if t.listeners.Add(1) > 1 && !t.flat {
		tier = 1
	}
	return &tracedListener{Listener: l, rec: t.rec, tier: tier}, nil
}

func (t *tracedTransport) Dial(addr net.Addr) (net.Conn, error) {
	return t.wrap(t.inner.Dial(addr))
}

func (t *tracedTransport) DialPlayer(addr net.Addr, player uint32) (net.Conn, error) {
	if pd, ok := t.inner.(network.PlayerDialer); ok {
		return t.wrap(pd.DialPlayer(addr, player))
	}
	return t.Dial(addr)
}

func (t *tracedTransport) DialAggregator(addr net.Addr, agg uint32) (net.Conn, error) {
	if ad, ok := t.inner.(network.AggregatorDialer); ok {
		return t.wrap(ad.DialAggregator(addr, agg))
	}
	return t.Dial(addr)
}

func (t *tracedTransport) wrap(c net.Conn, err error) (net.Conn, error) {
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: t.rec}, nil
}

type tracedListener struct {
	net.Listener
	rec  *recorder
	tier int
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.rec, accepted: true, tier: l.tier}, nil
}

type tracedConn struct {
	net.Conn
	rec      *recorder
	accepted bool
	tier     int
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := c.rec.now()
	n, err := c.Conn.Read(p)
	c.rec.add(layerRead, 0, start, c.rec.now())
	if c.accepted {
		c.rec.up[c.tier].Add(int64(n))
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.rec.now()
	n, err := c.Conn.Write(p)
	c.rec.add(layerWrite, 0, start, c.rec.now())
	if c.accepted {
		c.rec.down[c.tier].Add(int64(n))
	}
	return n, err
}
