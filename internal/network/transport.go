package network

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Transport abstracts how players reach the referee. Implementations must
// be safe for concurrent Dial calls.
type Transport interface {
	// Listen opens the referee's endpoint.
	Listen() (net.Listener, error)
	// Dial connects a player to the listener returned by Listen.
	Dial(addr net.Addr) (net.Conn, error)
}

// PlayerDialer is an optional Transport extension: transports that care
// which player is dialing — fault injection applies per-player plans —
// implement it, and PlayerNode prefers it over plain Dial.
type PlayerDialer interface {
	// DialPlayer connects the identified player to the listener.
	DialPlayer(addr net.Addr, player uint32) (net.Conn, error)
}

// AggregatorDialer is the aggregator-tier counterpart of PlayerDialer:
// transports that fault the L1 -> root hop per aggregator implement it,
// and the sharded referee tree's aggregators prefer it when dialing the
// root.
type AggregatorDialer interface {
	// DialAggregator connects the identified aggregator to the root.
	DialAggregator(addr net.Addr, agg uint32) (net.Conn, error)
}

// acceptDeadliner is the listener extension the quorum-mode referee needs:
// both *net.TCPListener and memListener provide it.
type acceptDeadliner interface {
	SetDeadline(t time.Time) error
}

// Verify interface compliance.
var (
	_ Transport = (*TCPTransport)(nil)
	_ Transport = (*MemTransport)(nil)
)

// TCPTransport connects over TCP loopback.
type TCPTransport struct{}

// Listen implements Transport on 127.0.0.1 with an ephemeral port.
func (TCPTransport) Listen() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// Dial implements Transport.
func (TCPTransport) Dial(addr net.Addr) (net.Conn, error) {
	return net.Dial(addr.Network(), addr.String())
}

// MemTransport connects through in-process buffered connections (see
// memConn): zero syscalls, fully deterministic scheduling aside from
// goroutine interleaving.
type MemTransport struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	next      int
}

// NewMemTransport returns an empty in-memory fabric.
func NewMemTransport() *MemTransport {
	return &MemTransport{listeners: make(map[string]*memListener)}
}

// Listen implements Transport.
func (m *MemTransport) Listen() (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name := fmt.Sprintf("mem-%d", m.next)
	m.next++
	l := &memListener{
		addr:   memAddr(name),
		accept: make(chan net.Conn),
		done:   make(chan struct{}),
		onClose: func() {
			m.mu.Lock()
			delete(m.listeners, name)
			m.mu.Unlock()
		},
	}
	m.listeners[name] = l
	return l, nil
}

// Dial implements Transport.
func (m *MemTransport) Dial(addr net.Addr) (net.Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr.String()]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("network: no in-memory listener at %q", addr)
	}
	client, server := newMemConnPair(l.addr)
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("network: listener %q closed", addr)
	}
}

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

type memListener struct {
	addr    memAddr
	accept  chan net.Conn
	done    chan struct{}
	once    sync.Once
	onClose func()

	mu       sync.Mutex
	deadline time.Time
}

// SetDeadline mirrors net.TCPListener's accept deadline: an Accept blocked
// past t fails with an error wrapping os.ErrDeadlineExceeded. The zero
// time clears the deadline.
func (l *memListener) SetDeadline(t time.Time) error {
	l.mu.Lock()
	l.deadline = t
	l.mu.Unlock()
	return nil
}

func (l *memListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	deadline := l.deadline
	l.mu.Unlock()
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, fmt.Errorf("network: accept on %q: %w", l.addr, os.ErrDeadlineExceeded)
		}
		tm := time.NewTimer(wait)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("network: listener %q closed", l.addr)
	case <-timeout:
		return nil, fmt.Errorf("network: accept on %q: %w", l.addr, os.ErrDeadlineExceeded)
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		if l.onClose != nil {
			l.onClose()
		}
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

// memBufSize is the capacity of each direction of a memConn. A writer
// blocks only once this many bytes wait unread, so a stalled reader
// still pushes back on its peer and write deadlines still fire. The
// buffer grows to its high-water mark on demand, so a connection that
// only ever carries small frames holds little.
const memBufSize = 4 << 10

// memConn is one end of an in-memory connection: a buffered net.Conn
// whose errors match net.Pipe's. Read after the local Close fails with
// io.ErrClosedPipe; Read after the peer's Close returns the buffered
// bytes, then io.EOF; Write after either Close fails with
// io.ErrClosedPipe; a blown deadline fails with os.ErrDeadlineExceeded.
// Unlike net.Pipe, a Write returns as soon as its bytes are buffered, and
// deadlines cost no allocation once a direction's timer exists.
type memConn struct {
	rx, tx *memPipe // peer -> this end, this end -> peer
	addr   memAddr
}

// newMemConnPair returns the two ends of a fresh connection.
//
//dut:coldpath once per dialed connection
func newMemConnPair(addr memAddr) (client, server *memConn) {
	up, down := newMemPipe(), newMemPipe()
	return &memConn{rx: down, tx: up, addr: addr}, &memConn{rx: up, tx: down, addr: addr}
}

// memPipe is one direction of a memConn: the bytes written and not yet
// read, both ends' close flags, and the reading end's read deadline and
// the writing end's write deadline. One lock and one condition variable
// cover all of it; a blocked Read waits for bytes, a blocked Write for
// room, and both for a close or their deadline.
type memPipe struct {
	mu   sync.Mutex
	cond sync.Cond
	buf  []byte // unread bytes are buf[off:]
	off  int

	rclosed, wclosed bool      // the reading / writing end closed
	rdl, wdl         time.Time // zero = no deadline

	// timer wakes the waiters when a deadline passes. It is created on
	// first use and armed for the instant armed (zero = idle). A later
	// deadline leaves it alone, so a stream of ever-later deadlines costs
	// no timer operation; when it fires it re-arms for whatever deadline
	// is still ahead.
	timer *time.Timer
	armed time.Time
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond.L = &p.mu
	return p
}

// expired reports whether deadline dl is set and has passed.
func expired(dl time.Time) bool {
	//lint:ignore dut/nondeterminism deadlines are absolute instants; bounds frame IO waits, never the verdict
	return !dl.IsZero() && !time.Now().Before(dl)
}

func (p *memPipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		unread := len(p.buf) - p.off
		switch {
		case p.rclosed:
			return 0, io.ErrClosedPipe
		case unread == 0 && p.wclosed:
			return 0, io.EOF
		case expired(p.rdl):
			return 0, os.ErrDeadlineExceeded
		case unread > 0 || len(b) == 0:
			n := copy(b, p.buf[p.off:])
			p.off += n
			if p.off == len(p.buf) {
				p.buf, p.off = p.buf[:0], 0
			}
			p.cond.Broadcast() // room for a blocked writer
			return n, nil
		}
		p.cond.Wait()
	}
}

func (p *memPipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for {
		switch {
		case p.rclosed || p.wclosed:
			return n, io.ErrClosedPipe
		case expired(p.wdl):
			return n, os.ErrDeadlineExceeded
		}
		if room := memBufSize - (len(p.buf) - p.off); room > 0 || n == len(b) {
			m := min(room, len(b)-n)
			if p.off > 0 && len(p.buf)+m > cap(p.buf) {
				// Slide the unread bytes down rather than grow past the
				// high-water mark.
				p.buf, p.off = p.buf[:copy(p.buf, p.buf[p.off:])], 0
			}
			p.buf = append(p.buf, b[n:n+m]...)
			n += m
			p.cond.Broadcast() // bytes for a blocked reader
			if n == len(b) {
				return n, nil
			}
			continue
		}
		p.cond.Wait()
	}
}

// setDeadline stores deadline t into dl (p.rdl or p.wdl) and makes sure
// the timer fires by then. Callers hold p.mu.
func (p *memPipe) setDeadline(dl *time.Time, t time.Time) error {
	if p.rclosed || p.wclosed {
		return io.ErrClosedPipe
	}
	*dl = t
	if t.IsZero() || (!p.armed.IsZero() && !t.Before(p.armed)) {
		return nil // the armed timer fires first, then re-arms for t
	}
	wait := time.Until(t)
	if wait <= 0 {
		p.cond.Broadcast() // a deadline in the past fails blocked calls at once
		return nil
	}
	p.armed = t
	if p.timer == nil {
		p.timer = time.AfterFunc(wait, p.fire)
	} else {
		p.timer.Reset(wait)
	}
	return nil
}

// fire is the deadline timer's callback: wake the waiters if a deadline
// has passed, and re-arm for the earliest deadline still ahead.
func (p *memPipe) fire() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed = time.Time{}
	if p.rclosed || p.wclosed {
		return
	}
	//lint:ignore dut/nondeterminism deadlines are absolute instants; bounds frame IO waits, never the verdict
	now := time.Now()
	var next time.Time
	for _, dl := range [...]time.Time{p.rdl, p.wdl} {
		switch {
		case dl.IsZero():
		case !now.Before(dl):
			p.cond.Broadcast()
		case next.IsZero() || dl.Before(next):
			next = dl
		}
	}
	if !next.IsZero() {
		p.armed = next
		p.timer.Reset(next.Sub(now))
	}
}

// closeEnd marks one end of the pipe closed and releases every waiter;
// no call on a pipe with a closed end ever blocks again, so the timer
// is no longer needed.
func (p *memPipe) closeEnd(reader bool) {
	p.mu.Lock()
	if reader {
		p.rclosed = true
	} else {
		p.wclosed = true
	}
	if p.timer != nil {
		p.timer.Stop()
		p.armed = time.Time{}
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (c *memConn) Read(b []byte) (int, error)  { return c.rx.read(b) }
func (c *memConn) Write(b []byte) (int, error) { return c.tx.write(b) }

// Close closes this end; it is idempotent, like net.Pipe's.
func (c *memConn) Close() error {
	c.rx.closeEnd(true)
	c.tx.closeEnd(false)
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.rx.mu.Lock()
	defer c.rx.mu.Unlock()
	return c.rx.setDeadline(&c.rx.rdl, t)
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.tx.mu.Lock()
	defer c.tx.mu.Unlock()
	return c.tx.setDeadline(&c.tx.wdl, t)
}

func (c *memConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

func (c *memConn) LocalAddr() net.Addr  { return c.addr }
func (c *memConn) RemoteAddr() net.Addr { return c.addr }
