package network

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// Conformance of MemTransport's buffered connection: the error contract
// net.Pipe established (which isTransportErr and the quorum accept logic
// depend on), backpressure once a direction's buffer is full, the
// single-timer deadline scheme, and a warm connection's zero-allocation
// steady state.

// memConnPair dials a fresh pair through a MemTransport listener, so the
// tests exercise exactly what a session gets.
func memConnPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	tr := NewMemTransport()
	l, err := tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err = tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })
	return client, server
}

// result is one finished Read or Write.
type result struct {
	n   int
	err error
}

// goRead starts a Read of size bytes and reports it on the returned
// channel.
func goRead(c net.Conn, size int) <-chan result {
	done := make(chan result, 1)
	go func() {
		n, err := c.Read(make([]byte, size))
		done <- result{n, err}
	}()
	return done
}

// goWrite starts a Write of p and reports it on the returned channel.
func goWrite(c net.Conn, p []byte) <-chan result {
	done := make(chan result, 1)
	go func() {
		n, err := c.Write(p)
		done <- result{n, err}
	}()
	return done
}

// await waits for a result, failing the test after a generous bound.
func await(t *testing.T, what string, ch <-chan result) result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still blocked after 10s", what)
		return result{}
	}
}

// assertBlocked checks that the call has not returned after a short wait.
func assertBlocked(t *testing.T, what string, ch <-chan result) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("%s returned (%d, %v), want it blocked", what, r.n, r.err)
	case <-time.After(20 * time.Millisecond):
	}
}

// fillBuffer writes exactly one buffer's worth, which must not block.
func fillBuffer(t *testing.T, c net.Conn) {
	t.Helper()
	if n, err := c.Write(make([]byte, memBufSize)); n != memBufSize || err != nil {
		t.Fatalf("filling the buffer: (%d, %v)", n, err)
	}
}

func TestMemConnEOFAfterDrain(t *testing.T) {
	a, b := memConnPair(t)
	msg := []byte("buffered before close")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatalf("ReadAll after the peer closed: %v (io.ReadAll maps EOF to nil)", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q after the peer closed, want the buffered %q", got, msg)
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("drained read = %v, want io.EOF", err)
	}
	if _, err := b.Write(msg); err != io.ErrClosedPipe {
		t.Fatalf("write toward a closed peer = %v, want io.ErrClosedPipe", err)
	}
	if _, err := a.Read(make([]byte, 1)); err != io.ErrClosedPipe {
		t.Fatalf("read after the local Close = %v, want io.ErrClosedPipe", err)
	}
	if _, err := a.Write(msg); err != io.ErrClosedPipe {
		t.Fatalf("write after the local Close = %v, want io.ErrClosedPipe", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(make([]byte, 1)); err != io.ErrClosedPipe {
		t.Fatalf("read after both closed = %v, want io.ErrClosedPipe", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func TestMemConnDeadlineSemantics(t *testing.T) {
	a, b := memConnPair(t)
	if _, err := a.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// A deadline already in the past fails at once, buffered bytes or not.
	if err := b.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err := b.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline = %v, want os.ErrDeadlineExceeded", err)
	}
	if !isTransportErr(err) {
		t.Fatalf("isTransportErr(%v) = false", err)
	}
	// The zero time clears it.
	if err := b.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Read(make([]byte, 1)); n != 1 || err != nil {
		t.Fatalf("read after clearing the deadline = (%d, %v), want (1, nil)", n, err)
	}
	if err := a.SetWriteDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("y")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past its deadline = %v, want os.ErrDeadlineExceeded", err)
	}
	// The read and write deadlines of one direction are independent: the
	// reader's cleared deadline does not clear the writer's.
	if err := b.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("y")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past its deadline after the reader cleared its own = %v", err)
	}
	_ = a.Close()
	if err := b.SetDeadline(time.Now().Add(time.Second)); err != io.ErrClosedPipe {
		t.Fatalf("SetDeadline on a closed connection = %v, want io.ErrClosedPipe", err)
	}
}

// TestMemConnDeadlineExtendedNeverFiresEarly arms a short deadline, then
// extends it while a Read is blocked: the armed timer fires at the old
// instant, but must re-arm instead of failing the Read.
func TestMemConnDeadlineExtendedNeverFiresEarly(t *testing.T) {
	_, b := memConnPair(t)
	if err := b.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	extended := time.Now().Add(150 * time.Millisecond)
	if err := b.SetReadDeadline(extended); err != nil {
		t.Fatal(err)
	}
	r := await(t, "read with an extended deadline", goRead(b, 1))
	if !errors.Is(r.err, os.ErrDeadlineExceeded) {
		t.Fatalf("read = %v, want os.ErrDeadlineExceeded", r.err)
	}
	if early := time.Until(extended); early > 0 {
		t.Fatalf("read failed %v before its extended deadline", early)
	}
}

// TestMemConnDeadlinePulledInFiresOnTime pulls a far deadline in while a
// Read and a Write are blocked on it: both must fail near the new
// instant, not the old one.
func TestMemConnDeadlinePulledInFiresOnTime(t *testing.T) {
	a, _ := memConnPair(t)
	fillBuffer(t, a)
	if err := a.SetDeadline(time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	read := goRead(a, 1) // nothing flows toward a
	write := goWrite(a, []byte("z"))
	assertBlocked(t, "write on a full buffer", write)
	near := time.Now().Add(30 * time.Millisecond)
	if err := a.SetDeadline(near); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		ch   <-chan result
	}{{"read", read}, {"write", write}} {
		r := await(t, c.what+" with a pulled-in deadline", c.ch)
		if !errors.Is(r.err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s = %v, want os.ErrDeadlineExceeded", c.what, r.err)
		}
	}
	if early := time.Until(near); early > 0 {
		t.Fatalf("deadline fired %v early", early)
	}
}

// TestMemConnFullBufferBackpressure blocks a writer on a full buffer and
// releases it each way: a Read making room, a Close of either end, and
// the writer's own deadline.
func TestMemConnFullBufferBackpressure(t *testing.T) {
	const extra = 100
	blocked := func(t *testing.T) (a, b net.Conn, write <-chan result) {
		a, b = memConnPair(t)
		fillBuffer(t, a)
		write = goWrite(a, make([]byte, extra))
		assertBlocked(t, "write on a full buffer", write)
		return a, b, write
	}
	t.Run("read", func(t *testing.T) {
		_, b, write := blocked(t)
		if _, err := io.ReadFull(b, make([]byte, extra)); err != nil {
			t.Fatal(err)
		}
		if r := await(t, "write after a read made room", write); r.n != extra || r.err != nil {
			t.Fatalf("write = (%d, %v), want (%d, nil)", r.n, r.err, extra)
		}
		if n, err := io.ReadFull(b, make([]byte, memBufSize)); n != memBufSize || err != nil {
			t.Fatalf("draining = (%d, %v)", n, err)
		}
	})
	t.Run("peer-close", func(t *testing.T) {
		_, b, write := blocked(t)
		_ = b.Close()
		if r := await(t, "write after the peer closed", write); r.err != io.ErrClosedPipe {
			t.Fatalf("write = (%d, %v), want io.ErrClosedPipe", r.n, r.err)
		}
	})
	t.Run("local-close", func(t *testing.T) {
		a, _, write := blocked(t)
		_ = a.Close()
		if r := await(t, "write after the local Close", write); r.err != io.ErrClosedPipe {
			t.Fatalf("write = (%d, %v), want io.ErrClosedPipe", r.n, r.err)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		a, _, write := blocked(t)
		if err := a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if r := await(t, "write past its deadline", write); r.n != 0 || !errors.Is(r.err, os.ErrDeadlineExceeded) {
			t.Fatalf("write = (%d, %v), want (0, os.ErrDeadlineExceeded)", r.n, r.err)
		}
	})
}

// TestMemConnCloseRacesBlockedCalls closes one end while a Read and a
// Write are blocked on the other, for either end, many times over (the
// race pass runs it too): both calls must always come back.
func TestMemConnCloseRacesBlockedCalls(t *testing.T) {
	for i := 0; i < 200; i++ {
		a, b := memConnPair(t)
		fillBuffer(t, a)
		read := goRead(a, 1)
		write := goWrite(a, []byte("w"))
		victim := a
		if i%2 == 1 {
			victim = b
		}
		_ = victim.Close()
		for _, c := range []struct {
			what string
			ch   <-chan result
		}{{"read", read}, {"write", write}} {
			r := await(t, c.what+" racing Close", c.ch)
			if !errors.Is(r.err, io.ErrClosedPipe) && !errors.Is(r.err, io.EOF) {
				t.Fatalf("iteration %d: %s racing Close = %v, want io.ErrClosedPipe or io.EOF", i, c.what, r.err)
			}
		}
	}
}

// TestMemConnZeroAllocs: once the buffers and the deadline timer exist,
// a SetReadDeadline + Write + Read cycle allocates nothing. Skipped under
// the race detector, whose instrumentation allocates.
func TestMemConnZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	a, b := memConnPair(t)
	msg := bytes.Repeat([]byte{0xa5}, 512)
	buf := make([]byte, len(msg))
	cycle := func() {
		_ = b.SetReadDeadline(time.Now().Add(time.Second))
		_ = a.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("a warm deadline+write+read cycle allocates %.1f, want 0", allocs)
	}
}
