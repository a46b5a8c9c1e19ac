package mercury

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"mochi/internal/metrics"
	"mochi/internal/testutil"
)

func newTCPPair(t *testing.T) (*Class, *Class) {
	t.Helper()
	a, err := NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPEcho(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := a.Forward(ctx, b.Addr(), NameToID("echo"), []byte("over tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "over tcp" {
		t.Fatalf("got %q", out)
	}
}

func TestTCPLargePayload(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("len", func(h *Handle) { _ = h.Respond(h.Input()) })
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := a.Forward(ctx, b.Addr(), NameToID("len"), payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(payload) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range out {
		if out[i] != payload[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

func TestTCPBulkTransfer(t *testing.T) {
	a, b := newTCPPair(t)
	data := []byte("tcp bulk data!")
	remote := b.CreateBulk(data, BulkReadOnly)
	local := a.CreateBulk(make([]byte, len(data)), BulkReadWrite)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.BulkTransfer(ctx, BulkPull, remote.Descriptor(), 0, local, 0, uint64(len(data))); err != nil {
		t.Fatal(err)
	}
	if string(local.mem) != string(data) {
		t.Fatalf("got %q", local.mem)
	}
}

func TestTCPUnreachable(t *testing.T) {
	a, _ := newTCPPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := a.Forward(ctx, "tcp://127.0.0.1:1", NameToID("echo"), nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPConcurrent(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := a.Forward(ctx, b.Addr(), NameToID("echo"), []byte("x")); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPPeerShutdownThenError(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := a.Forward(ctx, b.Addr(), NameToID("echo"), nil); err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	b.Close()
	time.Sleep(50 * time.Millisecond)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if _, err := a.Forward(ctx2, addr, NameToID("echo"), nil); err == nil {
		t.Fatal("forward to closed peer succeeded")
	}
}

// TestTCPCloseReapsGoroutines checks the TCP transport's accept loop,
// per-connection read loops, and response readers all exit when the
// classes close — real sockets must not leak goroutines across a
// connect/forward/close cycle.
func TestTCPCloseReapsGoroutines(t *testing.T) {
	before := testutil.GoroutineCount()
	a, err := NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := a.Forward(ctx, b.Addr(), NameToID("echo"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()
	testutil.WaitGoroutinesSettle(t, before, 2)
}

// TestTCPCloseClosesSilentInbound dials a class and sends nothing, so
// the accepted connection joins no response route, then closes the
// class: the connection must be closed with it (the dialer reads EOF),
// not left to a reader that outlives the class.
func TestTCPCloseClosesSilentInbound(t *testing.T) {
	cls, err := NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cls.SetMetrics(reg)
	conn, err := net.Dial("tcp", cls.Addr()[len("tcp://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Close only once the connection is accepted: one still in the
	// listen backlog would be reset, not served and closed.
	if got := bmInboundEventually(cls.tr.(*tcpTransport).metrics(), 1, 5*time.Second); got != 1 {
		t.Fatalf("inbound gauge = %v, want 1", got)
	}
	cls.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := conn.Read(b[:]); !errors.Is(err, io.EOF) {
		t.Fatalf("read after Close = %v, want EOF", err)
	}
}

// TestTCPConcurrentFrameIntegrity hammers one TCP connection from many
// goroutines with size-varied, content-checked payloads. It exists to
// catch interleaved or torn frames in the coalescing write path: any
// cross-contamination between concurrent sends corrupts a checksum or
// a byte pattern and fails loudly.
func TestTCPConcurrentFrameIntegrity(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("verify", func(h *Handle) {
		in := h.Input()
		if len(in) < 2 {
			_ = h.RespondError(errors.New("short frame"))
			return
		}
		// Payload layout: tag byte, then len(in)-2 copies of tag+1,
		// then a checksum byte summing everything before it.
		tag := in[0]
		var sum uint8
		for _, c := range in[:len(in)-1] {
			sum += c
		}
		for _, c := range in[1 : len(in)-1] {
			if c != tag+1 {
				_ = h.RespondError(errors.New("frame corrupted: bad body byte"))
				return
			}
		}
		if in[len(in)-1] != sum {
			_ = h.RespondError(errors.New("frame corrupted: bad checksum"))
			return
		}
		// Respond with the tag so the caller can match it.
		_ = h.Respond(in[:1])
	})

	const (
		goroutines = 48
		perG       = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tag := byte(g)
				size := 2 + (g*131+i*17)%4096 // vary frame sizes across goroutines
				payload := make([]byte, size)
				payload[0] = tag
				for j := 1; j < size-1; j++ {
					payload[j] = tag + 1
				}
				var sum uint8
				for _, c := range payload[:size-1] {
					sum += c
				}
				payload[size-1] = sum
				out, err := a.Forward(ctx, b.Addr(), NameToID("verify"), payload)
				if err != nil {
					errs <- err
					return
				}
				if len(out) != 1 || out[0] != tag {
					errs <- errors.New("response routed to wrong caller")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTCPDialHonorsContextCancel is the regression test for a stall
// in the outbound dial path: getConn used to hold the transport lock
// across DialContext, so while one dial hung (a blackholed host), a
// concurrent sender — even one whose own context was about to expire,
// or one retrying with backoff toward a different destination — sat
// on the mutex, unable to observe its cancellation. Now waiters on
// the same destination select on their own context, and dials to
// other destinations proceed concurrently.
func TestTCPDialHonorsContextCancel(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })

	release := make(chan struct{})
	oldDial := tcpDialContext
	blackhole := "tcp://192.0.2.1:9" // TEST-NET-1: never dialed for real
	tcpDialContext = func(ctx context.Context, host string) (net.Conn, error) {
		if "tcp://"+host == blackhole {
			// Simulate a dial that hangs until canceled, as against a
			// host that silently drops SYNs.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
				return nil, syscall.ECONNREFUSED
			}
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", host)
	}
	defer func() {
		close(release)
		tcpDialContext = oldDial
	}()

	// First sender: long deadline, hangs in the blackholed dial.
	firstErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := a.Forward(ctx, blackhole, NameToID("echo"), nil)
		firstErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it own the pending dial

	// Second sender to the same destination with a short deadline must
	// observe its own cancellation promptly instead of riding out the
	// first sender's 30s dial.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := a.Forward(ctx, blackhole, NameToID("echo"), nil)
	cancel()
	if err == nil {
		t.Fatal("forward to blackholed destination succeeded")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("canceled sender stalled %v behind another sender's dial", waited)
	}

	// A sender to a healthy destination must not queue behind the
	// hung dial at all.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := a.Forward(ctx2, b.Addr(), NameToID("echo"), []byte("x")); err != nil {
		t.Fatalf("healthy destination blocked by unrelated dial: %v", err)
	}

	// Unblock the first dial and reap it.
	release <- struct{}{}
	if err := <-firstErr; err == nil {
		t.Fatal("blackholed forward unexpectedly succeeded")
	}
}
