package mercury

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"testing"
	"time"

	"mochi/internal/codec"
	"mochi/internal/metrics"
	"mochi/internal/testutil"
)

// TestTCPConcurrentSendClose races in-flight forwards against Close:
// whatever the interleaving, every forward must return (success or a
// classified error), nothing may panic, and the class must shut down.
func TestTCPConcurrentSendClose(t *testing.T) {
	for round := 0; round < 4; round++ {
		a, err := NewTCPClassOptions("127.0.0.1:0", TCPOptions{PoolSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewTCPClassOptions("127.0.0.1:0", TCPOptions{PoolSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)

		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					_, err := a.Forward(ctx, b.Addr(), NameToID("echo"), []byte("x"))
					if err != nil {
						// Closing mid-flight legitimately surfaces as one
						// of the transport's classified errors.
						if !errors.Is(err, ErrClassClosed) && !errors.Is(err, ErrConnReset) &&
							!errors.Is(err, ErrUnreachable) && !errors.Is(err, ErrTimeout) &&
							ctx.Err() == nil {
							panic(fmt.Sprintf("unclassified forward error: %v", err))
						}
						return
					}
				}
			}()
		}
		close(start)
		// Close the client mid-traffic on even rounds, the server on odd
		// ones: both directions of teardown race the sends.
		time.Sleep(time.Duration(round) * time.Millisecond)
		if round%2 == 0 {
			a.Close()
		} else {
			b.Close()
		}
		wg.Wait()
		a.Close()
		b.Close()
		cancel()
	}
}

// closeHook runs before inside Close: after the class is marked closed,
// before its transport stops — where a request the transport has already
// read meets the handler table.
type closeHook struct {
	transport
	before func()
}

func (h *closeHook) close() error {
	if h.before != nil {
		h.before()
	}
	return h.transport.close()
}

// TestCloseNeverAnswersNoHandler: a request the transport reads while
// Close runs is answered by its handler, never "no handler", which its
// caller would take for an RPC the peer lacks. Each round a seeded
// schedule sends one request over net.Pipe either before Close or inside
// it, after the class is marked closed and before its transport stops.
// Handlers used to be dropped before the transport stopped, and a
// request inside Close then read status 1.
func TestCloseNeverAnswersNoHandler(t *testing.T) {
	const seed = 46
	rng := rand.New(rand.NewPCG(seed, 0))
	seen := map[string]int{}
	for round := 0; round < 12; round++ {
		b, err := NewTCPClassOptions("127.0.0.1:0", TCPOptions{PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
		hook := &closeHook{transport: b.tr}
		b.tr = hook
		client, server := net.Pipe()
		go hook.transport.(*tcpTransport).serveInbound(server)
		statuses := make(chan uint8, 4)
		go func() { // every response frame the peer sends, until the pipe closes
			defer close(statuses)
			br := bufio.NewReader(client)
			var scratch []byte
			for {
				n, err := readFrameLen(br)
				if err != nil {
					return
				}
				m, err := readFrameBody(br, n, &scratch)
				if err != nil {
					return
				}
				statuses <- m.status
			}
		}()
		call := func(when string) {
			m := &message{kind: msgRequest, seq: uint64(round + 1), id: NameToID("echo"), provider: AnyProvider, src: "tcp://pipe-peer", payload: []byte("x")}
			enc := codec.NewEncoder(nil)
			enc.Uint32(0)
			m.Proc(enc.Proc())
			frame := enc.Bytes()
			binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
			if _, err := client.Write(frame); err != nil {
				t.Fatalf("seed %d round %d, %s: the request was not read: %v", seed, round, when, err)
			}
			if st, ok := <-statuses; !ok || st != 0 {
				t.Fatalf("seed %d round %d, %s: response status %d (pipe open %v), want 0", seed, round, when, st, ok)
			}
		}
		if rng.IntN(2) == 0 {
			call("before Close")
			seen["before Close"]++
		} else {
			hook.before = func() { call("inside Close") }
			seen["inside Close"]++
		}
		b.Close()
		for st := range statuses { // the pipe closes with the transport
			t.Fatalf("seed %d round %d: a response with status %d after Close", seed, round, st)
		}
		client.Close()
	}
	if len(seen) != 2 {
		t.Fatalf("seed %d covers %v, want both schedules", seed, seen)
	}
}

// TestTCPWriteErrorEvictsPooledConn breaks every cached connection
// under a pooled transport and checks the next forwards transparently
// redial: write errors must evict exactly the broken slot, not poison
// the pool.
func TestTCPWriteErrorEvictsPooledConn(t *testing.T) {
	a, err := NewTCPClassOptions("127.0.0.1:0", TCPOptions{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPClassOptions("127.0.0.1:0", TCPOptions{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for round := 0; round < 3; round++ {
		// Warm all four slots (sequence numbers stripe round-robin).
		for i := 0; i < 8; i++ {
			if _, err := a.Forward(ctx, b.Addr(), NameToID("echo"), []byte("warm")); err != nil {
				t.Fatalf("round %d warm %d: %v", round, i, err)
			}
		}
		// Sever every cached connection out from under the pool.
		a.tr.(*tcpTransport).resetConn(b.Addr())
		// Concurrent forwards must all recover via redial. A request can
		// land in a socket the instant before it is torn down and vanish
		// without an error (at-most-once transport; the resilience layer
		// owns retries), so drive each forward with short per-attempt
		// deadlines instead of assuming the first error is sticky.
		var wg sync.WaitGroup
		errCh := make(chan error, 16)
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var lastErr error
				for attempt := 0; attempt < 10; attempt++ {
					actx, acancel := context.WithTimeout(ctx, 500*time.Millisecond)
					_, err := a.Forward(actx, b.Addr(), NameToID("echo"), []byte("after"))
					acancel()
					if err == nil {
						errCh <- nil
						return
					}
					lastErr = err
				}
				errCh <- lastErr
			}()
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			if err != nil {
				t.Fatalf("round %d: forward after eviction: %v", round, err)
			}
		}
	}
}

// TestTCPManyConnFrameIntegrity is the scaled-down-under-race version
// of the C10K run: many client classes, each with a pooled transport,
// hammering one server with distinguishable payloads. Every response
// must match its request bit for bit — interleaved writev batches and
// shared read buffers must never leak bytes across frames.
func TestTCPManyConnFrameIntegrity(t *testing.T) {
	clients, perClient := 64, 20
	if testutil.RaceEnabled || testing.Short() {
		clients, perClient = 12, 10
	}
	srv, err := NewTCPClassOptions("127.0.0.1:0", TCPOptions{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		cls, cerr := NewTCPClassOptions("127.0.0.1:0", TCPOptions{PoolSize: 4})
		if cerr != nil {
			t.Fatal(cerr)
		}
		t.Cleanup(func() { cls.Close() })
		wg.Add(1)
		go func(c int, cls *Class) {
			defer wg.Done()
			// Two workers per client so pool striping and egress
			// batching both engage.
			var cwg sync.WaitGroup
			for w := 0; w < 2; w++ {
				cwg.Add(1)
				go func(w int) {
					defer cwg.Done()
					for i := 0; i < perClient; i++ {
						payload := []byte(fmt.Sprintf("client-%d-worker-%d-msg-%d-%s", c, w, i, "padpadpadpadpad"))
						out, err := cls.Forward(ctx, srv.Addr(), NameToID("echo"), payload)
						if err != nil {
							errCh <- fmt.Errorf("client %d: %w", c, err)
							return
						}
						if string(out) != string(payload) {
							errCh <- fmt.Errorf("client %d: frame corrupted: sent %q got %q", c, payload, out)
							return
						}
					}
				}(w)
			}
			cwg.Wait()
		}(c, cls)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestTCPResponseRidesInboundConn proves responses do not dial back:
// with outbound dialing disabled on the server side, a forward must
// still complete because the response returns on the connection the
// request arrived on.
func TestTCPResponseRidesInboundConn(t *testing.T) {
	realDial := tcpDialContext
	t.Cleanup(func() { tcpDialContext = realDial })

	a, err := NewTCPClassOptions("127.0.0.1:0", TCPOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPClassOptions("127.0.0.1:0", TCPOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })

	// Only the client may dial; any dial toward the client's listener
	// (the old transport's response path) fails loudly.
	clientHost := a.Addr()[len("tcp://"):]
	tcpDialContext = func(ctx context.Context, host string) (net.Conn, error) {
		if host == clientHost {
			return nil, fmt.Errorf("test: dial-back to client %s forbidden", host)
		}
		return realDial(ctx, host)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		out, err := a.Forward(ctx, b.Addr(), NameToID("echo"), []byte("no dial-back"))
		if err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
		if string(out) != "no dial-back" {
			t.Fatalf("got %q", out)
		}
	}
}

// TestTCPAcceptBackoffCountsErrors kills the listener out from under
// the accept loop (without closing the transport) and checks it backs
// off and counts failures instead of hot-spinning, then that class
// shutdown still terminates it.
func TestTCPAcceptBackoffCountsErrors(t *testing.T) {
	cls, err := NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cls.SetMetrics(reg)
	tr := cls.tr.(*tcpTransport)

	tr.listener.Close() // every Accept now fails; transport is not done
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := tr.metrics().acceptErrors.Value(); v >= 3 {
			// Backoff is working: a hot spin would hit millions of
			// failures in this window; capped backoff yields tens.
			if v > 10000 {
				t.Fatalf("accept loop hot-spinning: %v errors", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accept errors not counted: %v", tr.metrics().acceptErrors.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	done := make(chan struct{})
	go func() { cls.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not terminate the backing-off accept loop")
	}
}

// TestTCPScratchShrinksAfterOversizedFrame drives a payload larger
// than the scratch cap through the transport and checks normal traffic
// continues: the shrink path must release the buffer without
// corrupting the stream.
func TestTCPScratchShrinksAfterOversizedFrame(t *testing.T) {
	a, err := NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	b.Register("len", func(h *Handle) { _ = h.Respond(h.Input()) })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	big := make([]byte, 2*scratchCap)
	for i := range big {
		big[i] = byte(i * 7)
	}
	for round := 0; round < 3; round++ {
		out, err := a.Forward(ctx, b.Addr(), NameToID("len"), big)
		if err != nil {
			t.Fatalf("round %d big: %v", round, err)
		}
		if len(out) != len(big) || out[len(out)-1] != big[len(big)-1] {
			t.Fatalf("round %d big response corrupted", round)
		}
		for i := 0; i < 5; i++ {
			out, err := a.Forward(ctx, b.Addr(), NameToID("len"), []byte("small"))
			if err != nil {
				t.Fatalf("round %d small %d: %v", round, i, err)
			}
			if string(out) != "small" {
				t.Fatalf("round %d small response %q", round, out)
			}
		}
	}
}

// TestTCPTransportMetrics checks the observability satellite: gauges
// for open connections and pool sizes move with real traffic, and the
// dial/batch histograms record samples.
func TestTCPTransportMetrics(t *testing.T) {
	a, err := NewTCPClassOptions("127.0.0.1:0", TCPOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPClassOptions("127.0.0.1:0", TCPOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	rega, regb := metrics.NewRegistry(), metrics.NewRegistry()
	a.SetMetrics(rega)
	b.SetMetrics(regb)
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 8; i++ {
		if _, err := a.Forward(ctx, b.Addr(), NameToID("echo"), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	am, bm := a.tr.(*tcpTransport).metrics(), b.tr.(*tcpTransport).metrics()
	if got := am.outbound.Value(); got < 1 || got > 2 {
		t.Fatalf("client outbound gauge = %v, want 1..2", got)
	}
	if got := am.poolConns.With(b.Addr()).Value(); got < 1 || got > 2 {
		t.Fatalf("client pool gauge = %v, want 1..2", got)
	}
	if got := bm.inbound.Value(); got < 1 || got > 2 {
		t.Fatalf("server inbound gauge = %v, want 1..2", got)
	}
	if am.dialLatency.Snapshot().Count == 0 {
		t.Fatal("dial latency histogram empty")
	}
	// Every response was written by a drain leader on the server side,
	// so its writev-batch histogram must have samples (batch size ≥1).
	if bm.writevBatch.Snapshot().Count == 0 {
		t.Fatal("writev batch histogram empty on server")
	}
	a.Close()
	if got := bmInboundEventually(bm, 0, 2*time.Second); got != 0 {
		t.Fatalf("server inbound gauge after client close = %v, want 0", got)
	}
}

// bmInboundEventually polls the inbound gauge until it reaches want or
// the timeout passes (connection teardown is asynchronous).
func bmInboundEventually(m *tcpMetrics, want float64, timeout time.Duration) float64 {
	deadline := time.Now().Add(timeout)
	for {
		v := m.inbound.Value()
		if v == want || time.Now().After(deadline) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
}
