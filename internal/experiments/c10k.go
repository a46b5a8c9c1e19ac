// E12: transport scaling at high connection counts. Unlike E1 (one
// client, one server, latency-oriented) this experiment stands up
// hundreds to thousands of real TCP connections against a single
// server class and measures aggregate forward throughput while
// sweeping the transport's two scaling knobs: per-destination pool
// size and GOMAXPROCS. Pool size 1 approximates the pre-pool
// single-connection transport, so each row pair doubles as a
// before/after comparison.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/mercury"
)

// c10kPayload is the request/response payload in bytes.
const c10kPayload = 64

// E12Transport runs the connection-scaling sweep. Each client class
// owns one listener and pool outbound connections to the server, so
// total sockets per cell ≈ conns × pool; the workers are concurrent
// forwarders striped over the client classes round-robin. Quick mode
// shrinks the sweep to CI scale at the current GOMAXPROCS; full mode
// runs the thousand-socket cells at three scheduler widths.
func E12Transport(quick bool) (*Table, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	conns, workers, widths, d := []int{16, 64, 256}, 256, []int{1, 2, 4}, 500*time.Millisecond
	if quick {
		conns, workers, widths, d = []int{16, 64}, 64, []int{prev}, 300*time.Millisecond
	}
	table := &Table{
		ID:      "E12",
		Title:   "Transport scaling: connections × pool size × GOMAXPROCS",
		Columns: []string{"conns", "sockets", "workers", "pool", "gomaxprocs", "ops", "throughput"},
	}
	for _, gmp := range widths {
		runtime.GOMAXPROCS(gmp)
		for _, pool := range []int{1, 4} {
			for _, n := range conns {
				ops, elapsed, err := runC10KCell(n, workers, pool, d)
				if err != nil {
					return nil, fmt.Errorf("conns=%d pool=%d gomaxprocs=%d: %w", n, pool, gmp, err)
				}
				table.AddRow(
					fmt.Sprintf("%d", n),
					fmt.Sprintf("%d", n*pool),
					fmt.Sprintf("%d", workers),
					fmt.Sprintf("%d", pool),
					fmt.Sprintf("%d", gmp),
					fmt.Sprintf("%d", ops),
					fmtRate(int(ops), elapsed),
				)
			}
		}
	}
	table.Note("payload %dB per direction; pool=1 approximates the pre-pool single-connection transport", c10kPayload)
	table.Note("sockets = client classes × pool size (responses ride the same connections back)")
	return table, nil
}

// runC10KCell measures one (conns, workers, pool) cell: conns client
// classes forwarding an echo RPC to one server class for d seconds.
func runC10KCell(conns, workers, pool int, d time.Duration) (int64, time.Duration, error) {
	topts := mercury.TCPOptions{PoolSize: pool}
	server, err := mercury.NewTCPClassOptions("127.0.0.1:0", topts)
	if err != nil {
		return 0, 0, err
	}
	defer server.Close()
	id := server.Register("c10k-echo", func(h *mercury.Handle) { _ = h.Respond(h.Input()) })

	clients := make([]*mercury.Class, conns)
	for i := range clients {
		c, cerr := mercury.NewTCPClassOptions("127.0.0.1:0", topts)
		if cerr != nil {
			for _, cc := range clients[:i] {
				cc.Close()
			}
			return 0, 0, fmt.Errorf("client %d: %w", i, cerr)
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	payload := make([]byte, c10kPayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	dst := server.Addr()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Warm every pool slot of every client before the measured window:
	// request seq picks the slot round-robin, so pool sequential
	// forwards touch each slot once. Without this the window opens with
	// a dial storm (conns × (pool-1) simultaneous connects) that
	// overflows the listen backlog and measures SYN retransmits instead
	// of the transport.
	for _, c := range clients {
		for j := 0; j < pool; j++ {
			if _, err := c.Forward(ctx, dst, id, payload); err != nil {
				return 0, 0, fmt.Errorf("warmup: %w", err)
			}
		}
	}

	var ops atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for time.Now().Before(deadline) {
				if _, err := c.Forward(ctx, dst, id, payload); err != nil {
					if ctx.Err() == nil {
						firstErr.CompareAndSwap(nil, err)
						cancel()
					}
					return
				}
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, 0, err
	}
	return ops.Load(), elapsed, nil
}
