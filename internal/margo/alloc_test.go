package margo

import (
	"context"
	"testing"

	"mochi/internal/mercury"
	"mochi/internal/testutil"
)

// TestForwardResilientAllocsPinned extends the hot-path allocation
// gate up through the margo layer with the resilience machinery
// enabled: retry policy loaded, a per-destination breaker consulted
// and fed on every forward. The margo forward path is not itself
// allocation-free (the server-side dispatch builds a trace context and
// the fabric copies payloads), so the pin is differential: a resilient
// forward must allocate no more than an identical plain one —
// resilience adds zero allocations when no retry occurs. (The
// per-attempt timeout is the documented exception: deriving a deadline
// context allocates, so the pin runs with attempt_timeout_ms unset,
// the default.)
func TestForwardResilientAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	f := mercury.NewFabric()
	srv := newInstance(t, f, "alloc-res-srv", "")
	plain := newInstance(t, f, "alloc-plain-cli", "")
	res := newInstance(t, f, "alloc-res-cli", `{
	  "resilience": {
	    "max_attempts": 3,
	    "breaker": {"failure_threshold": 5}
	  }
	}`)

	reply := []byte("pong-payload-323232")
	if _, err := srv.Register("ping", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(reply)
	}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("ping-payload-161616")
	ctx := context.Background()
	dst := srv.Addr()

	measure := func(cli *Instance) float64 {
		for i := 0; i < 50; i++ {
			if _, err := cli.Forward(ctx, dst, "ping", payload); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(500, func() {
			out, err := cli.Forward(ctx, dst, "ping", payload)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(reply) {
				t.Fatalf("bad reply: %q", out)
			}
		})
	}
	base := measure(plain)
	withRes := measure(res)
	if withRes > base {
		t.Fatalf("resilient forward allocates %.2f/op vs %.2f/op plain; resilience must add zero allocations on the no-retry path", withRes, base)
	}
}

// forwardAllocs is what a served in-process forward allocated before
// margo recorded Listing 1 on every RPC, with the per-RPC statistics
// switched off.
const forwardAllocs = 5

// TestStatsAllocsPinned: recording Listing 1 on both sides of every
// RPC is free in allocations. After one warm-up a served forward, whose
// origin and target cells both count it, allocates no more than a
// forward did before the record was always on. The least of three
// measurements is judged, a margin for scheduler noise.
func TestStatsAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	f := mercury.NewFabric()
	srv := newInstance(t, f, "pin-srv", "")
	cli := newInstance(t, f, "pin-cli", "")
	if _, err := srv.RegisterProvider("echo", 3, nil, func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(h.Input())
	}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("ping-payload-161616")
	ctx := context.Background()
	forward := func() {
		if _, err := cli.ForwardProvider(ctx, srv.Addr(), "echo", 3, payload); err != nil {
			t.Fatal(err)
		}
	}
	forward()
	least := testing.AllocsPerRun(500, forward)
	for i := 0; i < 2 && least > forwardAllocs; i++ {
		least = min(least, testing.AllocsPerRun(500, forward))
	}
	t.Logf("recorded forward: %.2f allocs/op (pin %d)", least, forwardAllocs)
	if least > forwardAllocs {
		t.Fatalf("a recorded forward allocates %.2f/op, want <= %d", least, forwardAllocs)
	}
	origin, _ := cli.Stats().FindByName("echo")
	target, _ := srv.Stats().FindByName("echo")
	if origin == nil || target == nil ||
		origin.Origin["sent to "+srv.Addr()].Duration.Num < 502 ||
		target.Target["received from "+cli.Addr()].ULT.Duration.Num < 502 {
		t.Fatalf("Listing 1 did not record every forward: origin %+v, target %+v", origin, target)
	}
}

// TestKeptHandleAllocsPinned: a handler that returns with its handle
// kept, answered later from another goroutine, costs no allocation
// over one that answers at once — the server span riding the handle to
// its reply, and the hold that keeps the handle past its handler, are
// values in pooled objects. The least of three measurements is judged.
func TestKeptHandleAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	f := mercury.NewFabric()
	srv := newInstance(t, f, "kept-srv", "")
	cli := newInstance(t, f, "kept-cli", "")
	kept := make(chan *mercury.Handle, 1)
	go func() {
		for h := range kept {
			_ = h.Respond(h.Input())
		}
	}()
	t.Cleanup(func() { close(kept) })
	if _, err := srv.Register("now", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(h.Input())
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register("later", func(_ context.Context, h *mercury.Handle) {
		kept <- h
	}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("ping-payload-161616")
	ctx := context.Background()
	measure := func(rpc string) float64 {
		forward := func() {
			if _, err := cli.Forward(ctx, srv.Addr(), rpc, payload); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			forward()
		}
		least := testing.AllocsPerRun(500, forward)
		for i := 0; i < 2; i++ {
			least = min(least, testing.AllocsPerRun(500, forward))
		}
		return least
	}
	now, later := measure("now"), measure("later")
	t.Logf("answered at once: %.2f allocs/op, kept and answered later: %.2f", now, later)
	if later > now {
		t.Fatalf("a kept handle allocates %.2f/op, one answered at once %.2f/op", later, now)
	}
}

// BenchmarkForwardBaseline measures the margo forward path without a
// resilience policy installed (single attempt, as before this layer
// existed).
func BenchmarkForwardBaseline(b *testing.B) {
	benchForward(b, "")
}

// BenchmarkForwardResilient measures the same forward with retries and
// circuit breaking enabled and never triggered — the happy-path
// overhead of the resilience layer (EXPERIMENTS.md "Retry overhead").
func BenchmarkForwardResilient(b *testing.B) {
	benchForward(b, `{
	  "resilience": {
	    "max_attempts": 3,
	    "breaker": {"failure_threshold": 5}
	  }
	}`)
}

func benchForward(b *testing.B, cliCfg string) {
	f := mercury.NewFabric()
	scls, err := f.NewClass("bench-fwd-srv")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(scls, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Finalize()
	ccls, err := f.NewClass("bench-fwd-cli")
	if err != nil {
		b.Fatal(err)
	}
	cli, err := New(ccls, []byte(cliCfg))
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Finalize()

	reply := []byte("pong-payload-323232")
	if _, err := srv.Register("ping", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(reply)
	}); err != nil {
		b.Fatal(err)
	}
	payload := []byte("ping-payload-161616")
	ctx := context.Background()
	dst := srv.Addr()
	for i := 0; i < 50; i++ {
		if _, err := cli.Forward(ctx, dst, "ping", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Forward(ctx, dst, "ping", payload); err != nil {
			b.Fatal(err)
		}
	}
}
