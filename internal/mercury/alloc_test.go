package mercury

import (
	"bytes"
	"context"
	"testing"

	"mochi/internal/clock"
	"mochi/internal/testutil"
	"mochi/internal/trace"
)

// TestForwardAllocsPinned is the regression gate for the zero-allocation
// forward path: a small RPC over the sm fabric must cost at most 2
// heap allocations end to end in steady state (currently 1: the
// caller-owned copy of the response payload). `make bench-alloc` runs
// this; treat a failure as a hot-path regression, not a flaky test.
func TestForwardAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	fabric := NewFabric()
	a, err := fabric.NewClass("alloc-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fabric.NewClass("alloc-b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	reply := []byte("pong-payload-323232")
	id := b.Register("ping", func(h *Handle) {
		_ = h.Respond(reply)
	})
	payload := []byte("ping-payload-161616")
	ctx := context.Background()

	// Warm the pools (messages, handles, reply channels, buffers)
	// before measuring.
	for i := 0; i < 50; i++ {
		if _, err := a.Forward(ctx, b.Addr(), id, payload); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(300, func() {
		out, err := a.Forward(ctx, b.Addr(), id, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(reply) {
			t.Fatalf("bad reply: %q", out)
		}
	})
	if avg > 2 {
		t.Fatalf("sm-fabric forward allocates %.2f times per op, pinned at <= 2", avg)
	}
}

// TestForwardTracedUnsampledAllocsPinned is the same gate with tracing
// compiled in and active on both ends: tracers installed, a valid but
// unsampled trace context riding the envelope, tail sampling at its
// default threshold, and a span context in the caller's ctx (the shape
// of a nested forward from a handler). The trace fields live in the
// pooled message and handle, the sampler decision is an atomic read,
// and no span is committed — so the budget stays the same ≤ 2.
func TestForwardTracedUnsampledAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	fabric := NewFabric()
	a, err := fabric.NewClass("alloc-ta")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fabric.NewClass("alloc-tb")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	ta := trace.NewTracer(64, clock.New())
	tb := trace.NewTracer(64, clock.New())
	a.SetTracer(ta)
	b.SetTracer(tb)

	reply := []byte("pong-payload-323232")
	id := b.Register("ping", func(h *Handle) {
		if !h.Trace().Valid() || h.Trace().Sampled() {
			panic("trace context lost or unexpectedly sampled")
		}
		_ = h.Respond(reply)
	})
	payload := []byte("ping-payload-161616")
	tc := trace.SpanContext{TraceID: ta.NewID(), Parent: ta.NewID()} // unsampled
	ctx := trace.NewContext(context.Background(), tc)

	for i := 0; i < 50; i++ {
		if _, err := a.ForwardProviderTrace(ctx, b.Addr(), id, AnyProvider, payload, tc); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(300, func() {
		out, err := a.ForwardProviderTrace(ctx, b.Addr(), id, AnyProvider, payload, tc)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(reply) {
			t.Fatalf("bad reply: %q", out)
		}
	})
	if avg > 2 {
		t.Fatalf("traced-unsampled forward allocates %.2f times per op, pinned at <= 2", avg)
	}
	if ta.Len() != 0 || tb.Len() != 0 {
		t.Fatalf("unsampled fast-path traffic committed spans: %d/%d", ta.Len(), tb.Len())
	}
}

// TestTCPForwardAllocsPinned is the TCP-transport counterpart of
// TestForwardAllocsPinned: one small RPC over a real socket pair must
// stay at or under 4 heap allocations per op in steady state
// (currently 3: caller-owned response copy plus per-frame bookkeeping
// in the two read loops). The egress path itself — frame encode,
// drain-leader batching, ack channels — is allocation-free once warm.
func TestTCPForwardAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	a, err := NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	reply := []byte("pong-payload-323232")
	id := b.Register("ping", func(h *Handle) {
		_ = h.Respond(reply)
	})
	payload := []byte("ping-payload-161616")
	ctx := context.Background()

	for i := 0; i < 50; i++ {
		if _, err := a.Forward(ctx, b.Addr(), id, payload); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(300, func() {
		out, err := a.Forward(ctx, b.Addr(), id, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(reply) {
			t.Fatalf("bad reply: %q", out)
		}
	})
	if avg > 4 {
		t.Fatalf("tcp forward allocates %.2f times per op, pinned at <= 4", avg)
	}
}

// TestPayloadRecycleNoAliasing drives the pooled request-buffer cycle
// hard: the caller reuses (and rewrites) one input buffer across many
// RPCs, and every handler invocation must still observe exactly the
// bytes that were current when its request was forwarded — proving
// recycled pool buffers never leak between in-flight payloads.
func TestPayloadRecycleNoAliasing(t *testing.T) {
	_, a, b := newPair(t)
	id := b.Register("echo", func(h *Handle) {
		_ = h.Respond(h.Input())
	})
	input := make([]byte, 64)
	for i := 0; i < 200; i++ {
		for j := range input {
			input[j] = byte(i)
		}
		out, err := a.Forward(ctxShort(t), b.Addr(), id, input)
		if err != nil {
			t.Fatal(err)
		}
		// Mutate the caller's buffer immediately; the returned payload
		// must be an independent copy.
		for j := range input {
			input[j] = 0xFF
		}
		for j := range out {
			if out[j] != byte(i) {
				t.Fatalf("iteration %d: response byte %d is %#x, want %#x (pooled buffer aliased)", i, j, out[j], byte(i))
			}
		}
	}
}

// TestResponseSurvivesHandleRelease pins the response-ownership rule:
// the payload returned by Forward is caller-owned and must stay intact
// after the handler's pooled input buffer and handle are recycled by
// subsequent traffic.
func TestResponseSurvivesHandleRelease(t *testing.T) {
	_, a, b := newPair(t)
	id := b.Register("echo", func(h *Handle) {
		_ = h.Respond(h.Input())
	})
	first, err := a.Forward(ctxShort(t), b.Addr(), id, []byte("keep-me-around"))
	if err != nil {
		t.Fatal(err)
	}
	// Churn the pools with different payloads.
	for i := 0; i < 100; i++ {
		if _, err := a.Forward(ctxShort(t), b.Addr(), id, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if string(first) != "keep-me-around" {
		t.Fatalf("earlier response corrupted by pool churn: %q", first)
	}
}
