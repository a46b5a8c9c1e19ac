package margo

import (
	"context"
	"testing"
	"time"

	"mochi/internal/clock"
	"mochi/internal/mercury"
	"mochi/internal/trace"
)

// gatherSpans polls the tracers until they hold `want` spans in total
// (server-side spans are committed after the handler returns, which
// can race with the client seeing the response) and returns the merged
// set.
func gatherSpans(t *testing.T, want int, tracers ...*trace.Tracer) []trace.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var all []trace.Span
		for _, tr := range tracers {
			all = append(all, tr.Spans()...)
		}
		if len(all) >= want {
			return all
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d spans, want %d: %+v", len(all), want, all)
		}
		time.Sleep(time.Millisecond)
	}
}

// spanTree indexes spans and validates the structural invariants every
// exported trace must satisfy: one trace ID, exactly one root, every
// parent resolvable.
func spanTree(t *testing.T, spans []trace.Span) map[trace.ID]trace.Span {
	t.Helper()
	byID := map[trace.ID]trace.Span{}
	traceID := spans[0].TraceID
	roots := 0
	for _, s := range spans {
		if s.TraceID != traceID {
			t.Fatalf("multiple trace IDs: %v and %v in %+v", traceID, s.TraceID, spans)
		}
		if s.SpanID == 0 {
			t.Fatalf("zero span ID: %+v", s)
		}
		if _, dup := byID[s.SpanID]; dup {
			t.Fatalf("duplicate span ID %v", s.SpanID)
		}
		byID[s.SpanID] = s
		if s.Parent == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want 1: %+v", roots, spans)
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Fatalf("span %v (%s) has unresolvable parent %v", s.SpanID, s.Name, s.Parent)
		}
	}
	return byID
}

func findSpan(t *testing.T, spans []trace.Span, kind trace.Kind, name string) trace.Span {
	t.Helper()
	for _, s := range spans {
		if s.Kind == kind && s.Name == name {
			return s
		}
	}
	t.Fatalf("no %s span named %q in %+v", kind, name, spans)
	return trace.Span{}
}

// twoHopAssertions drives client → mid → leaf with head sampling on at
// the origin and checks the resulting tree on any substrate.
func twoHopAssertions(t *testing.T, client, mid, leaf *Instance) {
	if _, err := leaf.Register("leaf_rpc", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond([]byte("leaf-ok"))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mid.Register("mid_rpc", func(ctx context.Context, h *mercury.Handle) {
		out, err := mid.Forward(ctx, leaf.Addr(), "leaf_rpc", h.Input())
		if err != nil {
			_ = h.RespondError(err)
			return
		}
		_ = h.Respond(out)
	}); err != nil {
		t.Fatal(err)
	}
	client.Tracer().SetSampleRate(1)

	out, err := client.Forward(shortCtx(t), mid.Addr(), "mid_rpc", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "leaf-ok" {
		t.Fatalf("reply = %q", out)
	}

	// client: root client span. mid: server + queue + handler + nested
	// client. leaf: server + queue + handler. Total 8.
	spans := gatherSpans(t, 8, client.Tracer(), mid.Tracer(), leaf.Tracer())
	if len(spans) != 8 {
		t.Fatalf("got %d spans, want 8: %+v", len(spans), spans)
	}
	byID := spanTree(t, spans)

	root := findSpan(t, spans, trace.KindClient, "mid_rpc")
	if root.Parent != 0 {
		t.Fatalf("origin client span has parent %v", root.Parent)
	}
	midServer := findSpan(t, spans, trace.KindServer, "mid_rpc")
	if midServer.Parent != root.SpanID {
		t.Fatalf("mid server parent = %v, want root client %v", midServer.Parent, root.SpanID)
	}
	midHandler := trace.Span{}
	for _, s := range spans {
		if s.Kind == trace.KindHandler && s.Parent == midServer.SpanID {
			midHandler = s
		}
	}
	if midHandler.SpanID == 0 {
		t.Fatalf("no handler span under mid server: %+v", spans)
	}
	nested := findSpan(t, spans, trace.KindClient, "leaf_rpc")
	if nested.Parent != midHandler.SpanID {
		t.Fatalf("nested client parent = %v, want mid handler %v", nested.Parent, midHandler.SpanID)
	}
	leafServer := findSpan(t, spans, trace.KindServer, "leaf_rpc")
	if leafServer.Parent != nested.SpanID {
		t.Fatalf("leaf server parent = %v, want nested client %v", leafServer.Parent, nested.SpanID)
	}
	for _, s := range spans {
		if s.Tail {
			t.Fatalf("head-sampled span marked tail: %+v", s)
		}
	}

	// The merged set must export as a single well-formed Chrome doc.
	doc, err := trace.ChromeJSON(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) == 0 {
		t.Fatal("empty chrome doc")
	}
	_ = byID
}

// TestTraceTwoHopsSM: same trace ID and correct nesting across two
// hops on the in-process sm fabric.
func TestTraceTwoHopsSM(t *testing.T) {
	f := mercury.NewFabric()
	client := newInstance(t, f, "trace-cli", "")
	mid := newInstance(t, f, "trace-mid", "")
	leaf := newInstance(t, f, "trace-leaf", "")
	twoHopAssertions(t, client, mid, leaf)
}

// TestTraceTwoHopsTCP: the same tree over the real TCP transport,
// proving the envelope fields survive marshal/unmarshal.
func TestTraceTwoHopsTCP(t *testing.T) {
	newTCP := func(label string) *Instance {
		cls, err := mercury.NewTCPClass("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		inst, err := New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Finalize)
		_ = label
		return inst
	}
	client := newTCP("cli")
	mid := newTCP("mid")
	leaf := newTCP("leaf")
	twoHopAssertions(t, client, mid, leaf)
}

// TestTraceUnsampledCommitsNothing: with head sampling off and traffic
// far below the tail threshold, no spans are buffered anywhere even
// though trace IDs travel on the wire.
func TestTraceUnsampledCommitsNothing(t *testing.T) {
	f := mercury.NewFabric()
	client := newInstance(t, f, "uns-cli", "")
	server := newInstance(t, f, "uns-srv", "")
	var seen trace.SpanContext
	if _, err := server.Register("probe", func(ctx context.Context, h *mercury.Handle) {
		seen = h.Trace()
		_ = h.Respond(nil)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Forward(shortCtx(t), server.Addr(), "probe", nil); err != nil {
		t.Fatal(err)
	}
	if !seen.Valid() || seen.Sampled() {
		t.Fatalf("server saw trace context %+v, want valid unsampled", seen)
	}
	if n := client.Tracer().Len() + server.Tracer().Len(); n != 0 {
		t.Fatalf("%d spans committed for unsampled fast traffic", n)
	}
}

// simPair returns a client and a server instance on one simulated
// clock, both with their tail threshold at slow.
func simPair(t *testing.T, f *mercury.Fabric, prefix string, slow time.Duration) (client, server *Instance, sim *clock.Sim) {
	t.Helper()
	sim = clock.NewSim(time.Unix(1_700_000_000, 0))
	instance := func(name string) *Instance {
		cls, err := f.NewClass(prefix + name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewWithClock(cls, nil, sim)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Finalize)
		inst.Tracer().SetSlowThreshold(slow)
		return inst
	}
	return instance("-cli"), instance("-srv"), sim
}

// TestTraceTailSamplesSlowRPC: with head sampling off, a handler
// slower than the tail threshold records the spans that were each
// slow — its server and handler spans — and the origin records the
// matching client span, all under one trace ID; the fast queue wait
// records nothing.
func TestTraceTailSamplesSlowRPC(t *testing.T) {
	client, server, sim := simPair(t, mercury.NewFabric(), "tail", 10*time.Millisecond)
	if _, err := server.Register("slow_rpc", func(_ context.Context, h *mercury.Handle) {
		sim.Advance(30 * time.Millisecond)
		_ = h.Respond(nil)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Forward(shortCtx(t), server.Addr(), "slow_rpc", nil); err != nil {
		t.Fatal(err)
	}
	spans := gatherSpans(t, 3, client.Tracer(), server.Tracer())
	spanTree(t, spans)
	for _, s := range spans {
		if !s.Tail || s.Duration != int64(30*time.Millisecond) {
			t.Fatalf("want three tail spans of 30ms: %+v", spans)
		}
	}
	findSpan(t, spans, trace.KindClient, "slow_rpc")
	findSpan(t, spans, trace.KindServer, "slow_rpc")
	findSpan(t, spans, trace.KindHandler, "handler")
	if len(spans) != 3 {
		t.Fatalf("want client, server and handler spans only: %+v", spans)
	}
}

// TestServerSpanEndsWithTheRPC: the server span ends where the RPC
// does — at the reply of a handle kept past its handler, and at the
// handler's return when the reply came first — so it covers its queue
// and handler children either way.
func TestServerSpanEndsWithTheRPC(t *testing.T) {
	client, server, sim := simPair(t, mercury.NewFabric(), "ends", time.Hour)
	client.Tracer().SetSampleRate(1)
	kept := make(chan *mercury.Handle)
	go func() {
		for h := range kept {
			sim.Advance(10 * time.Millisecond)
			_ = h.Respond(nil)
		}
	}()
	t.Cleanup(func() { close(kept) })
	if _, err := server.Register("later", func(_ context.Context, h *mercury.Handle) {
		kept <- h
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Register("first", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(nil)
		sim.Advance(10 * time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	for i, rpc := range []string{"later", "first"} {
		if _, err := client.Forward(shortCtx(t), server.Addr(), rpc, nil); err != nil {
			t.Fatal(err)
		}
		spans := gatherSpans(t, 3*(i+1), server.Tracer())
		s := findSpan(t, spans, trace.KindServer, rpc)
		if s.Duration != int64(10*time.Millisecond) {
			t.Fatalf("%s: server span of %v, want 10ms: %+v", rpc, time.Duration(s.Duration), spans)
		}
		for _, k := range spans {
			if k.Parent == s.SpanID && (k.Start < s.Start || k.Start+k.Duration > s.Start+s.Duration) {
				t.Fatalf("%s: child %+v outside its server span %+v", rpc, k, s)
			}
		}
	}
}

// BenchmarkForwardTraced measures the margo forward path at the three
// head-sampling rates quoted in EXPERIMENTS.md. Tail sampling stays at
// its (always-on) default; the echo RPC is far below the threshold.
func BenchmarkForwardTraced(b *testing.B) {
	for _, bench := range []struct {
		name string
		rate float64
	}{
		{"rate0", 0},
		{"rate1pct", 0.01},
		{"rate100", 1},
	} {
		b.Run(bench.name, func(b *testing.B) {
			f := mercury.NewFabric()
			cls, err := f.NewClass("bench-srv")
			if err != nil {
				b.Fatal(err)
			}
			srv, err := New(cls, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Finalize()
			clc, err := f.NewClass("bench-cli")
			if err != nil {
				b.Fatal(err)
			}
			cli, err := New(clc, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Finalize()
			if _, err := srv.Register("bench_echo", func(_ context.Context, h *mercury.Handle) {
				_ = h.Respond(h.Input())
			}); err != nil {
				b.Fatal(err)
			}
			cli.Tracer().SetSampleRate(bench.rate)
			ctx := context.Background()
			payload := []byte("bench-key-0123456789/bench-value-abcdefghijklmnopqrstuvwxyz")
			if _, err := cli.Forward(ctx, srv.Addr(), "bench_echo", payload); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Forward(ctx, srv.Addr(), "bench_echo", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
