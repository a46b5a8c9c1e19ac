package margo

import (
	"context"
	"testing"
	"time"

	"mochi/internal/mercury"
	"mochi/internal/metrics"
	"mochi/internal/trace"
)

// forwardExemplars digs the exemplars out of one series of the
// forward-latency family.
func forwardExemplars(t *testing.T, inst *Instance, rpc string) []metrics.Exemplar {
	t.Helper()
	for _, f := range inst.Metrics().Snapshot() {
		if f.Name != "mochi_rpc_forward_latency_seconds" {
			continue
		}
		for _, s := range f.Series {
			if s.LabelValues[0] == rpc && s.Hist != nil {
				return s.Hist.Exemplars
			}
		}
	}
	return nil
}

// TestForwardExemplarOnSlowRPC: a tail-sampled slow forward must leave
// an exemplar on the latency histogram whose trace ID resolves to the
// committed span tree — the histogram-to-trace link of the
// introspection plane.
func TestForwardExemplarOnSlowRPC(t *testing.T) {
	client, server, sim := simPair(t, mercury.NewFabric(), "ex", 5*time.Millisecond)
	if _, err := server.Register("slow_ex", func(_ context.Context, h *mercury.Handle) {
		sim.Advance(20 * time.Millisecond)
		_ = h.Respond(nil)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Forward(shortCtx(t), server.Addr(), "slow_ex", nil); err != nil {
		t.Fatal(err)
	}

	ex := forwardExemplars(t, client, "slow_ex")
	if len(ex) != 1 {
		t.Fatalf("want 1 exemplar on slow_ex forward latency, got %v", ex)
	}
	if ex[0].Value < 0.02 {
		t.Fatalf("exemplar value: want >= 20ms, got %gs", ex[0].Value)
	}
	if ex[0].Ts == 0 {
		t.Fatal("exemplar timestamp not set")
	}

	// The trace ID must resolve to the committed spans on both sides.
	spans := gatherSpans(t, 3, client.Tracer(), server.Tracer())
	resolved := 0
	for _, s := range spans {
		if s.TraceID.String() == ex[0].TraceID {
			resolved++
		}
	}
	if resolved != len(spans) {
		t.Fatalf("exemplar trace %s resolves to %d/%d spans", ex[0].TraceID, resolved, len(spans))
	}
	findSpan(t, spans, trace.KindClient, "slow_ex")
	findSpan(t, spans, trace.KindServer, "slow_ex")

	// The _all aggregate series carries the exemplar too.
	if agg := forwardExemplars(t, client, aggLabel); len(agg) != 1 || agg[0].TraceID != ex[0].TraceID {
		t.Fatalf("aggregate exemplar: want %s, got %v", ex[0].TraceID, agg)
	}

	// And it survives the text encoder as an OpenMetrics exemplar.
	text := string(client.Metrics().PrometheusText())
	samples, err := metrics.ParseExposition([]byte(text))
	if err != nil {
		t.Fatalf("exposition with exemplars does not parse: %v", err)
	}
	found := false
	for _, s := range samples {
		if s.Exemplar == nil {
			continue
		}
		for _, l := range s.Exemplar.Labels {
			if l.Name == "trace_id" && l.Value == ex[0].TraceID {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("exemplar trace_id %s missing from exposition:\n%s", ex[0].TraceID, text)
	}
}

// TestForwardNoExemplarWhenFast: unsampled fast traffic must leave no
// exemplars (and therefore never allocate the exemplar store).
func TestForwardNoExemplarWhenFast(t *testing.T) {
	f := mercury.NewFabric()
	client := newInstance(t, f, "exf-cli", "")
	server := newInstance(t, f, "exf-srv", "")
	if _, err := server.Register("fast_ex", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(nil)
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := client.Forward(shortCtx(t), server.Addr(), "fast_ex", nil); err != nil {
			t.Fatal(err)
		}
	}
	if ex := forwardExemplars(t, client, "fast_ex"); len(ex) != 0 {
		t.Fatalf("fast unsampled traffic left exemplars: %v", ex)
	}
}
