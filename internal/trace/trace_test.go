package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"mochi/internal/clock"
)

func TestIDJSONRoundTrip(t *testing.T) {
	for _, v := range []ID{0, 1, 0xDEADBEEF, ^ID(0)} {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%q", v.String())
		if string(raw) != want {
			t.Fatalf("marshal %v = %s, want %s", uint64(v), raw, want)
		}
		var back ID
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != v {
			t.Fatalf("round trip %v -> %v", uint64(v), uint64(back))
		}
	}
}

func TestSpanContextFromContext(t *testing.T) {
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context reported a span context")
	}
	sc := SpanContext{TraceID: 7, Parent: 9, Flags: FlagSampled}
	got, ok := FromContext(NewContext(context.Background(), sc))
	if !ok || got != sc {
		t.Fatalf("got %+v ok=%v, want %+v", got, ok, sc)
	}
	if !sc.Valid() || !sc.Sampled() {
		t.Fatal("valid sampled context reported otherwise")
	}
	if (SpanContext{}).Valid() {
		t.Fatal("zero context reported valid")
	}
}

// TestRingEvictionOrder fills the ring past capacity and checks that
// the oldest spans are the ones evicted and that Spans() stays in
// commit order.
func TestRingEvictionOrder(t *testing.T) {
	tr := NewTracer(4, clock.New())
	for i := 0; i < 10; i++ {
		tr.Commit(Span{TraceID: 1, SpanID: ID(i + 1), Start: int64(i)})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("len = %d, want 4", len(spans))
	}
	for i, s := range spans {
		if want := ID(i + 7); s.SpanID != want {
			t.Fatalf("span[%d] = %v, want %v (oldest-first order)", i, s.SpanID, want)
		}
	}
	if tr.Evicted() != 6 {
		t.Fatalf("evicted = %d, want 6", tr.Evicted())
	}
	if tr.Len() != 4 || tr.Capacity() != 4 {
		t.Fatalf("len/cap = %d/%d", tr.Len(), tr.Capacity())
	}
}

func TestSetCapacityKeepsNewest(t *testing.T) {
	tr := NewTracer(8, clock.New())
	for i := 0; i < 6; i++ {
		tr.Commit(Span{SpanID: ID(i + 1)})
	}
	tr.SetCapacity(3)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("len = %d, want 3", len(spans))
	}
	for i, s := range spans {
		if want := ID(i + 4); s.SpanID != want {
			t.Fatalf("span[%d] = %v, want %v", i, s.SpanID, want)
		}
	}
	// Growing again must keep surviving spans and accept new ones.
	tr.SetCapacity(5)
	tr.Commit(Span{SpanID: 7})
	if got := tr.Len(); got != 4 {
		t.Fatalf("len after regrow = %d, want 4", got)
	}
}

func TestSampleRates(t *testing.T) {
	tr := NewTracer(1, clock.New())
	if tr.SampleRate() != 0 {
		t.Fatalf("default rate = %v, want 0", tr.SampleRate())
	}
	for i := 0; i < 100; i++ {
		if tr.sampleHead() {
			t.Fatal("rate 0 sampled")
		}
	}
	tr.SetSampleRate(1)
	for i := 0; i < 100; i++ {
		if !tr.sampleHead() {
			t.Fatal("rate 1 did not sample")
		}
	}
	tr.SetSampleRate(0.5)
	hits := 0
	for i := 0; i < 10000; i++ {
		if tr.sampleHead() {
			hits++
		}
	}
	if hits < 4000 || hits > 6000 {
		t.Fatalf("rate 0.5 sampled %d/10000", hits)
	}
}

func TestTailSampler(t *testing.T) {
	tr := NewTracer(1, clock.New())
	if tr.SlowThreshold() != DefaultSlowThreshold {
		t.Fatalf("default tail threshold %v", tr.SlowThreshold())
	}
	if tr.isSlow(DefaultSlowThreshold - 1) {
		t.Fatal("sub-threshold latency reported slow")
	}
	if !tr.isSlow(DefaultSlowThreshold) {
		t.Fatal("threshold latency not reported slow")
	}
	tr.SetSlowThreshold(-1)
	if tr.SlowThreshold() != 0 || tr.isSlow(time.Hour) {
		t.Fatal("disabled tail sampler still firing")
	}
	tr.SetSlowThreshold(time.Millisecond)
	if !tr.isSlow(2 * time.Millisecond) {
		t.Fatal("re-enabled tail sampler not firing")
	}
}

// TestLiveCommitRule: a span is committed if and only if its trace is
// head-sampled or it ran for at least the tail threshold; the zero
// Live, and a span opened without a trace, record nothing; and none of
// it allocates.
func TestLiveCommitRule(t *testing.T) {
	sim := clock.NewSim(time.Unix(100, 0))
	tr := NewTracer(16, sim)
	tr.SetSlowThreshold(time.Second)
	root := SpanContext{TraceID: 7, Parent: 9}
	for _, c := range []struct {
		name   string
		parent SpanContext
		ran    time.Duration
		commit bool
	}{
		{"unsampled fast", root, time.Second - 1, false},
		{"unsampled slow", root, time.Second, true},
		{"sampled fast", SpanContext{TraceID: 7, Parent: 9, Flags: FlagSampled}, 0, true},
		{"no trace", SpanContext{}, time.Hour, false},
	} {
		tr.Reset()
		l := tr.Start(c.parent, c.name, KindPhase, tr.Now())
		sim.Advance(c.ran)
		if got := l.End(tr.Now(), true); got != c.commit || tr.Len() != map[bool]int{false: 0, true: 1}[c.commit] {
			t.Fatalf("%s: End = %v with %d spans, want %v", c.name, got, tr.Len(), c.commit)
		}
		if !c.commit {
			continue
		}
		s := tr.Spans()[0]
		want := Span{TraceID: 7, SpanID: l.SpanID, Parent: 9, Name: c.name, Kind: KindPhase,
			Start:    sim.Now().Add(-c.ran).UnixNano(),
			Duration: int64(c.ran), Err: true, Tail: !c.parent.Sampled()}
		if s != want {
			t.Fatalf("%s: committed %+v, want %+v", c.name, s, want)
		}
		if cc := l.Context(); cc.TraceID != 7 || cc.Parent != l.SpanID || cc.Flags != c.parent.Flags {
			t.Fatalf("%s: children's context %+v", c.name, cc)
		}
	}
	var zero Live
	if zero.End(tr.Now(), false) || zero.Context().Valid() {
		t.Fatal("the zero Live records something")
	}
	if avg := testing.AllocsPerRun(100, func() {
		l := tr.Start(root, "x", KindPhase, tr.Now())
		l.End(tr.Now(), false)
	}); avg != 0 {
		t.Fatalf("an unsampled span allocates %.1f times, want 0", avg)
	}
}

func TestNewIDUniqueNonZero(t *testing.T) {
	tr := NewTracer(1, clock.New())
	seen := map[ID]bool{}
	for i := 0; i < 10000; i++ {
		id := tr.NewID()
		if id == 0 {
			t.Fatal("zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %v", id)
		}
		seen[id] = true
	}
}

// TestConcurrentCommit exercises the ring under parallel commit +
// snapshot; the race leg of CI verifies memory safety, this verifies
// nothing is lost below capacity.
func TestConcurrentCommit(t *testing.T) {
	tr := NewTracer(10000, clock.New())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Commit(Span{TraceID: ID(g + 1), SpanID: tr.NewID()})
				if i%100 == 0 {
					_ = tr.Spans()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Len(); got != 8000 {
		t.Fatalf("len = %d, want 8000", got)
	}
	if tr.Evicted() != 0 {
		t.Fatalf("evicted = %d, want 0", tr.Evicted())
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}
