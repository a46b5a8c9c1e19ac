package trace

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/clock"
)

// Defaults for a freshly constructed Tracer.
const (
	// DefaultCapacity bounds the per-process span ring.
	DefaultCapacity = 4096
	// DefaultSlowThreshold is the always-on tail sampler's latency
	// threshold: any RPC slower than this records its spans even when
	// the trace was not head-sampled.
	DefaultSlowThreshold = time.Second
)

// Tracer is a per-process span sink plus the two sampling decisions:
//
//   - Head sampling: a probabilistic decision taken once, at the root
//     of a trace (Root), and propagated in SpanContext.Flags. The
//     decision is a single atomic load (plus one PRNG step when the
//     rate is strictly between 0 and 1); at the default rate of 0 it
//     costs one load and one compare.
//   - Tail sampling: an always-on latency threshold. A span that ran
//     at least that long is committed even when its trace was not
//     head-sampled, so outliers are captured with head sampling off.
//
// Both meet in one rule, applied by Live.End to every span.
//
// Completed spans are committed by value into a bounded ring that
// overwrites its oldest entry when full, so a tracer's memory is fixed
// at SetCapacity time and commit never allocates.
type Tracer struct {
	// head is the head-sampling threshold: a trace is sampled when a
	// uniform random uint64 is below it. 0 disables, MaxUint64 means
	// always.
	head atomic.Uint64
	// slow is the tail-sampling latency threshold in nanoseconds;
	// 0 disables tail sampling.
	slow atomic.Int64
	// rng is the splitmix64 state shared by ID generation and the
	// sampling PRNG.
	rng atomic.Uint64
	// proc labels spans committed here with the owning process address.
	proc atomic.Pointer[string]
	// clk times every span opened here.
	clk clock.Clock

	mu      sync.Mutex
	buf     []Span
	start   int // index of the oldest span
	count   int
	evicted uint64 // spans overwritten because the ring was full
}

// seedCounter decorrelates tracers created in the same nanosecond.
var seedCounter atomic.Uint64

// NewTracer returns a tracer with the given ring capacity (0 selects
// DefaultCapacity), head sampling off, and tail sampling at
// DefaultSlowThreshold, timing its spans on clk.
func NewTracer(capacity int, clk clock.Clock) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{buf: make([]Span, capacity), clk: clk}
	t.rng.Store(uint64(clk.Now().UnixNano()) ^ (seedCounter.Add(1) << 32))
	t.slow.Store(int64(DefaultSlowThreshold))
	return t
}

// SetProcess sets the process label stamped on spans committed here
// (typically the mercury class address).
func (t *Tracer) SetProcess(addr string) { t.proc.Store(&addr) }

// Process returns the configured process label.
func (t *Tracer) Process() string {
	if p := t.proc.Load(); p != nil {
		return *p
	}
	return ""
}

// SetSampleRate sets the head-sampling probability, clamped to [0, 1].
func (t *Tracer) SetSampleRate(rate float64) {
	switch {
	case rate <= 0 || math.IsNaN(rate):
		t.head.Store(0)
	case rate >= 1:
		t.head.Store(math.MaxUint64)
	default:
		t.head.Store(uint64(rate * float64(math.MaxUint64)))
	}
}

// SampleRate returns the configured head-sampling probability.
func (t *Tracer) SampleRate() float64 {
	th := t.head.Load()
	if th == math.MaxUint64 {
		return 1
	}
	return float64(th) / float64(math.MaxUint64)
}

// SetSlowThreshold sets the tail sampler's latency threshold; d <= 0
// disables tail sampling.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if d <= 0 {
		t.slow.Store(0)
		return
	}
	t.slow.Store(int64(d))
}

// SlowThreshold returns the tail sampler's threshold (0 = disabled).
func (t *Tracer) SlowThreshold() time.Duration {
	return time.Duration(t.slow.Load())
}

// isSlow reports whether d crosses the tail sampler's threshold.
func (t *Tracer) isSlow(d time.Duration) bool {
	ns := t.slow.Load()
	return ns > 0 && int64(d) >= ns
}

// sampleHead takes the head-sampling decision for a new root trace.
func (t *Tracer) sampleHead() bool {
	th := t.head.Load()
	if th == 0 {
		return false
	}
	if th == math.MaxUint64 {
		return true
	}
	return t.next() < th
}

// next advances the splitmix64 generator. The additive constant makes
// the atomic state a plain counter, so concurrent callers never lose
// steps; the mix makes successive outputs uniform.
func (t *Tracer) next() uint64 {
	x := t.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// NewID returns a fresh non-zero trace or span ID. It is two atomic
// ops and a handful of multiplies — cheap enough to run on every
// forward, sampled or not, so that tail-sampled spans taken on
// different hops of the same request still share one trace ID.
func (t *Tracer) NewID() ID {
	for {
		if v := t.next(); v != 0 {
			return ID(v)
		}
	}
}

// Root opens a new trace: a fresh ID, sampled or not, so that spans
// tail-sampled on different hops share it, and the head decision.
func (t *Tracer) Root() SpanContext {
	sc := SpanContext{TraceID: t.NewID()}
	if t.sampleHead() {
		sc.Flags = FlagSampled
	}
	return sc
}

// Live is a span that has started and not yet ended. Every span the
// runtime records follows one rule: End commits it if and only if its
// trace is head-sampled or it ran for at least the tail threshold. As
// every parent's interval covers its children's, a slow child implies a
// slow parent, and a tail tree stays connected. A Live is a value, so
// neither Start nor End allocates; the zero Live records nothing.
type Live struct {
	Span  // as far as known at the start; the opener may add Peer and Bytes
	tr    *Tracer
	start time.Time
	flags uint8
}

// Now reads the clock spans are timed on (the instance clock), for
// emitters without one of their own; the zero time without a tracer.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clk.Now()
}

// Start opens a span named name at the instant at, under parent: in
// parent's trace, a child of parent.Parent. Without a tracer, or a
// trace in parent, the span records nothing.
func (t *Tracer) Start(parent SpanContext, name string, kind Kind, at time.Time) Live {
	if t == nil || !parent.Valid() {
		return Live{}
	}
	s := Span{TraceID: parent.TraceID, SpanID: t.NewID(), Parent: parent.Parent, Name: name, Kind: kind}
	return Live{Span: s, tr: t, start: at, flags: parent.Flags}
}

// Context is the trace context of work done under l: l's trace, with l
// as the parent. It is zero when l records nothing.
func (l *Live) Context() SpanContext {
	return SpanContext{TraceID: l.TraceID, Parent: l.SpanID, Flags: l.flags}
}

// End closes l at the instant at, commits it under the rule, and
// reports whether it did. Ending the zero Live does nothing.
func (l *Live) End(at time.Time, failed bool) bool {
	d, sampled := at.Sub(l.start), l.flags&FlagSampled != 0
	if l.tr == nil || !sampled && !l.tr.isSlow(d) {
		return false
	}
	s := l.Span
	s.Start, s.Duration, s.Err, s.Tail = l.start.UnixNano(), int64(d), failed, !sampled
	l.tr.Commit(s)
	return true
}

// Commit appends a completed span to the ring, evicting the oldest
// span if the ring is full. The span is copied by value; if its
// Process label is empty the tracer's own is stamped in.
func (t *Tracer) Commit(s Span) {
	if s.Process == "" {
		s.Process = t.Process()
	}
	t.mu.Lock()
	if len(t.buf) == 0 {
		t.mu.Unlock()
		return
	}
	if t.count < len(t.buf) {
		t.buf[(t.start+t.count)%len(t.buf)] = s
		t.count++
	} else {
		t.buf[t.start] = s
		t.start = (t.start + 1) % len(t.buf)
		t.evicted++
	}
	t.mu.Unlock()
}

// Spans returns the ring's contents, oldest first.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, t.count)
	for i := 0; i < t.count; i++ {
		out[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	return out
}

// Len returns the number of buffered spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Capacity returns the ring size.
func (t *Tracer) Capacity() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Evicted returns how many spans were overwritten by ring overflow.
func (t *Tracer) Evicted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// SetCapacity resizes the ring, keeping the newest spans that fit.
func (t *Tracer) SetCapacity(capacity int) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nbuf := make([]Span, capacity)
	keep := t.count
	if keep > capacity {
		t.evicted += uint64(keep - capacity)
		keep = capacity
	}
	// Copy the newest `keep` spans in order.
	for i := 0; i < keep; i++ {
		nbuf[i] = t.buf[(t.start+t.count-keep+i)%len(t.buf)]
	}
	t.buf, t.start, t.count = nbuf, 0, keep
}

// Reset drops all buffered spans and the eviction counter.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.start, t.count, t.evicted = 0, 0, 0
}
