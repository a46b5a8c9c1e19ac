// Package trace implements a dependency-free distributed tracing
// subsystem for the Mochi runtime, in the mold of Dapper: every RPC
// forward carries a trace context {trace_id, parent_span_id, sampled}
// on the wire, each runtime phase the margo layer already
// distinguishes (queue wait, handler runtime, bulk transfers, nested
// client calls) records a span, and completed spans land in a bounded
// per-process ring buffer for export as Chrome trace-event JSON.
//
// The package is deliberately small and allocation-conscious: a
// SpanContext is three words and travels by value (through contexts,
// pooled mercury message headers, and handles), span IDs come from an
// atomic splitmix64 counter, the head-sampling decision is a single
// atomic load, and committing a span copies it by value into a
// preallocated ring — no per-span heap allocation in steady state.
package trace

import (
	"context"
	"fmt"
	"strconv"
)

// ID is a 64-bit trace or span identifier. Zero means "absent": a
// zero trace ID marks a request with no trace context, and a zero
// parent marks a root span. IDs marshal to JSON as fixed-width hex
// strings so JavaScript consumers (Perfetto, about://tracing) never
// round them through a lossy float64.
type ID uint64

// String renders the ID as 16 hex digits.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON encodes the ID as a quoted hex string.
func (id ID) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 18)
	b = append(b, '"')
	b = appendHex16(b, uint64(id))
	b = append(b, '"')
	return b, nil
}

// UnmarshalJSON accepts the quoted hex form produced by MarshalJSON.
func (id *ID) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("trace: bad id %q", b)
	}
	v, err := strconv.ParseUint(string(b[1:len(b)-1]), 16, 64)
	if err != nil {
		return fmt.Errorf("trace: bad id %q: %w", b, err)
	}
	*id = ID(v)
	return nil
}

const hexDigits = "0123456789abcdef"

func appendHex16(b []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[(v>>shift)&0xF])
	}
	return b
}

// Flag bits carried with a trace context on the wire.
const (
	// FlagSampled marks the trace as head-sampled at its origin: every
	// hop records its spans unconditionally.
	FlagSampled uint8 = 1 << 0
)

// SpanContext is the trace context that propagates across RPC hops.
// Parent is the span that operations in the current scope should
// attach to: on the wire it is the caller's client span; inside a
// handler context it is the handler span.
type SpanContext struct {
	TraceID ID
	Parent  ID
	Flags   uint8
}

// Valid reports whether the context carries a trace at all.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// Sampled reports whether the trace was head-sampled at its origin.
func (sc SpanContext) Sampled() bool { return sc.Flags&FlagSampled != 0 }

// Kind classifies a span by the runtime phase it measures.
type Kind string

// Span kinds recorded by the runtime.
const (
	// KindClient measures a Forward/ForwardProvider call at its origin,
	// from send to response.
	KindClient Kind = "client"
	// KindServer measures an inbound RPC end to end on the target:
	// from its dispatch to its reply, or to its handler's return if
	// that comes later.
	KindServer Kind = "server"
	// KindQueue measures the wait in the argobots pool between dispatch
	// and the handler ULT starting.
	KindQueue Kind = "queue"
	// KindHandler measures the handler body itself.
	KindHandler Kind = "handler"
	// KindBulk measures one bulk (RDMA-like) transfer issued from a
	// handler, with Bytes carrying the transfer size.
	KindBulk Kind = "bulk"
	// KindPhase measures a named step inside a component's operation
	// (a reshard's snapshot, transfer, merge, promote; a replicated
	// request's persist, replicate, round): where a long RPC or client
	// call spent its time.
	KindPhase Kind = "phase"
	// KindRetry measures one failed attempt that the resilience layer
	// retried; it is a child of the client span covering the whole
	// logical forward, and always carries Err.
	KindRetry Kind = "retry"
)

// Span is one completed, immutable trace record. Spans are plain
// values: they are committed by copy into the tracer's ring and
// snapshotted by copy out of it, so no reference to a live span ever
// escapes.
type Span struct {
	TraceID  ID     `json:"trace_id"`
	SpanID   ID     `json:"span_id"`
	Parent   ID     `json:"parent_span_id,omitempty"`
	Name     string `json:"name"`
	Kind     Kind   `json:"kind"`
	Process  string `json:"process,omitempty"`
	Peer     string `json:"peer,omitempty"`
	Start    int64  `json:"start_unix_ns"`
	Duration int64  `json:"duration_ns"`
	Bytes    int64  `json:"bytes,omitempty"`
	Err      bool   `json:"error,omitempty"`
	// Tail marks a span captured by the slow-RPC tail sampler rather
	// than the head sampler; tail trees may be partial (only the spans
	// that were each slow recorded themselves), but stay connected.
	Tail bool `json:"tail,omitempty"`
}

// ctxKey carries a SpanContext through a context.Context. The trace
// package owns the key so both the mercury and margo layers can read
// the same value without importing each other.
type ctxKey struct{}

// NewContext returns a context carrying sc.
func NewContext(parent context.Context, sc SpanContext) context.Context {
	return context.WithValue(parent, ctxKey{}, sc)
}

// Nest returns ctx for work done under l: carrying l's context in a
// head-sampled trace; otherwise ctx itself, whose span covers l's, so a
// tail tree stays connected and l costs no context allocation.
func (l *Live) Nest(ctx context.Context) context.Context {
	if l.flags&FlagSampled == 0 {
		return ctx
	}
	return NewContext(ctx, l.Context())
}

// FromContext extracts the SpanContext stored by NewContext.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok
}
