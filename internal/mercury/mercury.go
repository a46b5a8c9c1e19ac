// Package mercury implements the RPC and bulk-transfer substrate that
// the rest of the framework builds on, mirroring the role of the
// Mercury library in Mochi (paper §3.2): named RPCs with
// provider-multiplexing, request/response forwarding, and an RDMA-like
// bulk-transfer API for large payloads.
//
// Two transports are provided:
//
//   - "sm": an in-process fabric (Fabric) hosting many named endpoints.
//     It applies a configurable network cost model (latency, bandwidth,
//     per-message overhead) and supports fault injection (crash,
//     partition, message drop), which makes it the substrate for the
//     simulated multi-node deployments used by tests and benchmarks.
//   - "tcp": a real TCP transport for multi-OS-process deployments.
//
// Components never talk to a transport directly; they are given a
// *Class (one per process) and use Register / Forward / BulkTransfer.
package mercury

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/codec"
	"mochi/internal/trace"
)

// Errors returned by the RPC layer.
var (
	ErrUnreachable   = errors.New("mercury: address unreachable")
	ErrConnReset     = errors.New("mercury: connection reset")
	ErrNoHandler     = errors.New("mercury: no handler registered")
	ErrClassClosed   = errors.New("mercury: class closed")
	ErrTimeout       = errors.New("mercury: operation timed out")
	ErrBadBulk       = errors.New("mercury: invalid bulk descriptor")
	ErrBulkBounds    = errors.New("mercury: bulk transfer out of bounds")
	ErrRemoteFailure = errors.New("mercury: remote handler failed")
)

// AnyProvider matches any provider ID (Mercury's 65535 convention).
const AnyProvider uint16 = 0xFFFF

// RPCID identifies a registered RPC; derived from the RPC name by
// hashing, like Mercury's hg_id_t.
type RPCID uint32

// NameToID derives the stable RPC ID for a name.
func NameToID(name string) RPCID {
	h := fnv.New32a()
	h.Write([]byte(name))
	return RPCID(h.Sum32())
}

// Handler processes an incoming RPC. Implementations must eventually
// call h.Respond or h.RespondError exactly once. A handler is Mercury's
// progress-context callback: it runs in the goroutine that received the
// request (the TCP connection's read loop, or the sm sender), so it
// must return promptly and never wait on the network — while it runs,
// nothing else arriving on that connection, its own nested RPCs'
// replies included, is read. Work that blocks belongs elsewhere; the
// margo layer's callback only submits a ULT to an argobots pool, which
// is where the paper's handlers run.
type Handler func(h *Handle)

type rpcKey struct {
	id       RPCID
	provider uint16
}

type rpcEntry struct {
	name    string
	handler Handler
}

// Transport is the wire beneath a Class.
type transport interface {
	addr() string
	// send delivers m to dst, returning ErrUnreachable for crashed
	// destinations. Dropped messages return nil (they time out at the
	// caller).
	send(ctx context.Context, dst string, m *message) error
	close() error
}

type msgKind uint8

const (
	msgRequest msgKind = iota
	msgResponse
	msgBulkRead
	msgBulkWrite
	msgBulkAck
)

type message struct {
	kind     msgKind
	seq      uint64
	id       RPCID
	provider uint16
	src      string
	status   uint8 // response: 0 ok, 1 no handler, 2 handler error, 3 unauthorized
	errmsg   string
	auth     string
	payload  []byte
	// payloadPooled marks payload as backed by the codec buffer pool,
	// recyclable by whoever consumes the message. It never travels on
	// the wire.
	payloadPooled bool
	// landed marks a bulk ack whose payload the transport already
	// wrote into the initiator's registered region (payload is nil).
	// It never travels on the wire.
	landed bool
	// bulk fields
	bulkID  uint64
	bulkOff uint64
	bulkLen uint64
	// trace context: set on requests whose origin propagates a trace,
	// zero otherwise (and on responses — the client span is measured at
	// the origin, so nothing needs to travel back). The fields live in
	// the pooled message rather than a side allocation so carrying a
	// trace costs the hot path nothing.
	tc trace.SpanContext
}

// msgPool recycles message structs across the send and receive paths.
// Ownership rule: a message may be Put exactly once, by the last
// consumer; putMessage never recycles the payload (see releasePayload)
// because payload ownership is tracked separately.
var msgPool = sync.Pool{New: func() any { return new(message) }}

func getMessage() *message { return msgPool.Get().(*message) }

func putMessage(m *message) {
	*m = message{}
	msgPool.Put(m)
}

// releasePayload returns a pool-backed payload to the buffer pool and
// drops the reference. Payloads borrowed from callers (payloadPooled
// false) are only detached.
func (m *message) releasePayload() {
	if m.payloadPooled {
		codec.PutBuffer(m.payload)
	}
	m.payload = nil
	m.payloadPooled = false
}

// The wire layout is head, length-prefixed payload, tail. The three
// parts are described separately so the TCP transport can put a large
// payload on the wire, and take a bulk ack's payload off it, without
// copying it through a frame buffer (see tcp.go).
func (m *message) Proc(p *codec.Proc) {
	m.procHead(p)
	p.Bytes(&m.payload)
	if p.Decoding() {
		// The frame buffer is transport-owned and reused for the next
		// frame, so the payload is copied out — into pooled scratch
		// that the message's consumer recycles (Handle.release, bulk
		// handlers).
		m.payloadPooled = len(m.payload) > 0
		if m.payloadPooled {
			m.payload = codec.AppendBuffer(m.payload)
		} else {
			m.payload = nil
		}
	}
	m.procTail(p)
}

func (m *message) procHead(p *codec.Proc) {
	p.Uint8((*uint8)(&m.kind))
	p.Uint64(&m.seq)
	p.Uint32((*uint32)(&m.id))
	p.Uint16(&m.provider)
	// src and auth repeat the same few values for a connection's whole
	// lifetime; interning makes their steady-state decode free.
	p.StringIntern(&m.src)
	p.Uint8(&m.status)
	p.String(&m.errmsg)
	p.StringIntern(&m.auth)
}

// messageTailLen is the encoded size of the fields after the payload.
const messageTailLen = 5*8 + 1

func (m *message) procTail(p *codec.Proc) {
	p.Uint64(&m.bulkID)
	p.Uint64(&m.bulkOff)
	p.Uint64(&m.bulkLen)
	p.Uint64((*uint64)(&m.tc.TraceID))
	p.Uint64((*uint64)(&m.tc.Parent))
	p.Uint8(&m.tc.Flags)
}

// pendingTable maps in-flight sequence numbers to reply channels. It
// replaces a sync.Map: uint64-keyed mutex shards neither box keys nor
// allocate entry cells per Store, so the steady-state forward path
// does no map-related allocation. Channel sends happen under the
// shard lock, which gives remove() a hard guarantee: after it returns,
// no delivery to the removed channel can be in flight, so the channel
// can be drained and recycled.
type pendingTable struct {
	shards [pendingShards]pendingShard
}

const pendingShards = 16

type pendingShard struct {
	mu sync.Mutex
	m  map[uint64]chan *message
	_  [24]byte // pad to limit false sharing between shards
}

func (t *pendingTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]chan *message)
	}
}

func (t *pendingTable) shard(seq uint64) *pendingShard {
	return &t.shards[seq%pendingShards]
}

func (t *pendingTable) add(seq uint64, ch chan *message) {
	s := t.shard(seq)
	s.mu.Lock()
	s.m[seq] = ch
	s.mu.Unlock()
}

// deliver hands m to the forwarder waiting on seq. It reports false if
// no one is waiting (timed out and removed, or duplicate response).
func (t *pendingTable) deliver(seq uint64, m *message) bool {
	s := t.shard(seq)
	s.mu.Lock()
	ch, ok := s.m[seq]
	if ok {
		select {
		case ch <- m:
		default:
			ok = false
		}
	}
	s.mu.Unlock()
	return ok
}

func (t *pendingTable) remove(seq uint64) {
	s := t.shard(seq)
	s.mu.Lock()
	delete(s.m, seq)
	s.mu.Unlock()
}

// replyChanPool recycles the one-shot response channels of Forward and
// BulkTransfer. Channels are pointer-shaped, so Get/Put do not box.
var replyChanPool = sync.Pool{New: func() any { return make(chan *message, 1) }}

func getReplyChan() chan *message { return replyChanPool.Get().(chan *message) }

// putReplyChan recycles ch. Callers must have removed the pending
// entry first; any response that squeaked in before remove() is
// reclaimed here.
func putReplyChan(ch chan *message) {
	select {
	case m := <-ch:
		m.releasePayload()
		putMessage(m)
	default:
	}
	replyChanPool.Put(ch)
}

// Class is one process's attachment to the network: it owns an
// address, a table of registered RPC handlers, and registered bulk
// memory regions. It corresponds to an initialized Mercury class.
type Class struct {
	tr transport

	mu       sync.RWMutex
	handlers map[rpcKey]*rpcEntry
	closed   bool

	pending pendingTable
	seq     atomic.Uint64

	bulkMu  sync.RWMutex
	bulks   map[uint64]*Bulk
	bulkSeq atomic.Uint64

	// landings maps an in-flight remote pull to the local registered
	// memory its ack fills (see claimLanding).
	landMu   sync.Mutex
	landings map[uint64][]byte

	monitor atomic.Pointer[monitorHolder]
	tracer  atomic.Pointer[trace.Tracer]

	authMu      sync.RWMutex
	auth        authState
	authEnabled atomic.Bool

	// chaos, when set, injects transport-level faults into every
	// outbound message (see ChaosTransport).
	chaos atomic.Pointer[ChaosTransport]
}

// monitorHolder wraps the monitor so an atomic.Pointer can hold an
// interface value.
type monitorHolder struct{ m Monitor }

// Monitor observes finished bulk transfers. margo.New installs its
// per-RPC record as the class's one observer, so bulk statistics sit
// beside the RPC statistics of the paper's §4 introspection.
type Monitor interface {
	// BulkTransferred fires on completion of a bulk operation.
	BulkTransferred(op BulkOp, peer string, bytes int)
}

// SetMonitor installs m (nil uninstalls).
func (c *Class) SetMonitor(m Monitor) {
	if m == nil {
		c.monitor.Store(nil)
		return
	}
	c.monitor.Store(&monitorHolder{m})
}

// bulkDone reports a finished transfer to the observer, if any.
func (c *Class) bulkDone(op BulkOp, peer string, size uint64) {
	if h := c.monitor.Load(); h != nil {
		h.m.BulkTransferred(op, peer, int(size))
	}
}

func newClass(tr transport) *Class {
	c := &Class{
		tr:       tr,
		handlers: map[rpcKey]*rpcEntry{},
		bulks:    map[uint64]*Bulk{},
		landings: map[uint64][]byte{},
	}
	c.pending.init()
	return c
}

// Addr returns this class's network address.
func (c *Class) Addr() string { return c.tr.addr() }

// Register installs a handler for the RPC name, matching any provider
// ID, and returns the RPC's ID.
func (c *Class) Register(name string, h Handler) RPCID {
	return c.RegisterProvider(name, AnyProvider, h)
}

// RegisterProvider installs a handler for (name, provider).
// Re-registering replaces the previous handler.
func (c *Class) RegisterProvider(name string, provider uint16, h Handler) RPCID {
	id := NameToID(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handlers[rpcKey{id, provider}] = &rpcEntry{name: name, handler: h}
	return id
}

// Deregister removes the handler for (name, provider).
func (c *Class) Deregister(name string, provider uint16) {
	id := NameToID(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.handlers, rpcKey{id, provider})
}

// Registered reports whether (name, provider) has a handler.
func (c *Class) Registered(name string, provider uint16) bool {
	id := NameToID(name)
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.handlers[rpcKey{id, provider}]
	return ok
}

func (c *Class) lookup(id RPCID, provider uint16) *rpcEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.handlers[rpcKey{id, provider}]; ok {
		return e
	}
	if e, ok := c.handlers[rpcKey{id, AnyProvider}]; ok {
		return e
	}
	return nil
}

// Forward sends an RPC to provider AnyProvider at dst and waits for
// the response.
func (c *Class) Forward(ctx context.Context, dst string, id RPCID, input []byte) ([]byte, error) {
	return c.ForwardProvider(ctx, dst, id, AnyProvider, input)
}

// ForwardProvider sends an RPC to a specific provider at dst and waits
// for the response. It is the equivalent of margo_provider_forward.
// input is borrowed for the duration of the call only; the returned
// payload is owned by the caller.
func (c *Class) ForwardProvider(ctx context.Context, dst string, id RPCID, provider uint16, input []byte) ([]byte, error) {
	return c.forwardProvider(ctx, dst, id, provider, input, trace.SpanContext{})
}

// ForwardProviderTrace is ForwardProvider with an explicit trace
// context stamped into the request envelope; the remote handler sees
// it via Handle.Trace. A zero SpanContext sends no trace. The margo
// layer uses this to propagate spans across hops.
func (c *Class) ForwardProviderTrace(ctx context.Context, dst string, id RPCID, provider uint16, input []byte, tc trace.SpanContext) ([]byte, error) {
	return c.forwardProvider(ctx, dst, id, provider, input, tc)
}

func (c *Class) forwardProvider(ctx context.Context, dst string, id RPCID, provider uint16, input []byte, tc trace.SpanContext) ([]byte, error) {
	c.mu.RLock()
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return nil, ErrClassClosed
	}
	seq := c.seq.Add(1)
	ch := getReplyChan()
	c.pending.add(seq, ch)

	req := getMessage()
	req.kind = msgRequest
	req.seq = seq
	req.id = id
	req.provider = provider
	req.src = c.Addr()
	req.auth = c.outgoingToken()
	req.payload = input
	req.tc = tc
	err := c.send(ctx, dst, req)
	req.payload = nil // borrowed from the caller, not ours to recycle
	putMessage(req)
	if err != nil {
		c.pending.remove(seq)
		putReplyChan(ch)
		return nil, err
	}
	var resp *message
	if done := ctx.Done(); done == nil {
		// Uncancellable context: a plain receive avoids selectgo.
		resp = <-ch
	} else {
		select {
		case resp = <-ch:
		case <-done:
			c.pending.remove(seq)
			putReplyChan(ch)
			return nil, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
		}
	}
	{
		c.pending.remove(seq)
		putReplyChan(ch)
		status, errmsg, payload := resp.status, resp.errmsg, resp.payload
		if status == 0 {
			// Ownership of the payload moves to the caller; it must
			// not flow back into the buffer pool.
			resp.payload = nil
			resp.payloadPooled = false
			putMessage(resp)
			return payload, nil
		}
		resp.releasePayload()
		putMessage(resp)
		switch status {
		case 1:
			return nil, fmt.Errorf("%w: rpc %#x at %s", ErrNoHandler, id, dst)
		case 3:
			return nil, fmt.Errorf("%w: rpc %#x at %s", ErrUnauthorized, id, dst)
		default:
			return nil, fmt.Errorf("%w: %s", ErrRemoteFailure, errmsg)
		}
	}
}

// dispatch is called by transports for every inbound message, in the
// goroutine that received it. Responses go to their waiting forwarder
// and requests run their handler right here (see Handler). Bulk
// operations write to the network, so each gets a goroutine of its
// own: a read loop must not wait on a write.
func (c *Class) dispatch(m *message) {
	switch m.kind {
	case msgResponse, msgBulkAck:
		if !c.pending.deliver(m.seq, m) {
			// Nobody is waiting (the forwarder timed out): reclaim.
			m.releasePayload()
			putMessage(m)
		}
	case msgRequest:
		c.handleRequest(m)
	case msgBulkRead:
		go c.handleBulkRead(m)
	case msgBulkWrite:
		go c.handleBulkWrite(m)
	default:
		m.releasePayload()
		putMessage(m)
	}
}

// respondStatus sends a handler-less error response for an inbound
// request (unauthorized, no handler) and reclaims the request message.
// It writes to the network, so it runs on a goroutine of its own.
func (c *Class) respondStatus(m *message, status uint8) {
	resp := getMessage()
	resp.kind = msgResponse
	resp.seq = m.seq
	resp.id = m.id
	resp.provider = m.provider
	resp.src = c.Addr()
	resp.status = status
	_ = c.send(context.Background(), m.src, resp)
	putMessage(resp)
	m.releasePayload()
	putMessage(m)
}

func (c *Class) handleRequest(m *message) {
	if !c.verifyInbound(m) {
		go c.respondStatus(m, 3)
		return
	}
	entry := c.lookup(m.id, m.provider)
	if entry == nil {
		go c.respondStatus(m, 1)
		return
	}
	h := getHandle()
	h.class = c
	h.name = entry.name
	h.id = m.id
	h.provider = m.provider
	h.src = m.src
	h.seq = m.seq
	h.input = m.payload
	h.inputPooled = m.payloadPooled
	h.tc = m.tc
	// The handle now owns the payload; the message shell goes back.
	m.payload = nil
	m.payloadPooled = false
	putMessage(m)
	entry.handler(h)
}

// Handle represents one in-flight inbound RPC. Handles are pooled:
// a Handle and its Input() are valid only until Respond/RespondError
// returns, after which both may be reused for an unrelated RPC.
// Handlers that need either for longer must copy first (see DESIGN.md
// "Hot-path memory discipline").
//
// A handle carries the span that measures its RPC on the target
// (SetSpan) to the point every answer passes through: the span ends at
// the reply, or at the last Done of a Hold taken before it.
type Handle struct {
	class       *Class
	name        string
	id          RPCID
	provider    uint16
	src         string
	seq         uint64
	input       []byte
	inputPooled bool
	tc          trace.SpanContext
	responded   atomic.Bool
	span        trace.Live
	holds       atomic.Int32 // the reply's, and one per Hold
}

var handlePool = sync.Pool{New: func() any { return new(Handle) }}

func getHandle() *Handle {
	h := handlePool.Get().(*Handle)
	h.responded.Store(false)
	h.holds.Store(1)
	return h
}

// SetSpan attaches the span that measures this RPC on its target.
func (h *Handle) SetSpan(s trace.Live) { h.span = s }

// Span is the trace context of work done for this RPC: its server
// span's. A handler that answers after it returns reads it while it
// still holds the handle, unanswered.
func (h *Handle) Span() trace.SpanContext { return h.span.Context() }

// Hold keeps the handle, and its span, open past the reply until the
// matching Done: margo holds a handle while its handler runs, so the
// server span covers both the handler and the answer.
func (h *Handle) Hold() { h.holds.Add(1) }

// Done lets go of a Hold at the instant at. If the reply came first,
// the span ends there.
func (h *Handle) Done(at time.Time) {
	if h.holds.Add(-1) == 0 {
		h.end(at)
	}
}

// end ends the span at at and recycles the handle: the last of the
// reply and the holds calls it.
func (h *Handle) end(at time.Time) {
	h.span.End(at, h.span.Err)
	h.release()
}

// release recycles the handle and its pooled input buffer. Called
// exactly once, from end, after the response is on the wire
// (so responses echoing the input are copied before the buffer is
// reused).
func (h *Handle) release() {
	if h.inputPooled {
		codec.PutBuffer(h.input)
	}
	h.class = nil
	h.name = ""
	h.src = ""
	h.input = nil
	h.inputPooled = false
	h.id = 0
	h.provider = 0
	h.seq = 0
	h.tc = trace.SpanContext{}
	h.span = trace.Live{}
	handlePool.Put(h)
}

// Name returns the RPC's registered name.
func (h *Handle) Name() string { return h.name }

// ID returns the RPC ID.
func (h *Handle) ID() RPCID { return h.id }

// Provider returns the provider ID the RPC targets.
func (h *Handle) Provider() uint16 { return h.provider }

// Source returns the caller's address.
func (h *Handle) Source() string { return h.src }

// Input returns the request payload.
func (h *Handle) Input() []byte { return h.input }

// Class returns the local class, so handlers can issue further RPCs or
// bulk transfers.
func (h *Handle) Class() *Class { return h.class }

// Trace returns the trace context the caller propagated with this
// request (zero, i.e. !Valid(), when the caller sent none). Like the
// rest of the handle it is only meaningful until Respond/RespondError.
func (h *Handle) Trace() trace.SpanContext { return h.tc }

// Respond sends the RPC's output back to the caller. output is
// borrowed for the duration of the call (transports copy or serialize
// it before returning). Respond releases the handle: neither it nor
// its Input() may be used afterwards.
func (h *Handle) Respond(output []byte) error {
	return h.respond(0, "", output)
}

// RespondError reports a handler failure to the caller. Like Respond,
// it releases the handle.
func (h *Handle) RespondError(err error) error {
	return h.respond(2, err.Error(), nil)
}

func (h *Handle) respond(status uint8, errmsg string, output []byte) error {
	if !h.responded.CompareAndSwap(false, true) {
		return errors.New("mercury: handle already responded")
	}
	resp := getMessage()
	resp.kind = msgResponse
	resp.seq = h.seq
	resp.id = h.id
	resp.provider = h.provider
	resp.src = h.class.Addr()
	resp.status = status
	resp.errmsg = errmsg
	resp.payload = output
	err := h.class.send(context.Background(), h.src, resp)
	resp.payload = nil // borrowed from the handler
	putMessage(resp)
	h.span.Err = status != 0
	if h.holds.Add(-1) == 0 {
		h.end(h.class.Tracer().Now())
	}
	return err
}

// Close shuts the class down: the address becomes unreachable and all
// registered state is dropped. The transport stops before the handlers
// go, so a request it has already read still finds its handler (whose
// reply may no longer get out) instead of being answered "no handler".
func (c *Class) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.tr.close()
	c.mu.Lock()
	c.handlers = map[rpcKey]*rpcEntry{}
	c.mu.Unlock()
	return err
}
