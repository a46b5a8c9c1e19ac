// Package margo is the shared runtime that every Mochi component in a
// process uses (paper §3.2): it weds the mercury RPC layer to the
// argobots threading layer, dispatching each incoming RPC as a ULT on
// the pool associated with its target provider (Figure 2).
//
// On top of that core it implements the two runtime-level requirements
// of dynamic services:
//
//   - Performance introspection (§4): one always-on per-RPC record
//     (metrics.go), rendered both as the paper's Listing 1 (Stats) and
//     as the mochi_rpc_* metric families, plus injection points across
//     the lifetime of an RPC for user callbacks (AddHook) and an opt-in
//     periodic progress sampler (EnableMonitoring).
//   - Online reconfiguration (§5): pools and execution streams can be
//     added and removed while the process runs, with Margo enforcing
//     validity (unique names, no removal of in-use pools).
package margo

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/argobots"
	"mochi/internal/clock"
	"mochi/internal/mercury"
	"mochi/internal/metrics"
	"mochi/internal/resilience"
	"mochi/internal/trace"
)

// Errors specific to the margo layer.
var (
	ErrProviderRegistered = errors.New("margo: provider id already registered for rpc")
	ErrFinalized          = errors.New("margo: instance finalized")
)

// Handler is a provider-level RPC handler. It runs inside a ULT on the
// provider's pool. The context carries RPC metadata (parent RPC
// tracking for monitoring).
type Handler func(ctx context.Context, h *mercury.Handle)

type rpcReg struct {
	name     string
	provider uint16
	pool     *argobots.Pool
}

// Instance is one process's margo runtime.
type Instance struct {
	class *mercury.Class
	rt    *argobots.Runtime
	clk   clock.Clock

	mu           sync.RWMutex
	cfg          Config
	regs         map[regKey]rpcReg
	finalized    bool
	progressPool *argobots.Pool
	rpcPool      *argobots.Pool

	metrics *instMetrics
	sampler sampler
	tracer  *trace.Tracer
	hooks   hookSet

	// res holds the retry/circuit-breaker manager; nil keeps forwards
	// single-attempt. Atomic so SetResilience can reconfigure a live
	// instance without locking the forward path.
	res atomic.Pointer[resilience.Manager]
}

// New creates an instance over an existing mercury class using a JSON
// configuration (Listing 2 format). An empty rawConfig selects the
// default one-pool/one-ES topology.
func New(class *mercury.Class, rawConfig []byte) (*Instance, error) {
	return NewWithClock(class, rawConfig, clock.New())
}

// NewWithClock is New with an explicit clock (tests use clock.Sim to
// drive the monitoring sampler deterministically).
func NewWithClock(class *mercury.Class, rawConfig []byte, clk clock.Clock) (*Instance, error) {
	cfg, err := ParseConfig(rawConfig)
	if err != nil {
		return nil, err
	}
	rt, err := argobots.NewRuntime(cfg.Argobots)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		class: class,
		rt:    rt,
		clk:   clk,
		cfg:   cfg,
		regs:  map[regKey]rpcReg{},
	}
	pp, ok := rt.FindPool(cfg.ProgressPool)
	if !ok {
		rt.Stop()
		return nil, fmt.Errorf("margo: progress pool %q not defined", cfg.ProgressPool)
	}
	rp, ok := rt.FindPool(cfg.RPCPool)
	if !ok {
		rt.Stop()
		return nil, fmt.Errorf("margo: rpc pool %q not defined", cfg.RPCPool)
	}
	inst.progressPool, inst.rpcPool = pp, rp
	pp.Retain()
	rp.Retain()

	// The per-RPC record is always on: atomic cells are cheap enough
	// for the hot path, and a scrape or a controller that starts after
	// the service has been running must still see everything. It is
	// also the class's one bulk observer.
	reg := metrics.NewRegistry()
	inst.metrics = newInstMetrics(reg)
	rt.RegisterMetrics(reg)
	class.SetMetrics(reg)
	class.SetMonitor(inst.metrics)

	// Tracing is always wired (head sampling defaults to off, tail
	// sampling to the slow-RPC threshold); the bedrock monitoring block
	// tunes rates via Tracer(). Installing the tracer on the class lets
	// bulk transfers issued from handlers record phase spans in the
	// same ring.
	inst.tracer = trace.NewTracer(trace.DefaultCapacity)
	inst.tracer.SetProcess(class.Addr())
	class.SetTracer(inst.tracer)

	if cfg.EnableMonitoring {
		inst.EnableMonitoring()
	}
	if cfg.Resilience != nil {
		inst.SetResilience(cfg.Resilience)
	}
	return inst, nil
}

// Class returns the underlying mercury class.
func (m *Instance) Class() *mercury.Class { return m.class }

// Addr returns the process's network address.
func (m *Instance) Addr() string { return m.class.Addr() }

// Runtime returns the argobots runtime, for introspection.
func (m *Instance) Runtime() *argobots.Runtime { return m.rt }

// RPCPool returns the pool handlers are dispatched on by default;
// providers use it for intra-request fan-out (Pool.ParallelDo).
func (m *Instance) RPCPool() *argobots.Pool { return m.rpcPool }

// Clock returns the instance's time source.
func (m *Instance) Clock() clock.Clock { return m.clk }

// regKey identifies a provider registration. A struct key keeps map
// operations free of the per-call formatting and allocation a
// fmt.Sprintf-built string key would cost.
type regKey struct {
	name     string
	provider uint16
}

// RegisterProvider registers an RPC handler for (name, providerID),
// executed on the given pool (nil selects the configured rpc pool).
// It mirrors MARGO_REGISTER_PROVIDER: incoming requests are turned
// into ULTs submitted to the pool, as in Figure 2. It is a RegisterSet
// of one whose handle is dropped; DeregisterProvider removes it.
func (m *Instance) RegisterProvider(name string, providerID uint16, pool *argobots.Pool, h Handler) (mercury.RPCID, error) {
	if _, err := m.RegisterSet(providerID, pool, RPC{Name: name, Handler: h}); err != nil {
		return 0, err
	}
	return mercury.NameToID(name), nil
}

// Register registers an RPC handler matching any provider ID on the
// configured rpc pool.
func (m *Instance) Register(name string, h Handler) (mercury.RPCID, error) {
	return m.RegisterProvider(name, mercury.AnyProvider, nil, h)
}

// DeregisterProvider removes the handler for (name, providerID).
func (m *Instance) DeregisterProvider(name string, providerID uint16) {
	key := regKey{name, providerID}
	m.mu.Lock()
	reg, ok := m.regs[key]
	if ok {
		delete(m.regs, key)
	}
	m.mu.Unlock()
	if ok {
		reg.pool.Release()
		m.class.Deregister(name, providerID)
	}
}

// dispatchTask carries one inbound RPC from mercury dispatch to its
// handler ULT. Tasks are pooled, and run is bound to exec once when the
// task is first allocated, so submitting a ULT allocates neither a task
// nor a fresh closure.
type dispatchTask struct {
	m        *Instance
	h        Handler
	hd       *mercury.Handle
	info     RPCInfo
	cell     *cell
	tc       trace.SpanContext
	queuedAt time.Time
	run      argobots.ULT
}

var dispatchTaskPool sync.Pool

func init() {
	// Assigned in init, not in the var declaration: exec references the
	// pool, which would otherwise be an initialization cycle.
	dispatchTaskPool.New = func() any {
		t := new(dispatchTask)
		t.run = t.exec
		return t
	}
}

func (t *dispatchTask) exec() {
	m, h, hd, info, c, tc, queuedAt := t.m, t.h, t.hd, t.info, t.cell, t.tc, t.queuedAt
	*t = dispatchTask{run: t.run}
	dispatchTaskPool.Put(t)
	started := m.clk.Now()
	queueWait := started.Sub(queuedAt)
	m.metrics.handlerStarted(c, queueWait, info.Bytes)
	m.hooks.onHandlerStart(info, queueWait)
	// Server-side span lifecycle: a server span covering queue wait +
	// handler runtime, with queue and handler phase children. The
	// handler span's ID rides in the handler context so nested
	// forwards and bulk transfers become its children. Spans are kept
	// as stack values until the commit decision at the end — head
	// sampling commits always, tail sampling commits only if the RPC
	// turned out slow (children committed themselves under the same
	// rule, so slow trees stay connected).
	tr := m.tracer
	base := context.Background()
	var serverSpan, handlerSpan trace.ID
	record := tc.Valid() && (tc.Sampled() || tr.TailEnabled())
	if record {
		serverSpan = tr.NewID()
		handlerSpan = tr.NewID()
		base = trace.NewContext(base, trace.SpanContext{
			TraceID: tc.TraceID,
			Parent:  handlerSpan,
			Flags:   tc.Flags,
		})
	}
	ctx := withCurrentRPC(base, info)
	h(ctx, hd)
	ran := m.clk.Since(started)
	m.metrics.handlerEnded(c, ran)
	m.hooks.onHandlerEnd(info, ran)
	if record && (tc.Sampled() || tr.Slow(queueWait+ran)) {
		tail := !tc.Sampled()
		tr.Commit(trace.Span{
			TraceID:  tc.TraceID,
			SpanID:   serverSpan,
			Parent:   tc.Parent,
			Name:     info.Name,
			Kind:     trace.KindServer,
			Peer:     info.Peer,
			Start:    queuedAt.UnixNano(),
			Duration: int64(queueWait + ran),
			Bytes:    int64(info.Bytes),
			Tail:     tail,
		})
		tr.Commit(trace.Span{
			TraceID:  tc.TraceID,
			SpanID:   tr.NewID(),
			Parent:   serverSpan,
			Name:     "queue",
			Kind:     trace.KindQueue,
			Start:    queuedAt.UnixNano(),
			Duration: int64(queueWait),
			Tail:     tail,
		})
		tr.Commit(trace.Span{
			TraceID:  tc.TraceID,
			SpanID:   handlerSpan,
			Parent:   serverSpan,
			Name:     "handler",
			Kind:     trace.KindHandler,
			Start:    started.UnixNano(),
			Duration: int64(ran),
			Tail:     tail,
		})
	}
}

// dispatch submits the handler as a ULT, recording queueing and
// execution timings in the target cell and through the hook points
// (§4).
func (m *Instance) dispatch(pool *argobots.Pool, h Handler, hd *mercury.Handle) {
	t := dispatchTaskPool.Get().(*dispatchTask)
	t.m, t.h, t.hd = m, h, hd
	t.info = RPCInfo{
		Name:     hd.Name(),
		ID:       hd.ID(),
		Provider: hd.Provider(),
		Peer:     hd.Source(),
		Bytes:    len(hd.Input()),
	}
	// Parent RPC propagation: the wire does not carry parent IDs in
	// this reproduction, so the target side records the paper's 65535
	// "no parent" sentinel unless set by nesting within this process.
	// (Trace context, by contrast, does travel on the wire; capture it
	// before the handle can be released.)
	t.tc = hd.Trace()
	t.cell = m.metrics.target(t.info)
	t.queuedAt = m.clk.Now()
	if err := pool.Submit(t.run); err != nil {
		*t = dispatchTask{run: t.run}
		dispatchTaskPool.Put(t)
		// Pool was closed during reconfiguration: fail the RPC rather
		// than dropping it silently.
		_ = hd.RespondError(fmt.Errorf("margo: provider pool unavailable: %w", err))
	}
}

// Forward sends an RPC (any provider) and waits for the reply.
func (m *Instance) Forward(ctx context.Context, dst string, name string, input []byte) ([]byte, error) {
	return m.ForwardProvider(ctx, dst, name, mercury.AnyProvider, input)
}

// ForwardProvider sends an RPC to a specific provider and waits for
// the reply, recording origin-side statistics.
func (m *Instance) ForwardProvider(ctx context.Context, dst string, name string, provider uint16, input []byte) ([]byte, error) {
	info := RPCInfo{
		Name:     name,
		ID:       mercury.NameToID(name),
		Provider: provider,
		Peer:     dst,
		Bytes:    len(input),
	}
	if parent, ok := currentRPC(ctx); ok {
		info.ParentID = parent.ID
		info.ParentProvider = parent.Provider
	} else {
		info.ParentID = mercury.RPCID(noParent32)
		info.ParentProvider = noParent16
	}
	// Client span: every forward carries a trace context on the wire —
	// a fresh root (head-sample decision taken here) when the caller's
	// ctx has none, a child of the surrounding handler span otherwise.
	// IDs are generated even for unsampled traces (two atomic ops) so
	// that spans tail-sampled independently on different hops of one
	// slow request still share a trace ID.
	tr := m.tracer
	clientSpan := tr.NewID()
	var parentSpan trace.ID
	var tc trace.SpanContext
	if psc, ok := trace.FromContext(ctx); ok && psc.Valid() {
		parentSpan = psc.Parent
		tc = trace.SpanContext{TraceID: psc.TraceID, Parent: clientSpan, Flags: psc.Flags}
	} else {
		tc = trace.SpanContext{TraceID: tr.NewID(), Parent: clientSpan}
		if tr.SampleHead() {
			tc.Flags = trace.FlagSampled
		}
	}
	start := m.clk.Now()
	c := m.metrics.forwarding(info)
	m.hooks.onForwardStart(info)
	var out []byte
	var err error
	if mgr := m.res.Load(); mgr == nil {
		out, err = m.class.ForwardProviderTrace(ctx, dst, info.ID, provider, input, tc)
	} else {
		out, err = m.forwardResilient(ctx, mgr, dst, provider, input, info, tc, clientSpan)
	}
	d := m.clk.Since(start)
	m.metrics.forwarded(c, d, len(input), err)
	m.hooks.onForwardEnd(info, d, err)
	if tc.Sampled() || tr.Slow(d) {
		tr.Commit(trace.Span{
			TraceID:  tc.TraceID,
			SpanID:   clientSpan,
			Parent:   parentSpan,
			Name:     name,
			Kind:     trace.KindClient,
			Peer:     dst,
			Start:    start.UnixNano(),
			Duration: int64(d),
			Bytes:    int64(len(input)),
			Err:      err != nil,
			Tail:     !tc.Sampled(),
		})
		// Exemplar: pin this trace ID to the latency bucket the RPC
		// landed in, linking the histogram's tail straight to a span
		// tree. Runs only for sampled/slow RPCs, so the common path
		// pays nothing (and stays inside the alloc pins).
		sec := d.Seconds()
		id := tc.TraceID.String()
		ts := float64(start.UnixNano()) / 1e9
		c.dHist.SetExemplar(sec, id, ts)
		m.metrics.aggFwd.SetExemplar(sec, id, ts)
	}
	return out, err
}

// FindPoolByName exposes margo_find_pool_by_name.
func (m *Instance) FindPoolByName(name string) (*argobots.Pool, bool) {
	return m.rt.FindPool(name)
}

// AddPoolFromJSON adds a pool at run time (margo_add_pool_from_json).
func (m *Instance) AddPoolFromJSON(raw []byte) (*argobots.Pool, error) {
	var pc argobots.PoolConfig
	if err := json.Unmarshal(raw, &pc); err != nil {
		return nil, fmt.Errorf("margo: bad pool config: %w", err)
	}
	return m.rt.AddPool(pc)
}

// AddPool adds a pool from a parsed config.
func (m *Instance) AddPool(pc argobots.PoolConfig) (*argobots.Pool, error) {
	return m.rt.AddPool(pc)
}

// RemovePool removes a pool; it fails while the pool is used by an
// xstream, a provider registration, or as the progress/rpc pool.
func (m *Instance) RemovePool(name string) error {
	return m.rt.RemovePool(name)
}

// AddXstreamFromJSON adds an execution stream at run time.
func (m *Instance) AddXstreamFromJSON(raw []byte) (*argobots.Xstream, error) {
	var xc argobots.XstreamConfig
	if err := json.Unmarshal(raw, &xc); err != nil {
		return nil, fmt.Errorf("margo: bad xstream config: %w", err)
	}
	return m.rt.AddXstream(xc)
}

// AddXstream adds an execution stream from a parsed config.
func (m *Instance) AddXstream(xc argobots.XstreamConfig) (*argobots.Xstream, error) {
	return m.rt.AddXstream(xc)
}

// RemoveXstream removes an execution stream.
func (m *Instance) RemoveXstream(name string) error {
	return m.rt.RemoveXstream(name)
}

// GetConfig returns the live configuration as JSON, reflecting any
// online reconfiguration since startup.
func (m *Instance) GetConfig() ([]byte, error) {
	m.mu.RLock()
	cfg := m.cfg
	m.mu.RUnlock()
	cfg.Argobots = m.rt.Snapshot()
	return json.MarshalIndent(cfg, "", "  ")
}

// EnableMonitoring starts the periodic progress sampler (§4: in-flight
// RPCs and pool sizes, in Stats().Samples). Per-RPC statistics need no
// switch: they are always recorded.
func (m *Instance) EnableMonitoring() {
	m.startSampler()
}

// Stats renders the per-RPC record as Listing 1, with the progress
// samples taken so far.
func (m *Instance) Stats() *StatsSnapshot {
	out := m.metrics.snapshot(m.Addr())
	m.sampler.mu.Lock()
	out.Samples = append([]ProgressSample(nil), m.sampler.samples...)
	m.sampler.mu.Unlock()
	return out
}

// Tracer returns the instance's span sink and sampling configuration.
// It is always non-nil; head sampling defaults to off and tail
// sampling to trace.DefaultSlowThreshold.
func (m *Instance) Tracer() *trace.Tracer { return m.tracer }

// AddHook injects user callbacks at the monitoring points (§4 "inject
// callbacks to be invoked at various points in the lifetime of an
// RPC"). Returns a removal function.
func (m *Instance) AddHook(h *Hook) func() {
	return m.hooks.add(h)
}

// Finalize shuts the runtime down: the sampler stops, xstreams join,
// and the mercury class closes.
func (m *Instance) Finalize() {
	m.mu.Lock()
	if m.finalized {
		m.mu.Unlock()
		return
	}
	m.finalized = true
	out := m.cfg.MonitoringOutput
	m.mu.Unlock()
	if out != "" {
		if raw, err := m.Stats().JSON(); err == nil {
			_ = os.WriteFile(out, raw, 0o644)
		}
	}
	m.stopSampler()
	m.rt.Stop()
	_ = m.class.Close()
}

// Finalized reports whether Finalize has run.
func (m *Instance) Finalized() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.finalized
}

// rpcCtxKey carries the currently-executing RPC through contexts, so
// nested Forwards record their parent (Listing 1's parent_rpc_id).
type rpcCtxKey struct{}

func withCurrentRPC(ctx context.Context, info RPCInfo) context.Context {
	return context.WithValue(ctx, rpcCtxKey{}, info)
}

func currentRPC(ctx context.Context) (RPCInfo, bool) {
	info, ok := ctx.Value(rpcCtxKey{}).(RPCInfo)
	return info, ok
}
