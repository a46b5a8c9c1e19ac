package margo

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/mercury"
	"mochi/internal/metrics"
	"mochi/internal/resilience"
)

// aggLabel is the catch-all series of the per-RPC histogram vectors:
// it aggregates every RPC regardless of name/provider, exists from
// instance startup (so the first scrape already shows the families),
// and gives operators a total-traffic distribution without summing
// per-RPC series client-side.
const aggLabel = "_all"

// instMetrics is the per-RPC record of one margo instance, always on
// (§4: introspection "at no engineering cost"). Each Listing-1 row is
// kept per side and per peer in one cell, created on first sight and
// updated with atomics after that; the cell also observes into its
// (rpc, provider) histogram series and the _all aggregate. Listing 1
// (Instance.Stats) and the mochi_rpc_* families are two renderings of
// these cells, so they cannot disagree, and the load a controller reads
// needs no switch.
type instMetrics struct {
	reg *metrics.Registry

	fwdLatency *metrics.HistogramVec // mochi_rpc_forward_latency_seconds{rpc,provider}
	queueDelay *metrics.HistogramVec // mochi_rpc_handler_queue_seconds{rpc,provider}
	handlerRun *metrics.HistogramVec // mochi_rpc_handler_runtime_seconds{rpc,provider}
	fwdErrors  *metrics.CounterVec   // mochi_rpc_forward_errors_total{rpc}
	inflight   *metrics.Gauge        // mochi_rpc_inflight

	aggFwd, aggQueue, aggRun *metrics.Histogram // the _all series
	bulkPull, bulkPush       *metrics.Histogram // mochi_bulk_transfer_bytes{op}

	// Resilience series. These fire on the retry/breaker slow paths
	// only, so plain With lookups are fine.
	retries    *metrics.CounterVec // mochi_rpc_retries_total{rpc}
	brkState   *metrics.GaugeVec   // mochi_rpc_breaker_state{peer}
	brkRejects *metrics.CounterVec // mochi_rpc_breaker_rejections_total{peer}

	// Cells are never evicted, as Listing 1's rows never were.
	mu    sync.RWMutex
	cells map[cellKey]*cell
	bulk  map[string]*bulkCell
}

// cellKey names one cell: a Listing-1 row (parent, rpc, provider), the
// side that saw it and the peer. The target side never knows the remote
// parent and records the paper's 65535 sentinel, as Listing 1 does.
type cellKey struct {
	name, peer     string
	parent         mercury.RPCID
	provider       uint16
	parentProvider uint16
	target         bool
}

// cell is one side's record of one Listing-1 row with one peer. On the
// origin side d is the forward round trip; on the target side q is the
// queue wait and d the handler's run time. Durations are nanoseconds.
type cell struct {
	cellKey
	id           mercury.RPCID
	q, d, bytes  acc
	errors       atomic.Int64
	qHist, dHist *metrics.Histogram // the row's (rpc, provider) series
}

// acc accumulates num/sum/min/max of one quantity with atomics. num
// is counted last, so a reader that loads it first and sees n > 0 sees
// a min and max that include the first n values.
type acc struct{ num, sum, min, max atomic.Int64 }

func (a *acc) add(v int64) {
	for m := a.min.Load(); v < m && !a.min.CompareAndSwap(m, v); m = a.min.Load() {
	}
	for m := a.max.Load(); v > m && !a.max.CompareAndSwap(m, v); m = a.max.Load() {
	}
	a.sum.Add(v)
	a.num.Add(1)
}

// bulkCell counts the bulk transfers this process initiated with one
// peer.
type bulkCell struct{ pulls, pushes, in, out atomic.Int64 }

func newInstMetrics(reg *metrics.Registry) *instMetrics {
	im := &instMetrics{
		reg: reg,
		fwdLatency: reg.Histogram("mochi_rpc_forward_latency_seconds",
			"Round-trip latency of forwarded RPCs (origin side), by RPC name and target provider.",
			metrics.LatencyBuckets, "rpc", "provider"),
		queueDelay: reg.Histogram("mochi_rpc_handler_queue_seconds",
			"Time an incoming RPC waited in its pool before the handler ULT started (target side).",
			metrics.LatencyBuckets, "rpc", "provider"),
		handlerRun: reg.Histogram("mochi_rpc_handler_runtime_seconds",
			"Execution time of RPC handler ULTs (target side).",
			metrics.LatencyBuckets, "rpc", "provider"),
		fwdErrors: reg.Counter("mochi_rpc_forward_errors_total",
			"Forwarded RPCs that returned an error, by RPC name.", "rpc"),
		retries: reg.Counter("mochi_rpc_retries_total",
			"Retry attempts made by the resilience layer, by RPC name.", "rpc"),
		brkState: reg.Gauge("mochi_rpc_breaker_state",
			"Circuit-breaker state per destination (0 closed, 1 half-open, 2 open).", "peer"),
		brkRejects: reg.Counter("mochi_rpc_breaker_rejections_total",
			"Forwards rejected without a network attempt because the destination's breaker was open.", "peer"),
		inflight: reg.Gauge("mochi_rpc_inflight",
			"RPCs forwarded by this process still awaiting a response.").With(),
		cells: map[cellKey]*cell{},
		bulk:  map[string]*bulkCell{},
	}
	// The aggregate and both bulk series exist from the first scrape.
	im.aggFwd = im.fwdLatency.With(aggLabel, aggLabel)
	im.aggQueue = im.queueDelay.With(aggLabel, aggLabel)
	im.aggRun = im.handlerRun.With(aggLabel, aggLabel)
	bulk := reg.Histogram("mochi_bulk_transfer_bytes",
		"Completed bulk (RDMA-like) transfer sizes in bytes, by direction.",
		metrics.SizeBuckets, "op")
	im.bulkPull = bulk.With(mercury.BulkPull.String())
	im.bulkPush = bulk.With(mercury.BulkPush.String())
	return im
}

// cell returns the cell for k, creating it on first sight. The fast
// path is one read-locked struct-keyed map hit: no allocation.
func (im *instMetrics) cell(k cellKey) *cell {
	im.mu.RLock()
	c := im.cells[k]
	im.mu.RUnlock()
	if c != nil {
		return c
	}
	im.mu.Lock()
	defer im.mu.Unlock()
	if c = im.cells[k]; c == nil {
		c = &cell{cellKey: k, id: mercury.NameToID(k.name)}
		for _, a := range []*acc{&c.q, &c.d, &c.bytes} {
			a.min.Store(math.MaxInt64)
		}
		pl := providerLabel(k.provider)
		if k.target {
			c.qHist, c.dHist = im.queueDelay.With(k.name, pl), im.handlerRun.With(k.name, pl)
		} else {
			c.dHist = im.fwdLatency.With(k.name, pl)
		}
		im.cells[k] = c
	}
	return c
}

// forwarding counts a forward described by info in flight and returns
// the cell that forwarded records it into.
func (im *instMetrics) forwarding(info RPCInfo) *cell {
	im.inflight.Inc()
	return im.cell(cellKey{info.Name, info.Peer, info.ParentID, info.Provider, info.ParentProvider, false})
}

// target returns the cell an inbound RPC described by info records into.
func (im *instMetrics) target(info RPCInfo) *cell {
	return im.cell(cellKey{info.Name, info.Peer, noParent32, info.Provider, noParent16, true})
}

// forwarded records one finished forward of n request bytes.
func (im *instMetrics) forwarded(c *cell, d time.Duration, n int, err error) {
	im.inflight.Dec()
	c.d.add(int64(d))
	c.bytes.add(int64(n))
	c.dHist.Observe(d.Seconds())
	im.aggFwd.Observe(d.Seconds())
	if err != nil {
		c.errors.Add(1)
		im.fwdErrors.With(c.name).Inc()
	}
}

// handlerStarted records an inbound RPC of n bytes whose ULT starts
// after waiting queued in its pool.
func (im *instMetrics) handlerStarted(c *cell, queued time.Duration, n int) {
	c.q.add(int64(queued))
	c.bytes.add(int64(n))
	c.qHist.Observe(queued.Seconds())
	im.aggQueue.Observe(queued.Seconds())
}

// handlerEnded records the handler's run time.
func (im *instMetrics) handlerEnded(c *cell, ran time.Duration) {
	c.d.add(int64(ran))
	c.dHist.Observe(ran.Seconds())
	im.aggRun.Observe(ran.Seconds())
}

// BulkTransferred implements mercury.Monitor: margo.New installs the
// record as its class's one bulk observer.
func (im *instMetrics) BulkTransferred(op mercury.BulkOp, peer string, bytes int) {
	im.mu.RLock()
	b := im.bulk[peer]
	im.mu.RUnlock()
	if b == nil {
		im.mu.Lock()
		if b = im.bulk[peer]; b == nil {
			b = &bulkCell{}
			im.bulk[peer] = b
		}
		im.mu.Unlock()
	}
	if op == mercury.BulkPull {
		b.pulls.Add(1)
		b.in.Add(int64(bytes))
		im.bulkPull.Observe(float64(bytes))
	} else {
		b.pushes.Add(1)
		b.out.Add(int64(bytes))
		im.bulkPush.Observe(float64(bytes))
	}
}

func providerLabel(p uint16) string {
	if p == noParent16 {
		return "any"
	}
	return strconv.Itoa(int(p))
}

// retried counts one retry attempt for the named RPC.
func (im *instMetrics) retried(name string) {
	im.retries.With(name).Inc()
}

// breakerState publishes a destination's breaker state transition
// (0 closed, 1 half-open, 2 open), matching resilience.State order.
func (im *instMetrics) breakerState(peer string, st resilience.State) {
	im.brkState.With(peer).Set(float64(st))
}

// breakerRejected counts a forward shed by an open breaker.
func (im *instMetrics) breakerRejected(peer string) {
	im.brkRejects.With(peer).Inc()
}

// Metrics returns the instance's metrics registry: RPC latency/queue/
// runtime histograms, in-flight gauge, pool and xstream gauges, and
// bulk-transfer sizes. Callers may register their own families on it;
// bedrock serves it over the GetMetrics RPC and the /metrics endpoint.
func (m *Instance) Metrics() *metrics.Registry {
	return m.metrics.reg
}
