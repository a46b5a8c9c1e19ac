package margo

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"mochi/internal/mercury"
)

// The paper's Listing 1 uses 65535 as the "no parent" sentinel for
// both RPC and provider IDs.
const (
	noParent32 = 0xFFFFFFFF
	noParent16 = 0xFFFF
)

// RPCInfo describes one RPC event at a hook point.
type RPCInfo struct {
	Name           string
	ID             mercury.RPCID
	Provider       uint16
	ParentID       mercury.RPCID
	ParentProvider uint16
	Peer           string
	Bytes          int
}

// Hook is a set of user callbacks injected into the RPC lifecycle
// (§4). Nil members are skipped. Callbacks must be fast and must not
// block; they run on the RPC paths.
type Hook struct {
	// OnForwardStart fires when this process sends a request.
	OnForwardStart func(RPCInfo)
	// OnForwardEnd fires when the response arrives (or fails).
	OnForwardEnd func(RPCInfo, time.Duration, error)
	// OnHandlerStart fires when the ULT begins, with its queueing delay.
	OnHandlerStart func(RPCInfo, time.Duration)
	// OnHandlerEnd fires when the ULT completes, with its run time.
	OnHandlerEnd func(RPCInfo, time.Duration)
}

type hookSet struct {
	mu    sync.RWMutex
	hooks []*Hook
}

func (s *hookSet) add(h *Hook) func() {
	s.mu.Lock()
	s.hooks = append(s.hooks, h)
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		for i, x := range s.hooks {
			if x == h {
				s.hooks = append(s.hooks[:i], s.hooks[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
	}
}

func (s *hookSet) onForwardStart(i RPCInfo) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, h := range s.hooks {
		if h.OnForwardStart != nil {
			h.OnForwardStart(i)
		}
	}
}

func (s *hookSet) onForwardEnd(i RPCInfo, d time.Duration, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, h := range s.hooks {
		if h.OnForwardEnd != nil {
			h.OnForwardEnd(i, d, err)
		}
	}
}

func (s *hookSet) onHandlerStart(i RPCInfo, d time.Duration) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, h := range s.hooks {
		if h.OnHandlerStart != nil {
			h.OnHandlerStart(i, d)
		}
	}
}

func (s *hookSet) onHandlerEnd(i RPCInfo, d time.Duration) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, h := range s.hooks {
		if h.OnHandlerEnd != nil {
			h.OnHandlerEnd(i, d)
		}
	}
}

// DurationStats is num/avg/min/max/sum of a series of durations
// (seconds, like Listing 1).
type DurationStats struct {
	Num int64   `json:"num"`
	Avg float64 `json:"avg"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	Sum float64 `json:"sum"`
}

// SizeStats is the same for message sizes in bytes.
type SizeStats struct {
	Num int64 `json:"num"`
	Avg int64 `json:"avg"`
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	Sum int64 `json:"sum"`
}

func (a *acc) sizes() SizeStats {
	s := SizeStats{Num: a.num.Load()}
	if s.Num > 0 {
		s.Sum, s.Min, s.Max = a.sum.Load(), a.min.Load(), a.max.Load()
		s.Avg = s.Sum / s.Num
	}
	return s
}

func (a *acc) durations() DurationStats {
	s := a.sizes()
	d := DurationStats{Num: s.Num, Min: float64(s.Min) / 1e9, Max: float64(s.Max) / 1e9, Sum: float64(s.Sum) / 1e9}
	if d.Num > 0 {
		d.Avg = d.Sum / float64(d.Num)
	}
	return d
}

// OriginStats is the origin-side view of one (rpc, peer) pair.
type OriginStats struct {
	Duration DurationStats `json:"duration"` // forward round-trip
	Bytes    SizeStats     `json:"bytes"`
	Errors   int64         `json:"errors"`
}

// TargetStats is the target-side view of one (rpc, peer) pair;
// "ult" matches the nesting of Listing 1.
type TargetStats struct {
	ULT struct {
		Queued   DurationStats `json:"queued"`
		Duration DurationStats `json:"duration"`
	} `json:"ult"`
	Bytes SizeStats `json:"bytes"`
}

// RPCStats aggregates one RPC key, following Listing 1's fields.
type RPCStats struct {
	RPCID            uint32                  `json:"rpc_id"`
	ProviderID       uint16                  `json:"provider_id"`
	ParentRPCID      uint32                  `json:"parent_rpc_id"`
	ParentProviderID uint16                  `json:"parent_provider_id"`
	Name             string                  `json:"name"`
	Origin           map[string]*OriginStats `json:"origin"`
	Target           map[string]*TargetStats `json:"target"`
}

// ProgressSample is one periodic sample of runtime gauges (§4: "It
// periodically tracks the number of in-flight RPCs and the sizes of
// user-level thread pools").
type ProgressSample struct {
	TimestampMS int64          `json:"timestamp_ms"`
	InFlight    int64          `json:"in_flight_rpcs"`
	PoolSizes   map[string]int `json:"pool_sizes"`
}

// BulkStats aggregates RDMA-like bulk transfers with one peer (§4:
// Margo "has knowledge of ... all the RDMA operations being carried
// out").
type BulkStats struct {
	Pulls    int64 `json:"pulls"`
	Pushes   int64 `json:"pushes"`
	BytesIn  int64 `json:"bytes_pulled"`
	BytesOut int64 `json:"bytes_pushed"`
}

// StatsSnapshot is the per-RPC record rendered as Listing 1 (schema:
// a top-level "rpcs" object keyed by
// "parent_rpc_id:parent_provider_id:rpc_id:provider_id").
type StatsSnapshot struct {
	Address string                `json:"address"`
	RPCs    map[string]*RPCStats  `json:"rpcs"`
	Bulk    map[string]*BulkStats `json:"bulk,omitempty"`
	Samples []ProgressSample      `json:"progress_samples,omitempty"`
}

// JSON renders the snapshot as indented Listing-1 JSON.
func (s *StatsSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// snapshot renders the record's cells as Listing 1.
func (im *instMetrics) snapshot(addr string) *StatsSnapshot {
	out := &StatsSnapshot{Address: addr, RPCs: map[string]*RPCStats{}}
	im.mu.RLock()
	defer im.mu.RUnlock()
	for _, c := range im.cells {
		row := fmt.Sprintf("%d:%d:%d:%d", uint32(c.parent), c.parentProvider, uint32(c.id), c.provider)
		st, ok := out.RPCs[row]
		if !ok {
			st = &RPCStats{
				RPCID:            uint32(c.id),
				ProviderID:       c.provider,
				ParentRPCID:      uint32(c.parent),
				ParentProviderID: c.parentProvider,
				Name:             c.name,
				Origin:           map[string]*OriginStats{},
				Target:           map[string]*TargetStats{},
			}
			out.RPCs[row] = st
		}
		if c.target {
			ts := &TargetStats{Bytes: c.bytes.sizes()}
			ts.ULT.Queued, ts.ULT.Duration = c.q.durations(), c.d.durations()
			st.Target["received from "+c.peer] = ts
		} else {
			st.Origin["sent to "+c.peer] = &OriginStats{Duration: c.d.durations(), Bytes: c.bytes.sizes(), Errors: c.errors.Load()}
		}
	}
	if len(im.bulk) > 0 {
		out.Bulk = make(map[string]*BulkStats, len(im.bulk))
		for peer, b := range im.bulk {
			out.Bulk[peer] = &BulkStats{Pulls: b.pulls.Load(), Pushes: b.pushes.Load(), BytesIn: b.in.Load(), BytesOut: b.out.Load()}
		}
	}
	return out
}

// sampler is the periodic progress sampler, started by EnableMonitoring
// and stopped by Finalize.
type sampler struct {
	mu      sync.Mutex
	stop    chan struct{} // nil until started
	done    chan struct{}
	samples []ProgressSample
}

// startSampler launches the sampling loop unless it runs already.
func (m *Instance) startSampler() {
	s := &m.sampler
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	period := time.Duration(m.cfg.MonitoringSampleMS) * time.Millisecond
	if period <= 0 {
		period = 100 * time.Millisecond
	}
	go m.sampleLoop(period, s.stop, s.done)
}

func (m *Instance) sampleLoop(period time.Duration, stop, done chan struct{}) {
	defer close(done)
	tick := m.clk.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C():
			m.sampleOnce()
		case <-stop:
			return
		}
	}
}

func (m *Instance) sampleOnce() {
	sizes := map[string]int{}
	for _, name := range m.rt.PoolNames() {
		if p, ok := m.rt.FindPool(name); ok {
			sizes[name] = p.Len()
		}
	}
	s := &m.sampler
	s.mu.Lock()
	s.samples = append(s.samples, ProgressSample{
		TimestampMS: m.clk.Now().UnixMilli(),
		InFlight:    int64(m.metrics.inflight.Value()),
		PoolSizes:   sizes,
	})
	// Bound memory: keep the most recent 10k samples.
	if len(s.samples) > 10000 {
		s.samples = s.samples[len(s.samples)-10000:]
	}
	s.mu.Unlock()
}

// stopSampler ends the sampling loop, if it runs, and waits for it.
func (m *Instance) stopSampler() {
	s := &m.sampler
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Keys returns the sorted stat keys in the snapshot, convenience for
// tests and tools.
func (s *StatsSnapshot) Keys() []string {
	keys := make([]string, 0, len(s.RPCs))
	for k := range s.RPCs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FindByName returns the first RPCStats entry with the given RPC name
// and a true flag, or nil and false.
func (s *StatsSnapshot) FindByName(name string) (*RPCStats, bool) {
	for _, k := range s.Keys() {
		if s.RPCs[k].Name == name {
			return s.RPCs[k], true
		}
	}
	return nil, false
}
