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

// DurationStats accumulates num/avg/min/max/sum for a series of
// durations (seconds, like Listing 1).
type DurationStats struct {
	Num int64   `json:"num"`
	Avg float64 `json:"avg"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	Sum float64 `json:"sum"`
}

func (s *DurationStats) add(d time.Duration) {
	v := d.Seconds()
	s.Num++
	s.Sum += v
	if s.Num == 1 || v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
	s.Avg = s.Sum / float64(s.Num)
}

// SizeStats accumulates message-size statistics.
type SizeStats struct {
	Num int64 `json:"num"`
	Avg int64 `json:"avg"`
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	Sum int64 `json:"sum"`
}

func (s *SizeStats) add(n int) {
	v := int64(n)
	s.Num++
	s.Sum += v
	if s.Num == 1 || v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
	s.Avg = s.Sum / s.Num
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

// StatsSnapshot is the JSON-ready monitor state (Listing 1 schema:
// a top-level "rpcs" object keyed by
// "parent_rpc_id:parent_provider_id:rpc_id:provider_id").
type StatsSnapshot struct {
	Address string                `json:"address"`
	RPCs    map[string]*RPCStats  `json:"rpcs"`
	Bulk    map[string]*BulkStats `json:"bulk,omitempty"`
	Samples []ProgressSample      `json:"progress_samples,omitempty"`
}

// MarshalJSON is the standard encoding; method present for clarity.
func (s *StatsSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Monitor is the default monitoring implementation (§4): it records
// per-RPC statistics on both origin and target sides, samples runtime
// gauges periodically, and serializes to Listing 1's JSON schema.
type Monitor struct {
	inst   *Instance
	period time.Duration

	mu       sync.Mutex
	enabled  bool
	rpcs     map[string]*RPCStats
	bulk     map[string]*BulkStats
	samples  []ProgressSample
	inFlight int64

	stop   chan struct{}
	stopWG sync.WaitGroup

	hookRemove func()
}

func newMonitor(inst *Instance, period time.Duration) *Monitor {
	return &Monitor{
		inst:   inst,
		period: period,
		rpcs:   map[string]*RPCStats{},
		bulk:   map[string]*BulkStats{},
	}
}

// BulkTransferred implements mercury.Monitor: the margo monitor
// installs itself on the class while enabled so bulk operations are
// captured alongside RPC statistics.
func (mo *Monitor) BulkTransferred(op mercury.BulkOp, peer string, bytes int) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	bs, ok := mo.bulk[peer]
	if !ok {
		bs = &BulkStats{}
		mo.bulk[peer] = bs
	}
	if op == mercury.BulkPull {
		bs.Pulls++
		bs.BytesIn += int64(bytes)
	} else {
		bs.Pushes++
		bs.BytesOut += int64(bytes)
	}
}

var _ mercury.Monitor = (*Monitor)(nil)

func statKey(info RPCInfo) string {
	return fmt.Sprintf("%d:%d:%d:%d", uint32(info.ParentID), info.ParentProvider, uint32(info.ID), info.Provider)
}

func (mo *Monitor) get(info RPCInfo) *RPCStats {
	key := statKey(info)
	st, ok := mo.rpcs[key]
	if !ok {
		st = &RPCStats{
			RPCID:            uint32(info.ID),
			ProviderID:       info.Provider,
			ParentRPCID:      uint32(info.ParentID),
			ParentProviderID: info.ParentProvider,
			Name:             info.Name,
			Origin:           map[string]*OriginStats{},
			Target:           map[string]*TargetStats{},
		}
		mo.rpcs[key] = st
	}
	return st
}

func (mo *Monitor) enable() {
	mo.mu.Lock()
	if mo.enabled {
		mo.mu.Unlock()
		return
	}
	mo.enabled = true
	mo.stop = make(chan struct{})
	mo.mu.Unlock()

	hook := &Hook{
		OnForwardStart: func(info RPCInfo) {
			mo.mu.Lock()
			mo.inFlight++
			mo.mu.Unlock()
		},
		OnForwardEnd: func(info RPCInfo, d time.Duration, err error) {
			mo.mu.Lock()
			mo.inFlight--
			st := mo.get(info)
			key := "sent to " + info.Peer
			os, ok := st.Origin[key]
			if !ok {
				os = &OriginStats{}
				st.Origin[key] = os
			}
			os.Duration.add(d)
			os.Bytes.add(info.Bytes)
			if err != nil {
				os.Errors++
			}
			mo.mu.Unlock()
		},
		OnHandlerStart: func(info RPCInfo, queued time.Duration) {
			mo.mu.Lock()
			ts := mo.target(info)
			ts.ULT.Queued.add(queued)
			ts.Bytes.add(info.Bytes)
			mo.mu.Unlock()
		},
		OnHandlerEnd: func(info RPCInfo, d time.Duration) {
			mo.mu.Lock()
			mo.target(info).ULT.Duration.add(d)
			mo.mu.Unlock()
		},
	}
	mo.hookRemove = mo.inst.hooks.add(hook)
	mo.inst.class.SetMonitor(mo) // capture bulk transfers too

	mo.stopWG.Add(1)
	go mo.sampleLoop()
}

func (mo *Monitor) target(info RPCInfo) *TargetStats {
	// Target-side statistics never know the remote parent; use the
	// sentinel key like Listing 1's target process does.
	tInfo := info
	tInfo.ParentID = mercury.RPCID(noParent32)
	tInfo.ParentProvider = noParent16
	st := mo.get(tInfo)
	key := "received from " + info.Peer
	ts, ok := st.Target[key]
	if !ok {
		ts = &TargetStats{}
		st.Target[key] = ts
	}
	return ts
}

func (mo *Monitor) sampleLoop() {
	defer mo.stopWG.Done()
	tick := mo.inst.clk.NewTicker(mo.period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C():
			mo.sampleOnce()
		case <-mo.stop:
			return
		}
	}
}

func (mo *Monitor) sampleOnce() {
	rt := mo.inst.Runtime()
	sizes := map[string]int{}
	for _, name := range rt.PoolNames() {
		if p, ok := rt.FindPool(name); ok {
			sizes[name] = p.Len()
		}
	}
	mo.mu.Lock()
	mo.samples = append(mo.samples, ProgressSample{
		TimestampMS: mo.inst.clk.Now().UnixMilli(),
		InFlight:    mo.inFlight,
		PoolSizes:   sizes,
	})
	// Bound memory: keep the most recent 10k samples.
	if len(mo.samples) > 10000 {
		mo.samples = mo.samples[len(mo.samples)-10000:]
	}
	mo.mu.Unlock()
}

func (mo *Monitor) disable() {
	mo.mu.Lock()
	if !mo.enabled {
		mo.mu.Unlock()
		return
	}
	mo.enabled = false
	stop := mo.stop
	mo.mu.Unlock()
	if mo.hookRemove != nil {
		mo.hookRemove()
		mo.hookRemove = nil
	}
	mo.inst.class.SetMonitor(nil)
	close(stop)
	mo.stopWG.Wait()
}

// snapshot deep-copies the current statistics.
func (mo *Monitor) snapshot() *StatsSnapshot {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	out := &StatsSnapshot{
		Address: mo.inst.Addr(),
		RPCs:    make(map[string]*RPCStats, len(mo.rpcs)),
	}
	for k, v := range mo.rpcs {
		cp := *v
		cp.Origin = make(map[string]*OriginStats, len(v.Origin))
		for ok2, ov := range v.Origin {
			o := *ov
			cp.Origin[ok2] = &o
		}
		cp.Target = make(map[string]*TargetStats, len(v.Target))
		for tk, tv := range v.Target {
			tcp := *tv
			cp.Target[tk] = &tcp
		}
		out.RPCs[k] = &cp
	}
	if len(mo.bulk) > 0 {
		out.Bulk = make(map[string]*BulkStats, len(mo.bulk))
		for k, v := range mo.bulk {
			cp := *v
			out.Bulk[k] = &cp
		}
	}
	out.Samples = append([]ProgressSample(nil), mo.samples...)
	return out
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
