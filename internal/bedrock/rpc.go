package bedrock

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"mochi/internal/argobots"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/observe"
	"mochi/internal/remi"
)

// rpcTimeout bounds internal control-plane RPCs.
const rpcTimeout = 10 * time.Second

// Control-plane messages are JSON: bedrock is a low-rate
// configuration path, and JSON keeps it debuggable (mirroring the C
// implementation's use of JSON throughout).

type rpcReply struct {
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
}

type queryArgs struct {
	Script string `json:"script"`
}

type nameArgs struct {
	Name string `json:"name"`
}

type loadModuleArgs struct {
	Type string `json:"type"`
	Path string `json:"path"`
}

type migrateArgs struct {
	Name         string `json:"name"`
	DestAddr     string `json:"dest_addr"`
	DestRemiID   uint16 `json:"dest_remi_id,omitempty"`
	Method       string `json:"method,omitempty"`
	RemoveSource bool   `json:"remove_source,omitempty"`
}

type checkpointArgs struct {
	Name string `json:"name"`
	Dir  string `json:"dir"`
}

type pinArgs struct {
	Name       string `json:"name,omitempty"`
	Type       string `json:"type,omitempty"`
	ProviderID uint16 `json:"provider_id"`
	Holder     string `json:"holder"`
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // all control structs are marshalable
	}
	return raw
}

func respondOK(h *mercury.Handle, data []byte) {
	_ = h.Respond(mustJSON(rpcReply{OK: true, Data: data}))
}

func respondErr(h *mercury.Handle, err error) {
	_ = h.Respond(mustJSON(rpcReply{Error: err.Error()}))
}

// registerRPCs installs the control RPCs (JSON payloads) as one set; the
// instance is finalized with the server, which is what removes them.
func (s *Server) registerRPCs() error {
	_, err := s.inst.RegisterSet(mercury.AnyProvider, nil,
		margo.RPC{Name: rpcGetConfig, Handler: s.rpcGetConfig},
		margo.RPC{Name: rpcQueryConfig, Handler: s.rpcQueryConfig},
		margo.RPC{Name: rpcAddPool, Handler: s.rpcAddPool},
		margo.RPC{Name: rpcRemovePool, Handler: s.rpcRemovePool},
		margo.RPC{Name: rpcAddXstream, Handler: s.rpcAddXstream},
		margo.RPC{Name: rpcRemoveXstream, Handler: s.rpcRemoveXstream},
		margo.RPC{Name: rpcLoadModule, Handler: s.rpcLoadModule},
		margo.RPC{Name: rpcStartProvider, Handler: s.rpcStartProvider},
		margo.RPC{Name: rpcStopProvider, Handler: s.rpcStopProvider},
		margo.RPC{Name: rpcMigrate, Handler: s.rpcMigrate},
		margo.RPC{Name: rpcCheckpoint, Handler: s.rpcCheckpoint},
		margo.RPC{Name: rpcRestore, Handler: s.rpcRestore},
		margo.RPC{Name: rpcPin, Handler: s.rpcPin},
		margo.RPC{Name: rpcUnpin, Handler: s.rpcUnpin},
		margo.RPC{Name: rpcShutdown, Handler: s.rpcShutdown},
		margo.RPC{Name: rpcGetStats, Handler: s.rpcGetStats},
		margo.RPC{Name: rpcGetMetrics, Handler: s.rpcGetMetrics},
		margo.RPC{Name: rpcGetTraces, Handler: s.rpcGetTraces},
		margo.RPC{Name: rpcGetCluster, Handler: s.rpcGetClusterMetrics},
		margo.RPC{Name: rpcGetProfile, Handler: s.rpcGetProfile},
	)
	return err
}

func (s *Server) rpcGetConfig(_ context.Context, h *mercury.Handle) {
	raw, err := s.GetConfig()
	if err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, raw)
}

func (s *Server) rpcQueryConfig(_ context.Context, h *mercury.Handle) {
	var args queryArgs
	if err := json.Unmarshal(h.Input(), &args); err != nil {
		respondErr(h, err)
		return
	}
	out, err := s.QueryConfig(args.Script)
	if err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, out)
}

func (s *Server) rpcAddPool(_ context.Context, h *mercury.Handle) {
	if _, err := s.inst.AddPoolFromJSON(h.Input()); err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, nil)
}

func (s *Server) rpcRemovePool(_ context.Context, h *mercury.Handle) {
	var args nameArgs
	if err := json.Unmarshal(h.Input(), &args); err != nil {
		respondErr(h, err)
		return
	}
	if err := s.inst.RemovePool(args.Name); err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, nil)
}

func (s *Server) rpcAddXstream(_ context.Context, h *mercury.Handle) {
	if _, err := s.inst.AddXstreamFromJSON(h.Input()); err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, nil)
}

func (s *Server) rpcRemoveXstream(_ context.Context, h *mercury.Handle) {
	var args nameArgs
	if err := json.Unmarshal(h.Input(), &args); err != nil {
		respondErr(h, err)
		return
	}
	if err := s.inst.RemoveXstream(args.Name); err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, nil)
}

func (s *Server) rpcLoadModule(_ context.Context, h *mercury.Handle) {
	var args loadModuleArgs
	if err := json.Unmarshal(h.Input(), &args); err != nil {
		respondErr(h, err)
		return
	}
	if err := s.loadModule(args.Type); err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, nil)
}

func (s *Server) rpcStartProvider(_ context.Context, h *mercury.Handle) {
	var pc ProviderConfig
	if err := json.Unmarshal(h.Input(), &pc); err != nil {
		respondErr(h, err)
		return
	}
	if err := s.StartProvider(pc); err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, nil)
}

func (s *Server) rpcStopProvider(_ context.Context, h *mercury.Handle) {
	var args nameArgs
	if err := json.Unmarshal(h.Input(), &args); err != nil {
		respondErr(h, err)
		return
	}
	if err := s.StopProvider(args.Name); err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, nil)
}

func (s *Server) rpcMigrate(ctx context.Context, h *mercury.Handle) {
	var args migrateArgs
	if err := json.Unmarshal(h.Input(), &args); err != nil {
		respondErr(h, err)
		return
	}
	method := remi.MethodAuto
	switch args.Method {
	case "bulk":
		method = remi.MethodBulk
	case "chunked":
		method = remi.MethodChunked
	}
	// Derive from the handler context (not Background) so the trace
	// context propagates into the REMI migration's nested forwards and
	// bulk transfers — a migration shows up as one tree.
	mctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	if err := s.MigrateProvider(mctx, args.Name, args.DestAddr, args.DestRemiID, method, args.RemoveSource); err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, nil)
}

func (s *Server) rpcCheckpoint(_ context.Context, h *mercury.Handle) {
	var args checkpointArgs
	if err := json.Unmarshal(h.Input(), &args); err != nil {
		respondErr(h, err)
		return
	}
	if err := s.CheckpointProvider(args.Name, args.Dir); err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, nil)
}

func (s *Server) rpcRestore(_ context.Context, h *mercury.Handle) {
	var args checkpointArgs
	if err := json.Unmarshal(h.Input(), &args); err != nil {
		respondErr(h, err)
		return
	}
	if err := s.RestoreProvider(args.Name, args.Dir); err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, nil)
}

// rpcPin handles remote dependency pinning (phase 1 of the
// cross-process two-phase provider creation).
func (s *Server) rpcPin(_ context.Context, h *mercury.Handle) {
	var args pinArgs
	if err := json.Unmarshal(h.Input(), &args); err != nil {
		respondErr(h, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.providers {
		if (args.Name != "" && rec.cfg.Name == args.Name) ||
			(args.Name == "" && rec.cfg.ProviderID == args.ProviderID && (args.Type == "" || rec.cfg.Type == args.Type)) {
			rec.pins[args.Holder]++
			respondOK(h, nil)
			return
		}
	}
	respondErr(h, ErrNoSuchProvider)
}

func (s *Server) rpcUnpin(_ context.Context, h *mercury.Handle) {
	var args pinArgs
	if err := json.Unmarshal(h.Input(), &args); err != nil {
		respondErr(h, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.providers {
		if (args.Name != "" && rec.cfg.Name == args.Name) ||
			(args.Name == "" && rec.cfg.ProviderID == args.ProviderID) {
			if _, ok := rec.pins[args.Holder]; ok {
				rec.pins[args.Holder]--
				if rec.pins[args.Holder] <= 0 {
					delete(rec.pins, args.Holder)
				}
			}
			respondOK(h, nil)
			return
		}
	}
	respondErr(h, ErrNoSuchProvider)
}

func (s *Server) rpcShutdown(_ context.Context, h *mercury.Handle) {
	respondOK(h, nil)
	go s.Shutdown()
}

// rpcGetStats returns the process's Listing-1 monitoring snapshot,
// the remote entry point to §4's "available at run time via an API".
func (s *Server) rpcGetStats(_ context.Context, h *mercury.Handle) {
	raw, err := s.inst.Stats().JSON()
	if err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, raw)
}

// metricsArgs selects the wire form of a bedrock_get_metrics reply.
type metricsArgs struct {
	// Format "snapshot" returns the structured []metrics.FamilySnapshot
	// the federation aggregator merges; empty (or anything else, for
	// forward compatibility) returns Prometheus text.
	Format string `json:"format,omitempty"`
}

// profileArgs requests one pprof profile over the control plane.
type profileArgs struct {
	Name    string `json:"name"`
	Seconds int    `json:"seconds,omitempty"`
}

// rpcGetMetrics returns the process's metrics registry — Prometheus
// text by default (the RPC twin of the /metrics HTTP endpoint, so
// `bedrock-query -metrics` works over the fabric without an HTTP
// listener configured), or the structured snapshot form when asked,
// which is what peer aggregators pull and merge.
func (s *Server) rpcGetMetrics(_ context.Context, h *mercury.Handle) {
	var args metricsArgs
	if in := h.Input(); len(in) > 0 {
		if err := json.Unmarshal(in, &args); err != nil {
			respondErr(h, err)
			return
		}
	}
	if args.Format == "snapshot" {
		respondOK(h, mustJSON(s.inst.Metrics().Snapshot()))
		return
	}
	respondOK(h, mustJSON(string(s.inst.Metrics().PrometheusText())))
}

// rpcGetClusterMetrics returns the merged, node-labelled snapshot of
// every federation member — the RPC twin of GET /metrics/cluster.
func (s *Server) rpcGetClusterMetrics(ctx context.Context, h *mercury.Handle) {
	fams, err := s.ClusterMetrics(ctx)
	if err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, mustJSON(fams))
}

// rpcGetProfile returns one pprof profile (binary protobuf, base64 in
// the JSON envelope). Gated on monitoring.profiling.pprof, like the
// HTTP endpoints.
func (s *Server) rpcGetProfile(_ context.Context, h *mercury.Handle) {
	if !s.pprofEnabled {
		respondErr(h, fmt.Errorf("bedrock: profiling disabled (set monitoring.profiling.pprof)"))
		return
	}
	var args profileArgs
	if err := json.Unmarshal(h.Input(), &args); err != nil {
		respondErr(h, err)
		return
	}
	var buf bytes.Buffer
	if err := observe.WriteProfile(&buf, args.Name, args.Seconds); err != nil {
		respondErr(h, err)
		return
	}
	respondOK(h, mustJSON(buf.Bytes()))
}

// rpcGetTraces returns the buffered spans of this process's trace
// ring, oldest first — the RPC twin of the /traces HTTP endpoint.
// Callers merge spans from several processes and render them with
// trace.ChromeJSON (`bedrock-query -traces` does exactly that).
func (s *Server) rpcGetTraces(_ context.Context, h *mercury.Handle) {
	respondOK(h, mustJSON(s.inst.Tracer().Spans()))
}

// Ensure argobots types stay referenced (pool configs travel as raw
// JSON through the add-pool/add-xstream RPCs).
var _ = argobots.PoolConfig{}
