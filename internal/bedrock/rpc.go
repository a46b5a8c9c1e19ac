package bedrock

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

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
	Name       string `json:"name"`
	DestAddr   string `json:"dest_addr"`
	DestRemiID uint16 `json:"dest_remi_id,omitempty"`
	Method     string `json:"method,omitempty"`
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

// respond sends the reply envelope: err's text, or data (nil for none)
// as the reply's JSON.
func respond(h *mercury.Handle, data any, err error) {
	reply := rpcReply{OK: err == nil}
	if err == nil && data != nil {
		reply.Data, err = json.Marshal(data)
	}
	if err != nil {
		reply = rpcReply{Error: err.Error()}
	}
	raw, _ := json.Marshal(reply) // a bool, a string and already-valid JSON
	_ = h.Respond(raw)
}

// serveJSON is the server half of the control plane: it turns fn,
// written against decoded arguments, into a handler. Input that is not
// A's JSON is answered here and never reaches fn; no input at all is
// the zero A, which is what an RPC without arguments sends. fn's result
// becomes the reply's data (a json.RawMessage goes out as it is), its
// error the reply's error.
func serveJSON[A any](fn func(ctx context.Context, args *A) (any, error)) margo.Handler {
	return func(ctx context.Context, h *mercury.Handle) {
		args := new(A)
		if in := h.Input(); len(in) > 0 {
			if err := json.Unmarshal(in, args); err != nil {
				respond(h, nil, err)
				return
			}
		}
		data, err := fn(ctx, args)
		respond(h, data, err)
	}
}

// callJSON is the client half: it sends args (nil for none) to the
// bedrock process at addr and decodes the reply's data into an R,
// returning the data as it arrived too. A reply without data leaves R
// zero.
func callJSON[R any](ctx context.Context, inst *margo.Instance, addr, rpc string, args any) (out R, data []byte, err error) {
	var payload []byte
	if args != nil {
		if payload, err = json.Marshal(args); err != nil {
			return out, nil, fmt.Errorf("bedrock: %s arguments: %w", rpc, err)
		}
	}
	raw, err := inst.Forward(ctx, addr, rpc, payload)
	if err != nil {
		return out, nil, err
	}
	var reply rpcReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return out, nil, fmt.Errorf("bedrock: bad %s reply: %w", rpc, err)
	}
	if !reply.OK {
		return out, nil, fmt.Errorf("bedrock: %s: %s", addr, reply.Error)
	}
	if len(reply.Data) > 0 {
		if err := json.Unmarshal(reply.Data, &out); err != nil {
			return out, nil, fmt.Errorf("bedrock: bad %s reply: %w", rpc, err)
		}
	}
	return out, reply.Data, nil
}

// noArgs is what an RPC without arguments decodes.
type noArgs struct{}

// registerRPCs installs the control RPCs (JSON payloads) as one set; the
// instance is finalized with the server, which is what removes them.
func (s *Server) registerRPCs() error {
	_, err := s.inst.RegisterSet(mercury.AnyProvider, nil,
		margo.RPC{Name: rpcGetConfig, Handler: serveJSON(func(context.Context, *noArgs) (any, error) {
			raw, err := s.GetConfig()
			return json.RawMessage(raw), err
		})},
		margo.RPC{Name: rpcQueryConfig, Handler: serveJSON(func(_ context.Context, a *queryArgs) (any, error) {
			out, err := s.QueryConfig(a.Script)
			return json.RawMessage(out), err
		})},
		margo.RPC{Name: rpcAddPool, Handler: serveJSON(func(_ context.Context, cfg *json.RawMessage) (any, error) {
			_, err := s.inst.AddPoolFromJSON(*cfg)
			return nil, err
		})},
		margo.RPC{Name: rpcRemovePool, Handler: serveJSON(func(_ context.Context, a *nameArgs) (any, error) {
			return nil, s.inst.RemovePool(a.Name)
		})},
		margo.RPC{Name: rpcAddXstream, Handler: serveJSON(func(_ context.Context, cfg *json.RawMessage) (any, error) {
			_, err := s.inst.AddXstreamFromJSON(*cfg)
			return nil, err
		})},
		margo.RPC{Name: rpcRemoveXstream, Handler: serveJSON(func(_ context.Context, a *nameArgs) (any, error) {
			return nil, s.inst.RemoveXstream(a.Name)
		})},
		margo.RPC{Name: rpcLoadModule, Handler: serveJSON(func(_ context.Context, a *loadModuleArgs) (any, error) {
			return nil, s.loadModule(a.Type)
		})},
		margo.RPC{Name: rpcStartProvider, Handler: serveJSON(func(_ context.Context, pc *ProviderConfig) (any, error) {
			return nil, s.StartProvider(*pc)
		})},
		margo.RPC{Name: rpcStopProvider, Handler: serveJSON(func(_ context.Context, a *nameArgs) (any, error) {
			return nil, s.StopProvider(a.Name)
		})},
		margo.RPC{Name: rpcMigrate, Handler: serveJSON(s.rpcMigrate)},
		margo.RPC{Name: rpcCheckpoint, Handler: serveJSON(func(_ context.Context, a *checkpointArgs) (any, error) {
			return nil, s.CheckpointProvider(a.Name, a.Dir)
		})},
		margo.RPC{Name: rpcRestore, Handler: serveJSON(func(_ context.Context, a *checkpointArgs) (any, error) {
			return nil, s.RestoreProvider(a.Name, a.Dir)
		})},
		margo.RPC{Name: rpcPin, Handler: serveJSON(s.rpcPin)},
		margo.RPC{Name: rpcUnpin, Handler: serveJSON(s.rpcUnpin)},
		margo.RPC{Name: rpcShutdown, Handler: s.rpcShutdown},
		// The process's Listing-1 monitoring snapshot, the remote entry
		// point to §4's "available at run time via an API".
		margo.RPC{Name: rpcGetStats, Handler: serveJSON(func(context.Context, *noArgs) (any, error) {
			raw, err := s.inst.Stats().JSON()
			return json.RawMessage(raw), err
		})},
		margo.RPC{Name: rpcGetMetrics, Handler: serveJSON(s.rpcGetMetrics)},
		// The buffered spans of this process's trace ring, oldest first
		// — the RPC twin of the /traces HTTP endpoint. Callers merge
		// spans from several processes and render them with
		// trace.ChromeJSON (`bedrock-query -traces` does exactly that).
		margo.RPC{Name: rpcGetTraces, Handler: serveJSON(func(context.Context, *noArgs) (any, error) {
			return s.inst.Tracer().Spans(), nil
		})},
		// The merged, node-labelled snapshot of every federation member
		// — the RPC twin of GET /metrics/cluster.
		margo.RPC{Name: rpcGetCluster, Handler: serveJSON(func(ctx context.Context, _ *noArgs) (any, error) {
			return s.ClusterMetrics(ctx)
		})},
		margo.RPC{Name: rpcGetProfile, Handler: serveJSON(s.rpcGetProfile)},
	)
	return err
}

func (s *Server) rpcMigrate(ctx context.Context, args *migrateArgs) (any, error) {
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
	return nil, s.MigrateProvider(mctx, args.Name, args.DestAddr, args.DestRemiID, method)
}

// rpcPin handles remote dependency pinning (phase 1 of the
// cross-process two-phase provider creation).
func (s *Server) rpcPin(_ context.Context, args *pinArgs) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.providers {
		if (args.Name != "" && rec.cfg.Name == args.Name) ||
			(args.Name == "" && rec.cfg.ProviderID == args.ProviderID && (args.Type == "" || rec.cfg.Type == args.Type)) {
			rec.pins[args.Holder]++
			return nil, nil
		}
	}
	return nil, ErrNoSuchProvider
}

func (s *Server) rpcUnpin(_ context.Context, args *pinArgs) (any, error) {
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
			return nil, nil
		}
	}
	return nil, ErrNoSuchProvider
}

// rpcShutdown answers before it shuts down what would carry the answer.
func (s *Server) rpcShutdown(_ context.Context, h *mercury.Handle) {
	respond(h, nil, nil)
	go s.Shutdown()
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
func (s *Server) rpcGetMetrics(_ context.Context, args *metricsArgs) (any, error) {
	if args.Format == "snapshot" {
		return s.inst.Metrics().Snapshot(), nil
	}
	return string(s.inst.Metrics().PrometheusText()), nil
}

// rpcGetProfile returns one pprof profile (binary protobuf, base64 in
// the JSON envelope). Gated on monitoring.profiling.pprof, like the
// HTTP endpoints.
func (s *Server) rpcGetProfile(_ context.Context, args *profileArgs) (any, error) {
	if !s.pprofEnabled {
		return nil, fmt.Errorf("bedrock: profiling disabled (set monitoring.profiling.pprof)")
	}
	var buf bytes.Buffer
	if err := observe.WriteProfile(&buf, args.Name, args.Seconds); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
