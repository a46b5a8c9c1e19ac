package bedrock

import (
	"context"
	"encoding/json"

	"mochi/internal/margo"
	"mochi/internal/metrics"
	"mochi/internal/trace"
)

// Client creates service handles to remote bedrock processes
// (Listing 5: "bedrock::Client client; client.makeServiceHandle(...)").
type Client struct {
	inst *margo.Instance
}

// NewClient creates a bedrock client.
func NewClient(inst *margo.Instance) *Client {
	return &Client{inst: inst}
}

// ServiceHandle manipulates one process's configuration remotely and
// at run time (the Go rendering of Listing 5's C++ API).
type ServiceHandle struct {
	client *Client
	addr   string
}

// MakeServiceHandle returns a handle to the bedrock process at addr.
func (c *Client) MakeServiceHandle(addr string) *ServiceHandle {
	return &ServiceHandle{client: c, addr: addr}
}

// Addr returns the target process address.
func (sh *ServiceHandle) Addr() string { return sh.addr }

// call sends one control RPC to the handle's process; T is what the
// reply's data decodes into, returned with the data as it arrived.
func call[T any](ctx context.Context, sh *ServiceHandle, rpc string, args any) (T, []byte, error) {
	return callJSON[T](ctx, sh.client.inst, sh.addr, rpc, args)
}

// do is call for an RPC whose reply carries nothing.
func (sh *ServiceHandle) do(ctx context.Context, rpc string, args any) error {
	_, _, err := call[json.RawMessage](ctx, sh, rpc, args)
	return err
}

// GetConfig fetches the process's full live configuration.
func (sh *ServiceHandle) GetConfig(ctx context.Context) (Config, []byte, error) {
	return call[Config](ctx, sh, rpcGetConfig, nil)
}

// QueryConfig runs a Jx9 script on the remote process (Listing 4)
// and returns the result as JSON.
func (sh *ServiceHandle) QueryConfig(ctx context.Context, script string) ([]byte, error) {
	out, _, err := call[json.RawMessage](ctx, sh, rpcQueryConfig, queryArgs{Script: script})
	return out, err
}

// AddPool adds a pool from a JSON config ("p.addPool(jsonPoolConfig)").
func (sh *ServiceHandle) AddPool(ctx context.Context, jsonPoolConfig string) error {
	return sh.do(ctx, rpcAddPool, json.RawMessage(jsonPoolConfig))
}

// RemovePool removes a pool by name ("p.removePool(\"MyPoolX\")").
func (sh *ServiceHandle) RemovePool(ctx context.Context, name string) error {
	return sh.do(ctx, rpcRemovePool, nameArgs{Name: name})
}

// AddXstream adds an execution stream from a JSON config.
func (sh *ServiceHandle) AddXstream(ctx context.Context, jsonXstreamConfig string) error {
	return sh.do(ctx, rpcAddXstream, json.RawMessage(jsonXstreamConfig))
}

// RemoveXstream removes an execution stream by name.
func (sh *ServiceHandle) RemoveXstream(ctx context.Context, name string) error {
	return sh.do(ctx, rpcRemoveXstream, nameArgs{Name: name})
}

// LoadModule makes a provider type available in the remote process
// ("p.loadModule(\"B\", \"libcomponent_b.so\")"). The path is kept
// for configuration fidelity; types resolve against the in-process
// module registry.
func (sh *ServiceHandle) LoadModule(ctx context.Context, typ, path string) error {
	return sh.do(ctx, rpcLoadModule, loadModuleArgs{Type: typ, Path: path})
}

// StartProvider starts a provider remotely
// ("p.startProvider(\"myProviderB\", \"B\", ...)").
func (sh *ServiceHandle) StartProvider(ctx context.Context, pc ProviderConfig) error {
	return sh.do(ctx, rpcStartProvider, pc)
}

// StopProvider stops a provider remotely.
func (sh *ServiceHandle) StopProvider(ctx context.Context, name string) error {
	return sh.do(ctx, rpcStopProvider, nameArgs{Name: name})
}

// MigrateProvider moves a provider's resource to another bedrock
// process, stops it locally and deletes its files there (§6).
func (sh *ServiceHandle) MigrateProvider(ctx context.Context, name, destAddr string, destRemiID uint16, method string) error {
	return sh.do(ctx, rpcMigrate, migrateArgs{
		Name:       name,
		DestAddr:   destAddr,
		DestRemiID: destRemiID,
		Method:     method,
	})
}

// CheckpointProvider saves a provider's state under dir (§7 Obs. 9).
func (sh *ServiceHandle) CheckpointProvider(ctx context.Context, name, dir string) error {
	return sh.do(ctx, rpcCheckpoint, checkpointArgs{Name: name, Dir: dir})
}

// RestoreProvider loads a provider's state from dir.
func (sh *ServiceHandle) RestoreProvider(ctx context.Context, name, dir string) error {
	return sh.do(ctx, rpcRestore, checkpointArgs{Name: name, Dir: dir})
}

// GetStats fetches the remote process's monitoring snapshot
// (Listing 1's schema), §4's runtime statistics API.
func (sh *ServiceHandle) GetStats(ctx context.Context) (*margo.StatsSnapshot, []byte, error) {
	return call[*margo.StatsSnapshot](ctx, sh, rpcGetStats, nil)
}

// GetMetrics fetches the remote process's metrics registry rendered
// in Prometheus text format (the RPC twin of its /metrics endpoint).
func (sh *ServiceHandle) GetMetrics(ctx context.Context) (string, error) {
	text, _, err := call[string](ctx, sh, rpcGetMetrics, nil)
	return text, err
}

// GetMetricsSnapshot fetches the remote process's metrics registry in
// structured snapshot form — the same data the federation aggregator
// pulls and merges.
func (sh *ServiceHandle) GetMetricsSnapshot(ctx context.Context) ([]metrics.FamilySnapshot, error) {
	snap, _, err := call[[]metrics.FamilySnapshot](ctx, sh, rpcGetMetrics, metricsArgs{Format: "snapshot"})
	return snap, err
}

// GetClusterMetrics asks the remote process for its federated cluster
// view: every member it knows about, scraped and merged under a node
// label. Render with metrics.WriteText for Prometheus text.
func (sh *ServiceHandle) GetClusterMetrics(ctx context.Context) ([]metrics.FamilySnapshot, error) {
	snap, _, err := call[[]metrics.FamilySnapshot](ctx, sh, rpcGetCluster, nil)
	return snap, err
}

// GetProfile fetches one pprof profile (binary protobuf bytes) from
// the remote process. CPU profiles sample for the given number of
// seconds; pass 0 for the server default. Requires
// monitoring.profiling.pprof on the target.
func (sh *ServiceHandle) GetProfile(ctx context.Context, name string, seconds int) ([]byte, error) {
	data, _, err := call[[]byte](ctx, sh, rpcGetProfile, profileArgs{Name: name, Seconds: seconds})
	return data, err
}

// GetTraces fetches the remote process's buffered trace spans (oldest
// first) along with the raw JSON reply. Render spans — possibly merged
// from several processes — with trace.ChromeJSON for Perfetto or
// about://tracing.
func (sh *ServiceHandle) GetTraces(ctx context.Context) ([]trace.Span, []byte, error) {
	return call[[]trace.Span](ctx, sh, rpcGetTraces, nil)
}

// Shutdown asks the remote process to shut down.
func (sh *ServiceHandle) Shutdown(ctx context.Context) error {
	return sh.do(ctx, rpcShutdown, nil)
}
