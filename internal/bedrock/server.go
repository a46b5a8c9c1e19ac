package bedrock

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mochi/internal/argobots"
	"mochi/internal/jx9"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/metrics"
	"mochi/internal/observe"
	"mochi/internal/remi"
	"mochi/internal/trace"
)

// osStat is indirected for tests.
var osStat = os.Stat

// RPC names of the bedrock control plane.
const (
	rpcGetConfig     = "bedrock_get_config"
	rpcQueryConfig   = "bedrock_query_config"
	rpcAddPool       = "bedrock_add_pool"
	rpcRemovePool    = "bedrock_remove_pool"
	rpcAddXstream    = "bedrock_add_xstream"
	rpcRemoveXstream = "bedrock_remove_xstream"
	rpcLoadModule    = "bedrock_load_module"
	rpcStartProvider = "bedrock_start_provider"
	rpcStopProvider  = "bedrock_stop_provider"
	rpcMigrate       = "bedrock_migrate_provider"
	rpcCheckpoint    = "bedrock_checkpoint_provider"
	rpcRestore       = "bedrock_restore_provider"
	rpcPin           = "bedrock_pin_provider"
	rpcUnpin         = "bedrock_unpin_provider"
	rpcShutdown      = "bedrock_shutdown"
	rpcGetStats      = "bedrock_get_stats"
	rpcGetMetrics    = "bedrock_get_metrics"
	rpcGetTraces     = "bedrock_get_traces"
	rpcGetCluster    = "bedrock_get_cluster_metrics"
	rpcGetProfile    = "bedrock_get_profile"
)

type providerRecord struct {
	cfg      ProviderConfig
	instance ProviderInstance
	pool     *argobots.Pool
	// pins counts holders that depend on this provider; a pinned
	// provider cannot be stopped or migrated (§5's cross-process
	// consistency guarantee).
	pins map[string]int
	// deps are the resolved dependencies this provider holds (and has
	// pinned), released when it stops.
	deps map[string]Dependency
}

// Server is the bedrock daemon of one process.
type Server struct {
	inst *margo.Instance
	cfg  Config

	mu        sync.Mutex
	loaded    map[string]bool
	providers map[string]*providerRecord
	remiProv  *remi.Provider
	shutdown  bool

	shutdownCh chan struct{}
	once       sync.Once

	// Embedded monitoring HTTP listener (/metrics, /traces, /healthz),
	// present when the config's "monitoring" block sets http_address.
	httpLn  net.Listener
	httpSrv *http.Server

	// Introspection plane (always constructed; the legs are
	// config-gated individually).
	agg          *observe.Aggregator
	slo          *observe.Tracker
	sloUnhook    func()
	pprofEnabled bool
}

// NewServer bootstraps a process from a Listing-3 configuration: it
// creates the margo runtime, loads modules, starts the built-in REMI
// provider (when remi_root is set) and instantiates all configured
// providers with dependency resolution.
func NewServer(class *mercury.Class, raw []byte) (*Server, error) {
	cfg, err := ParseConfig(raw)
	if err != nil {
		return nil, err
	}
	// margo.ParseConfig fills pool/xstream defaults when the argobots
	// section is empty while preserving the other margo options
	// (monitoring flags etc.).
	margoRaw, err := json.Marshal(cfg.Margo)
	if err != nil {
		return nil, err
	}
	if cfg.AuthSecret != "" {
		class.SetAuthToken(cfg.AuthSecret)
		class.SetAuthVerifier(mercury.TokenVerifier(cfg.AuthSecret))
	}
	inst, err := margo.New(class, margoRaw)
	if err != nil {
		return nil, err
	}
	if cfg.Resilience != nil {
		inst.SetResilience(cfg.Resilience)
	}
	s := &Server{
		inst:       inst,
		cfg:        cfg,
		loaded:     map[string]bool{},
		providers:  map[string]*providerRecord{},
		shutdownCh: make(chan struct{}),
	}
	for typ := range cfg.Libraries {
		if err := s.loadModule(typ); err != nil {
			inst.Finalize()
			return nil, err
		}
	}
	if cfg.RemiRoot != "" {
		prov, err := remi.NewProvider(inst, cfg.RemiProviderID, nil, cfg.RemiRoot)
		if err != nil {
			inst.Finalize()
			return nil, err
		}
		prov.OnMigrated(s.receiveMigrated)
		s.remiProv = prov
	}
	if err := s.registerRPCs(); err != nil {
		inst.Finalize()
		return nil, err
	}
	if err := s.setupObservability(cfg.Monitoring); err != nil {
		s.Shutdown()
		return nil, err
	}
	if err := s.bootstrapProviders(cfg.Providers); err != nil {
		s.Shutdown()
		return nil, err
	}
	if cfg.Monitoring != nil {
		applyTraceConfig(inst.Tracer(), cfg.Monitoring)
		if cfg.Monitoring.HTTPAddress != "" {
			if err := s.startMonitoringHTTP(cfg.Monitoring.HTTPAddress); err != nil {
				s.Shutdown()
				return nil, err
			}
		}
	}
	return s, nil
}

// setupObservability builds the introspection plane. The federation
// aggregator always exists (a single-node cluster view is just the
// local registry with a node label); the profiling and SLO legs are
// config-gated.
func (s *Server) setupObservability(mc *MonitoringConfig) error {
	acfg := observe.AggregatorConfig{
		Self:    s.inst.Addr(),
		RPCName: rpcGetMetrics,
		Pool:    s.inst.RPCPool(),
		Clock:   s.inst.Clock(),
	}
	if mc != nil && mc.Cluster != nil && mc.Cluster.ScrapeTimeoutMS > 0 {
		acfg.Timeout = time.Duration(mc.Cluster.ScrapeTimeoutMS) * time.Millisecond
	}
	s.agg = observe.NewAggregator(s.inst, s.inst.Metrics(), acfg)
	if mc == nil {
		return nil
	}
	if mc.Cluster != nil && len(mc.Cluster.Members) > 0 {
		s.agg.SetMemberSource(observe.StaticMembers(mc.Cluster.Members))
	}
	if p := mc.Profiling; p != nil {
		s.pprofEnabled = p.Pprof
		if p.RuntimeMetrics {
			observe.RegisterRuntimeMetrics(s.inst.Metrics())
		}
		if p.PoolWait {
			s.inst.Runtime().EnableWaitSampling(s.inst.Metrics())
		}
	}
	if len(mc.SLO) > 0 {
		tr, err := observe.NewTracker(s.inst.Clock(), mc.SLO)
		if err != nil {
			return err
		}
		tr.Register(s.inst.Metrics())
		s.slo = tr
		s.sloUnhook = s.inst.AddHook(&margo.Hook{
			OnHandlerEnd: func(info margo.RPCInfo, d time.Duration) {
				tr.Observe(info.Name, d)
			},
		})
	}
	return nil
}

// Aggregator returns the metrics-federation aggregator, so embedding
// applications can re-point its member source (e.g. at an SSG view via
// observe.SSGMembers).
func (s *Server) Aggregator() *observe.Aggregator { return s.agg }

// SetMemberSource re-points the federation's membership (an SSG view,
// a static list). Nil reverts to self-only.
func (s *Server) SetMemberSource(fn func() []string) { s.agg.SetMemberSource(fn) }

// ClusterMetrics scrapes every federation member and returns the
// merged, node-labelled snapshot — the data behind GET /metrics/cluster
// and the bedrock_get_cluster_metrics RPC.
func (s *Server) ClusterMetrics(ctx context.Context) ([]metrics.FamilySnapshot, error) {
	return s.agg.Merged(ctx)
}

// Degraded returns the RPC families currently burning their error
// budget in both SLO windows (empty when no SLOs are configured or
// all are healthy).
func (s *Server) Degraded() []string {
	if s.slo == nil {
		return nil
	}
	return s.slo.Degraded()
}

// applyTraceConfig tunes the instance tracer from the monitoring
// block: head-sampling rate, tail-sampler threshold (0 keeps the
// default, negative disables), and span ring capacity.
func applyTraceConfig(tr *trace.Tracer, mc *MonitoringConfig) {
	if mc.TraceSampleRate > 0 {
		tr.SetSampleRate(mc.TraceSampleRate)
	}
	if mc.TraceSlowMS != 0 {
		tr.SetSlowThreshold(time.Duration(mc.TraceSlowMS) * time.Millisecond)
	}
	if mc.TraceBufferSize > 0 {
		tr.SetCapacity(mc.TraceBufferSize)
	}
}

// Instance returns the server's margo instance.
func (s *Server) Instance() *margo.Instance { return s.inst }

// Addr returns the process address.
func (s *Server) Addr() string { return s.inst.Addr() }

// RemiProviderID returns the built-in REMI provider's ID (0 if none).
func (s *Server) RemiProviderID() uint16 {
	if s.remiProv == nil {
		return 0
	}
	return s.remiProv.ID()
}

// Done is closed when the server shuts down; daemons wait on it.
func (s *Server) Done() <-chan struct{} { return s.shutdownCh }

func (s *Server) loadModule(typ string) error {
	if _, ok := LookupModule(typ); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModule, typ)
	}
	s.mu.Lock()
	s.loaded[typ] = true
	s.mu.Unlock()
	return nil
}

// bootstrapProviders instantiates the configured providers, iterating
// until local dependencies resolve (simple topological settling).
func (s *Server) bootstrapProviders(list []ProviderConfig) error {
	pending := append([]ProviderConfig(nil), list...)
	for len(pending) > 0 {
		progressed := false
		var next []ProviderConfig
		var lastErr error
		for _, pc := range pending {
			if err := s.StartProvider(pc); err != nil {
				lastErr = err
				next = append(next, pc)
				continue
			}
			progressed = true
		}
		if !progressed {
			return fmt.Errorf("%w: unresolvable providers (%v)", ErrDependency, lastErr)
		}
		pending = next
	}
	return nil
}

// StartProvider creates a provider in this process, resolving and
// pinning its dependencies first (two-phase: acquire all pins, then
// instantiate; abort releases the pins). This is what makes the
// paper's concurrent create/destroy scenario linearize safely.
func (s *Server) StartProvider(pc ProviderConfig) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return ErrShutdown
	}
	if !s.loaded[pc.Type] {
		if _, ok := LookupModule(pc.Type); !ok {
			s.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrUnknownModule, pc.Type)
		}
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrModuleNotLoaded, pc.Type)
	}
	if _, dup := s.providers[pc.Name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrProviderExists, pc.Name)
	}
	mod, _ := LookupModule(pc.Type)
	var pool *argobots.Pool
	if pc.Pool != "" {
		p, ok := s.inst.FindPoolByName(pc.Pool)
		if !ok {
			s.mu.Unlock()
			return fmt.Errorf("bedrock: pool %q not found for provider %q", pc.Pool, pc.Name)
		}
		pool = p
	}
	s.mu.Unlock()

	holder := pc.Name + "@" + s.Addr()

	// Phase 1: resolve and pin every dependency.
	resolved := map[string]Dependency{}
	var acquired []Dependency
	release := func() {
		for _, d := range acquired {
			s.unpinDependency(d, holder)
		}
	}
	for depName, spec := range pc.Dependencies {
		dep, err := s.pinDependency(depName, spec, holder)
		if err != nil {
			release()
			return fmt.Errorf("%w: %s -> %s: %v", ErrDependency, pc.Name, spec, err)
		}
		resolved[depName] = dep
		acquired = append(acquired, dep)
	}

	// Phase 2: instantiate.
	inst, err := mod.StartProvider(ProviderArgs{
		Instance:     s.inst,
		Name:         pc.Name,
		ProviderID:   pc.ProviderID,
		Pool:         pool,
		Config:       pc.Config,
		Dependencies: resolved,
	})
	if err != nil {
		release()
		return err
	}
	s.mu.Lock()
	if _, dup := s.providers[pc.Name]; dup {
		s.mu.Unlock()
		inst.Close()
		release()
		return fmt.Errorf("%w: %q", ErrProviderExists, pc.Name)
	}
	s.providers[pc.Name] = &providerRecord{
		cfg:      pc,
		instance: inst,
		pool:     pool,
		pins:     map[string]int{},
		deps:     resolved,
	}
	s.mu.Unlock()
	return nil
}

// pinDependency resolves spec and pins the target so it cannot be
// destroyed while in use.
func (s *Server) pinDependency(depName, spec, holder string) (Dependency, error) {
	typ, id, addr, remote := ParseDependencySpec(spec)
	if !remote {
		// Local provider by name.
		s.mu.Lock()
		rec, ok := s.providers[spec]
		if !ok {
			s.mu.Unlock()
			return Dependency{}, fmt.Errorf("%w: %q", ErrNoSuchProvider, spec)
		}
		rec.pins[holder]++
		dep := Dependency{
			Name:       depName,
			Spec:       spec,
			Address:    s.Addr(),
			ProviderID: rec.cfg.ProviderID,
			Local:      rec.instance,
		}
		s.mu.Unlock()
		return dep, nil
	}
	// Remote: two-phase pin over RPC.
	args := pinArgs{ProviderID: id, Type: typ, Holder: holder}
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	if _, _, err := callJSON[json.RawMessage](ctx, s.inst, addr, rpcPin, args); err != nil {
		return Dependency{}, err
	}
	return Dependency{Name: depName, Spec: spec, Address: addr, ProviderID: id}, nil
}

func (s *Server) unpinDependency(d Dependency, holder string) {
	if d.Local != nil || d.Address == s.Addr() {
		s.mu.Lock()
		for _, rec := range s.providers {
			if rec.instance == d.Local || (d.Local == nil && rec.cfg.ProviderID == d.ProviderID) {
				rec.pins[holder]--
				if rec.pins[holder] <= 0 {
					delete(rec.pins, holder)
				}
				break
			}
		}
		s.mu.Unlock()
		return
	}
	args := pinArgs{ProviderID: d.ProviderID, Holder: holder}
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	// Best effort: the holder is going away whether or not the pin's
	// owner can still be told.
	_, _, _ = callJSON[json.RawMessage](ctx, s.inst, d.Address, rpcUnpin, args)
}

// StopProvider stops a provider; it fails while other providers
// (local or remote) hold it as a dependency.
func (s *Server) StopProvider(name string) error {
	s.mu.Lock()
	rec, ok := s.providers[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchProvider, name)
	}
	if len(rec.pins) > 0 {
		holders := make([]string, 0, len(rec.pins))
		for h := range rec.pins {
			holders = append(holders, h)
		}
		s.mu.Unlock()
		return fmt.Errorf("%w: %q held by %v", ErrProviderPinned, name, holders)
	}
	delete(s.providers, name)
	s.mu.Unlock()

	holder := name + "@" + s.Addr()
	for _, d := range rec.deps {
		s.unpinDependency(d, holder)
	}
	return rec.instance.Close()
}

// MigrateProvider moves a provider's resource to the process at
// destAddr (which must run a REMI-enabled bedrock) and stops the
// local provider. The destination re-instantiates it from the
// migrated files (§6, Observation 5). Once it has, the local files are
// deleted: a stopped provider's files have no reader, and a provider
// restarted from the same config would reopen pre-migration data.
func (s *Server) MigrateProvider(ctx context.Context, name, destAddr string, destRemiID uint16, method remi.Method) error {
	s.mu.Lock()
	rec, ok := s.providers[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchProvider, name)
	}
	if len(rec.pins) > 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrProviderPinned, name)
	}
	mig, ok := rec.instance.(Migratable)
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotMigratable, name)
	}
	s.mu.Unlock()

	if err := mig.Flush(); err != nil {
		return err
	}
	files := mig.Files()
	if len(files) == 0 {
		return fmt.Errorf("%w: %q has no files", ErrNotMigratable, name)
	}
	root := filepath.Dir(files[0])
	cfgRaw, err := rec.instance.Config()
	if err != nil {
		return err
	}
	if destRemiID == 0 {
		destRemiID = 65000
	}
	fs, err := remi.BuildFileSet(rec.cfg.Type, root, files, map[string]string{
		"bedrock_name":        rec.cfg.Name,
		"bedrock_type":        rec.cfg.Type,
		"bedrock_provider_id": fmt.Sprint(rec.cfg.ProviderID),
		"bedrock_config":      string(cfgRaw),
	})
	if err != nil {
		return err
	}
	client := remi.NewClient(s.inst)
	if _, err := client.Migrate(ctx, destAddr, destRemiID, fs, remi.Options{
		Method: method,
	}); err != nil {
		return err
	}
	// Verify the destination actually instantiated the provider (it
	// may fail on, e.g., a provider-ID collision); the source keeps
	// serving if it did not, so no data is ever stranded.
	if err := s.verifyRemoteProvider(ctx, destAddr, name); err != nil {
		return fmt.Errorf("bedrock: destination did not adopt %q: %w", name, err)
	}
	if err := s.StopProvider(name); err != nil {
		return err
	}
	for _, f := range files {
		_ = os.Remove(f)
	}
	return nil
}

// verifyRemoteProvider checks that destAddr runs a provider with the
// given name.
func (s *Server) verifyRemoteProvider(ctx context.Context, destAddr, name string) error {
	script := fmt.Sprintf(`
$found = false;
foreach ($__config__.providers as $p) {
    if ($p.name == %q) { $found = true; } }
return $found;`, name)
	found, _, err := callJSON[bool](ctx, s.inst, destAddr, rpcQueryConfig, queryArgs{Script: script})
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("provider %q absent at destination", name)
	}
	return nil
}

// receiveMigrated is the REMI completion callback: it instantiates a
// provider over the received fileset using the module's receiver hook.
// Modules reopen their resource from files, so a fileset that arrived
// in memory only is not a provider migration.
func (s *Server) receiveMigrated(_ context.Context, fs *remi.FileSet) {
	if fs.InMemory() {
		return
	}
	typ := fs.Metadata["bedrock_type"]
	mod, ok := LookupModule(typ)
	if !ok {
		return
	}
	recv, ok := mod.(MigrationReceiver)
	if !ok {
		return
	}
	var id uint16
	fmt.Sscanf(fs.Metadata["bedrock_provider_id"], "%d", &id)
	pc := ProviderConfig{
		Name:       fs.Metadata["bedrock_name"],
		Type:       typ,
		ProviderID: id,
		Config:     json.RawMessage(fs.Metadata["bedrock_config"]),
	}
	inst, err := recv.ReceiveProvider(ProviderArgs{
		Instance:   s.inst,
		Name:       pc.Name,
		ProviderID: pc.ProviderID,
		Config:     pc.Config,
	}, fs)
	if err != nil {
		return
	}
	updated, err := inst.Config()
	if err == nil {
		pc.Config = updated
	}
	s.mu.Lock()
	if _, dup := s.providers[pc.Name]; dup || s.shutdown {
		s.mu.Unlock()
		inst.Close()
		return
	}
	s.providers[pc.Name] = &providerRecord{
		cfg:      pc,
		instance: inst,
		pins:     map[string]int{},
		deps:     map[string]Dependency{},
	}
	s.mu.Unlock()
}

// CheckpointProvider saves a provider's state into dir.
func (s *Server) CheckpointProvider(name, dir string) error {
	s.mu.Lock()
	rec, ok := s.providers[name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchProvider, name)
	}
	cp, ok := rec.instance.(Checkpointable)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotCheckpointable, name)
	}
	return cp.Checkpoint(dir)
}

// RestoreProvider loads a provider's state from dir.
func (s *Server) RestoreProvider(name, dir string) error {
	s.mu.Lock()
	rec, ok := s.providers[name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchProvider, name)
	}
	cp, ok := rec.instance.(Checkpointable)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotCheckpointable, name)
	}
	return cp.Restore(dir)
}

// GetConfig returns the live configuration of the whole process.
func (s *Server) GetConfig() ([]byte, error) {
	margoRaw, err := s.inst.GetConfig()
	if err != nil {
		return nil, err
	}
	var margoCfg margo.Config
	if err := json.Unmarshal(margoRaw, &margoCfg); err != nil {
		return nil, err
	}
	s.mu.Lock()
	out := Config{
		Margo:          margoCfg,
		Libraries:      s.cfg.Libraries,
		RemiRoot:       s.cfg.RemiRoot,
		RemiProviderID: s.cfg.RemiProviderID,
		Monitoring:     s.cfg.Monitoring,
		Resilience:     s.cfg.Resilience,
	}
	for _, rec := range s.providers {
		pc := rec.cfg
		if cur, err := rec.instance.Config(); err == nil {
			pc.Config = cur
		}
		out.Providers = append(out.Providers, pc)
	}
	s.mu.Unlock()
	// Stable order for reproducible output.
	for i := 0; i < len(out.Providers); i++ {
		for j := i + 1; j < len(out.Providers); j++ {
			if out.Providers[j].Name < out.Providers[i].Name {
				out.Providers[i], out.Providers[j] = out.Providers[j], out.Providers[i]
			}
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// QueryConfig runs a Jx9 script against the live configuration
// (Listing 4) and returns the script's return value as JSON.
func (s *Server) QueryConfig(script string) ([]byte, error) {
	raw, err := s.GetConfig()
	if err != nil {
		return nil, err
	}
	cfgVal, err := jx9.ParseJSON(raw)
	if err != nil {
		return nil, err
	}
	var engine jx9.Engine
	res, err := engine.Run(script, map[string]jx9.Value{"__config__": cfgVal})
	if err != nil {
		return nil, err
	}
	return []byte(res.Return.String()), nil
}

// Providers lists the provider names, sorted.
func (s *Server) Providers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.providers))
	for n := range s.providers {
		out = append(out, n)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// ResourceInfo summarizes one provider for inventory/rebalancing.
type ResourceInfo struct {
	Name       string
	Type       string
	ProviderID uint16
	// Bytes is the on-disk size of the provider's files (0 for
	// in-memory resources).
	Bytes int64
	// Migratable reports whether the provider can move via REMI.
	Migratable bool
}

// ResourceInventory lists the providers in this process with their
// sizes, the raw material for Pufferscale rebalancing decisions.
func (s *Server) ResourceInventory() []ResourceInfo {
	s.mu.Lock()
	recs := make([]*providerRecord, 0, len(s.providers))
	for _, r := range s.providers {
		recs = append(recs, r)
	}
	s.mu.Unlock()
	out := make([]ResourceInfo, 0, len(recs))
	for _, rec := range recs {
		info := ResourceInfo{
			Name:       rec.cfg.Name,
			Type:       rec.cfg.Type,
			ProviderID: rec.cfg.ProviderID,
		}
		if mig, ok := rec.instance.(Migratable); ok {
			info.Migratable = true
			for _, f := range mig.Files() {
				if fi, err := osStat(f); err == nil {
					info.Bytes += fi.Size()
				}
			}
			if len(mig.Files()) == 0 {
				info.Migratable = false
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupProvider returns a running provider instance by name.
func (s *Server) LookupProvider(name string) (ProviderInstance, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.providers[name]
	if !ok {
		return nil, false
	}
	return rec.instance, true
}

// Shutdown stops all providers and finalizes the margo instance.
func (s *Server) Shutdown() {
	s.once.Do(func() {
		s.mu.Lock()
		s.shutdown = true
		recs := make([]*providerRecord, 0, len(s.providers))
		for _, r := range s.providers {
			recs = append(recs, r)
		}
		s.providers = map[string]*providerRecord{}
		remiProv := s.remiProv
		s.mu.Unlock()
		s.stopMonitoringHTTP()
		if s.sloUnhook != nil {
			s.sloUnhook()
		}
		for _, r := range recs {
			_ = r.instance.Close()
		}
		if remiProv != nil {
			remiProv.Close()
		}
		s.inst.Finalize()
		close(s.shutdownCh)
	})
}
