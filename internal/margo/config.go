package margo

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mochi/internal/argobots"
	"mochi/internal/resilience"
)

// Config is the margo section of a process configuration (paper
// Listing 2). ProgressPool and RPCPool name pools from the argobots
// section; empty values select defaults that are created on demand.
type Config struct {
	Argobots     argobots.Config `json:"argobots"`
	ProgressPool string          `json:"progress_pool,omitempty"`
	RPCPool      string          `json:"rpc_pool,omitempty"`
	// EnableMonitoring starts the periodic progress sampler (§4).
	// Per-RPC statistics are always recorded and need no switch.
	EnableMonitoring bool `json:"enable_monitoring,omitempty"`
	// MonitoringSampleMS is the period, in milliseconds, at which the
	// sampler records in-flight RPC counts and pool depths (default
	// 100ms).
	MonitoringSampleMS int `json:"monitoring_sample_ms,omitempty"`
	// MonitoringOutput, when set, makes Finalize write the Listing-1
	// statistics JSON to this file (§4: "outputs them as JSON when
	// shutting down the service").
	MonitoringOutput string `json:"monitoring_output,omitempty"`
	// Resilience enables client-side retries and circuit breaking for
	// every RPC this instance forwards. Nil (the default) keeps the
	// single-attempt behaviour.
	Resilience *resilience.Config `json:"resilience,omitempty"`
	// Transport tunes the TCP transport layer. Nil selects the built-in
	// default (a pool size sized from GOMAXPROCS).
	Transport *TransportConfig `json:"transport,omitempty"`
}

// TransportConfig exposes the mercury TCP transport's one knob in
// process configuration (DESIGN.md §12). Zero selects the default.
type TransportConfig struct {
	// PoolSize is the number of connections kept per destination;
	// in-flight RPCs are striped across them by sequence number.
	// Default min(4, GOMAXPROCS), clamped to [1, 64].
	PoolSize int `json:"pool_size,omitempty"`
}

// UnmarshalJSON rejects keys the block does not know, naming the key,
// as yokan.Config does: a misspelt knob, or one for an option that no
// longer exists, must fail loudly rather than quietly run the default.
func (t *TransportConfig) UnmarshalJSON(data []byte) error {
	type plain TransportConfig // same fields, no UnmarshalJSON: no recursion
	p := plain(*t)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return fmt.Errorf("margo: transport: %w", err)
	}
	*t = TransportConfig(p)
	return nil
}

// defaultConfig is used when New is given empty JSON: one pool drained
// by one xstream, used for both progress and RPC handling.
func defaultConfig() Config {
	return Config{
		Argobots: argobots.Config{
			Pools: []argobots.PoolConfig{
				{Name: "__primary__", Kind: string(argobots.PoolFIFOWait), Access: string(argobots.AccessMPMC)},
			},
			Xstreams: []argobots.XstreamConfig{
				{Name: "__primary_es__", Scheduler: argobots.SchedConfig{
					Kind:  string(argobots.SchedBasicWait),
					Pools: []string{"__primary__"},
				}},
			},
		},
		ProgressPool: "__primary__",
		RPCPool:      "__primary__",
	}
}

// ParseConfig decodes a JSON configuration string, filling defaults.
func ParseConfig(raw []byte) (Config, error) {
	if len(raw) == 0 {
		return defaultConfig(), nil
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return Config{}, fmt.Errorf("margo: bad config: %w", err)
	}
	if len(cfg.Argobots.Pools) == 0 {
		def := defaultConfig()
		cfg.Argobots = def.Argobots
		if cfg.ProgressPool == "" {
			cfg.ProgressPool = def.ProgressPool
		}
		if cfg.RPCPool == "" {
			cfg.RPCPool = def.RPCPool
		}
	}
	if cfg.ProgressPool == "" {
		cfg.ProgressPool = cfg.Argobots.Pools[0].Name
	}
	if cfg.RPCPool == "" {
		cfg.RPCPool = cfg.Argobots.Pools[0].Name
	}
	if t := cfg.Transport; t != nil && t.PoolSize < 0 {
		return Config{}, fmt.Errorf("margo: transport.pool_size must be >= 0, got %d", t.PoolSize)
	}
	return cfg, nil
}
