// Package yokan is the key-value-store component, the running example
// of the paper's component anatomy (Figure 1): a server library whose
// providers manage a resource (a database) behind an abstract
// interface with interchangeable backends, and a client library whose
// database handles map to remote resources via (address, provider ID).
//
// Backends:
//
//   - "map":      unordered in-memory hash map (fastest point ops)
//   - "skiplist": ordered in-memory skip list (range scans), the
//     moral equivalent of an LSM memtable
//   - "btree":    ordered in-memory B-tree (Berkeley-DB-style node
//     structure, cache-friendlier scans)
//   - "log":      persistent append-only log + in-memory skip-list
//     index, with compaction; its files make providers
//     migratable via REMI and checkpointable to a PFS
package yokan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
)

// Errors returned by databases and clients.
var (
	ErrKeyNotFound = errors.New("yokan: key not found")
	ErrClosed      = errors.New("yokan: database closed")
	ErrBadConfig   = errors.New("yokan: invalid configuration")
	ErrEmptyKey    = errors.New("yokan: empty key")
)

// KeyValue pairs a key with its value in bulk operations.
type KeyValue struct {
	Key   []byte
	Value []byte
}

// Database is the abstract resource interface of the component
// (Figure 1: "Follows an abstract interface ... implemented in
// various ways"). Implementations must be safe for concurrent use,
// and must not retain the key/value slices passed to any method
// beyond the call (copy what they store): the provider's decode path
// aliases RPC input buffers that are recycled after the handler
// responds.
type Database interface {
	// Put stores value under key, replacing any existing value.
	Put(key, value []byte) error
	// Get returns the value stored under key, or ErrKeyNotFound.
	Get(key []byte) ([]byte, error)
	// Erase removes key; removing a missing key is ErrKeyNotFound.
	Erase(key []byte) error
	// Exists reports whether key is present.
	Exists(key []byte) (bool, error)
	// Count returns the number of stored pairs.
	Count() (int, error)
	// ListKeys returns up to max keys strictly greater than fromKey
	// (nil means from the start) that carry the given prefix, in
	// ascending order. Unordered backends sort on demand.
	ListKeys(fromKey, prefix []byte, max int) ([][]byte, error)
	// ListKeyValues is ListKeys but also returns values.
	ListKeyValues(fromKey, prefix []byte, max int) ([]KeyValue, error)
	// Flush persists pending state for durable backends (no-op for
	// in-memory ones).
	Flush() error
	// Files returns the paths backing this database (empty for
	// in-memory backends); these are what REMI migrates.
	Files() []string
	// Close releases resources; the database becomes unusable.
	Close() error
	// Destroy closes and removes any backing files.
	Destroy() error
}

// scanner is implemented by backends that visit their pairs better
// than by paging through ListKeyValues.
type scanner interface {
	Scan(fn func(key, value []byte)) error
}

// scanPage is how many pairs Scan's generic path reads per hold of
// the backend's lock.
const scanPage = 256

// Scan calls fn for every pair of db without ever holding the
// backend's lock for more than one bounded step — one pair, or one
// page of scanPage pairs — so a scan of a large database never makes
// a concurrent operation wait for O(database). It yields the
// processor every scanPage pairs for the same reason: a scan is
// milliseconds of uninterrupted work, and on a busy host the
// goroutines serving requests would otherwise queue behind it until
// the runtime's 10 ms preemption. The price is that it
// is not a point-in-time view: a pair written or erased while the scan
// runs may be visited in either state or not at all (callers that need
// consistency pair the scan with a log of concurrent writes, as a
// moving router shard does). key and value are valid only
// during the call and must not be modified; fn may run under the
// backend's read lock, so it must be short and must not call into db.
func Scan(db Database, fn func(key, value []byte)) error {
	if s, ok := db.(scanner); ok {
		return s.Scan(fn)
	}
	var from []byte
	for {
		page, err := db.ListKeyValues(from, nil, scanPage)
		if err != nil {
			return err
		}
		for _, kv := range page {
			fn(kv.Key, kv.Value)
		}
		if len(page) < scanPage {
			return nil
		}
		from = page[len(page)-1].Key
		runtime.Gosched()
	}
}

// Config selects and parameterizes a backend.
type Config struct {
	Type string `json:"type"`
	// Path is the backing file for the "log" backend.
	Path string `json:"path,omitempty"`
	// NoSync disables fsync on the log backend (tests/benchmarks).
	NoSync bool `json:"no_sync,omitempty"`
	// Shards is the lock-stripe count for the in-memory backends
	// ("map", "skiplist", "btree"): the key space is hash-partitioned
	// into this many independently locked instances so concurrent
	// clients scale with cores. 0 picks a default sized to
	// GOMAXPROCS; 1 disables striping. Ordered iteration is
	// merge-sorted across stripes and byte-identical to an unsharded
	// database. Ignored by the "log" backend.
	Shards int `json:"shards,omitempty"`
}

// UnmarshalJSON is the one place a yokan Config is parsed from JSON —
// by OpenJSON/NewProviderJSON, by Bedrock's yokan module, and as the
// "backend" block of an xkv provider. It rejects keys it does not know
// with ErrBadConfig naming the key: a config written for an engine
// option that no longer exists must fail loudly, not quietly run a
// different engine than its author asked for.
func (c *Config) UnmarshalJSON(data []byte) error {
	type plain Config // same fields, no UnmarshalJSON: no recursion
	p := plain(*c)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	*c = Config(p)
	return nil
}

// Open creates a database from a config.
func Open(cfg Config) (Database, error) {
	shards := cfg.Shards
	if shards == 0 {
		shards = defaultShards()
	}
	if shards < 1 {
		return nil, fmt.Errorf("%w: shards must be >= 1, got %d", ErrBadConfig, cfg.Shards)
	}
	stripe := func(open func() Database) Database {
		if shards == 1 {
			return open()
		}
		return newShardedDB(shards, open)
	}
	switch cfg.Type {
	case "", "map":
		return stripe(func() Database { return newMapDB() }), nil
	case "skiplist":
		return stripe(func() Database { return newSkipDB() }), nil
	case "btree":
		return stripe(func() Database { return newBTreeDB() }), nil
	case "log":
		if cfg.Path == "" {
			return nil, fmt.Errorf("%w: log backend needs a path", ErrBadConfig)
		}
		return openLogDB(cfg.Path, cfg.NoSync)
	default:
		return nil, fmt.Errorf("%w: unknown backend %q", ErrBadConfig, cfg.Type)
	}
}

// OpenJSON creates a database from a JSON configuration string, as a
// Bedrock module would receive it.
func OpenJSON(raw []byte) (Database, error) {
	cfg, err := parseConfig(raw)
	if err != nil {
		return nil, err
	}
	return Open(cfg)
}

// parseConfig decodes a JSON config; empty input is the zero Config.
// Every failure is an ErrBadConfig: json.Unmarshal reports malformed
// documents itself and hands well-formed ones to Config.UnmarshalJSON.
func parseConfig(raw []byte) (Config, error) {
	var cfg Config
	if len(raw) == 0 {
		return cfg, nil
	}
	err := json.Unmarshal(raw, &cfg)
	if err != nil && !errors.Is(err, ErrBadConfig) {
		err = fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return cfg, err
}
