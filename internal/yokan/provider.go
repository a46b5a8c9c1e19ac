package yokan

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mochi/internal/argobots"
	"mochi/internal/codec"
	"mochi/internal/durable"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// Provider manages one Database and serves it over RPC (Figure 1's
// server-library side: "Registers RPCs and their callbacks, forwards
// them to the Resource").
//
// The resource pointer is published through an atomic: the per-RPC
// fast path is one pointer load, with no lock — not even a read lock
// — bracketing handler execution, so a slow operation on one shard
// never convoys requests headed elsewhere. swapMu exists only for the
// rare lifecycle transitions (Close/Destroy/SwapDatabase) that
// replace the pointer.
type Provider struct {
	inst *margo.Instance
	id   uint16
	pool *argobots.Pool
	rpcs *margo.RPCSet

	state atomic.Pointer[providerState]
	// swapMu serializes Close/Destroy/SwapDatabase against each
	// other; it is never taken on the RPC path.
	swapMu sync.Mutex
}

// providerState pairs the database with the config that built it, so
// both swap atomically during reconfiguration.
type providerState struct {
	db  Database
	cfg Config
}

// fanoutPool picks the pool multi-op handlers fan out on: the
// provider's explicit pool, else the instance's RPC dispatch pool.
func (p *Provider) fanoutPool() *argobots.Pool {
	if p.pool != nil {
		return p.pool
	}
	return p.inst.RPCPool()
}

// adopt publishes a database, wiring the fan-out pool into backends
// that can exploit intra-request parallelism.
func (p *Provider) adopt(db Database, cfg Config) {
	if pa, ok := db.(PoolAware); ok {
		pa.SetPool(p.fanoutPool())
	}
	p.state.Store(&providerState{db: db, cfg: cfg})
}

// NewProvider creates a provider with the given ID serving a database
// built from cfg, handling RPCs on pool (nil = default pool).
func NewProvider(inst *margo.Instance, id uint16, pool *argobots.Pool, cfg Config) (*Provider, error) {
	db, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	p := &Provider{inst: inst, id: id, pool: pool}
	p.adopt(db, cfg)
	if err := p.register(); err != nil {
		db.Close()
		return nil, err
	}
	return p, nil
}

// NewProviderWithDatabase creates a provider serving a caller-supplied
// Database implementation. This is how virtual resources (paper §7,
// Observation 10) are built: the injected database can forward
// operations to replicas on other nodes while clients see an ordinary
// yokan provider.
func NewProviderWithDatabase(inst *margo.Instance, id uint16, pool *argobots.Pool, db Database, cfg Config) (*Provider, error) {
	p := &Provider{inst: inst, id: id, pool: pool}
	p.adopt(db, cfg)
	if err := p.register(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewProviderJSON is NewProvider taking the database config as JSON,
// the form Bedrock uses.
func NewProviderJSON(inst *margo.Instance, id uint16, pool *argobots.Pool, raw []byte) (*Provider, error) {
	cfg, err := parseConfig(raw)
	if err != nil {
		return nil, err
	}
	return NewProvider(inst, id, pool, cfg)
}

// ID returns the provider ID.
func (p *Provider) ID() uint16 { return p.id }

// Database returns the underlying resource (for local composition),
// or nil after Close.
func (p *Provider) Database() Database {
	st := p.state.Load()
	if st == nil {
		return nil
	}
	return st.db
}

// Config returns the provider's configuration as JSON.
func (p *Provider) Config() ([]byte, error) {
	st := p.state.Load()
	if st == nil {
		return nil, ErrClosed
	}
	return json.Marshal(st.cfg)
}

// SwapDatabase atomically replaces the served database (the
// reconfiguration/migration path): in-flight handlers finish against
// the database they loaded, new requests see the replacement
// immediately. The previous database is returned for the caller to
// drain, checkpoint, or close.
func (p *Provider) SwapDatabase(db Database, cfg Config) (Database, error) {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	st := p.state.Load()
	if st == nil {
		return nil, ErrClosed
	}
	p.adopt(db, cfg)
	return st.db, nil
}

func (p *Provider) register() (err error) {
	p.rpcs, err = p.inst.RegisterSet(p.id, p.pool,
		margo.RPC{Name: RPCPut, Handler: margo.Serve(p.handlePut)},
		margo.RPC{Name: RPCPutMulti, Handler: margo.Serve(p.handlePut)},
		margo.RPC{Name: RPCGet, Handler: margo.Serve(p.handleGet)},
		margo.RPC{Name: RPCGetMulti, Handler: margo.Serve(p.handleGetMulti)},
		margo.RPC{Name: RPCErase, Handler: margo.Serve(p.handleErase)},
		margo.RPC{Name: RPCExists, Handler: margo.Serve(p.handleExists)},
		margo.RPC{Name: RPCCount, Handler: p.handleCount},
		margo.RPC{Name: RPCListKeys, Handler: margo.Serve(p.handleListKeys)},
		margo.RPC{Name: RPCListKeyValues, Handler: margo.Serve(p.handleListKeyValues)},
		margo.RPC{Name: RPCGetConfig, Handler: p.handleGetConfig},
	)
	return err
}

// Close deregisters the provider and closes its database.
func (p *Provider) Close() error {
	p.swapMu.Lock()
	st := p.state.Swap(nil)
	p.swapMu.Unlock()
	if st == nil {
		return nil
	}
	p.rpcs.Close()
	return st.db.Close()
}

// Destroy closes the provider and removes the database's files.
func (p *Provider) Destroy() error {
	p.swapMu.Lock()
	st := p.state.Swap(nil)
	p.swapMu.Unlock()
	if st == nil {
		return nil
	}
	p.rpcs.Close()
	return st.db.Destroy()
}

func statusFromErr(err error) (uint8, string) {
	switch err {
	case nil:
		return 0, ""
	case ErrKeyNotFound:
		return 1, err.Error()
	default:
		return 2, err.Error()
	}
}

// database resolves the served resource with a single atomic load —
// the whole cost the provider layer adds to the storage hot path.
func (p *Provider) database() (Database, error) {
	st := p.state.Load()
	if st == nil {
		return nil, ErrClosed
	}
	return st.db, nil
}

func (p *Provider) handlePut(_ context.Context, _ *mercury.Handle, args *putArgs) (codec.Message, error) {
	db, err := p.database()
	if err == nil {
		if bw, ok := db.(BatchWriter); ok && len(args.Pairs) > 1 {
			// Sharded and log backends absorb the batch in one shot:
			// parallel per-stripe fan-out or a single group commit.
			err = bw.PutMulti(args.Pairs)
		} else {
			for _, kv := range args.Pairs {
				if err = db.Put(kv.Key, kv.Value); err != nil {
					break
				}
			}
		}
	}
	st, msg := statusFromErr(err)
	return &statusReply{Status: st, Err: msg}, nil
}

func (p *Provider) handleGet(_ context.Context, _ *mercury.Handle, args *keysArgs) (codec.Message, error) {
	var reply valueReply
	db, err := p.database()
	if err == nil {
		if len(args.Keys) != 1 {
			err = fmt.Errorf("yokan: get expects one key, got %d", len(args.Keys))
		} else {
			reply.Value, err = db.Get(args.Keys[0])
		}
	}
	reply.Status, reply.Err = statusFromErr(err)
	return &reply, nil
}

func (p *Provider) handleGetMulti(_ context.Context, _ *mercury.Handle, args *keysArgs) (codec.Message, error) {
	var reply valuesReply
	db, err := p.database()
	if err == nil {
		if br, ok := db.(BatchReader); ok && len(args.Keys) > 1 {
			reply.Values, reply.Found, err = br.GetMulti(args.Keys)
		} else {
			for _, k := range args.Keys {
				v, gerr := db.Get(k)
				switch gerr {
				case nil:
					reply.Found = append(reply.Found, true)
					reply.Values = append(reply.Values, v)
				case ErrKeyNotFound:
					reply.Found = append(reply.Found, false)
					reply.Values = append(reply.Values, nil)
				default:
					err = gerr
				}
				if err != nil {
					break
				}
			}
		}
	}
	reply.Status, reply.Err = statusFromErr(err)
	return &reply, nil
}

func (p *Provider) handleErase(_ context.Context, _ *mercury.Handle, args *keysArgs) (codec.Message, error) {
	db, err := p.database()
	if err == nil {
		for _, k := range args.Keys {
			if err = db.Erase(k); err != nil {
				break
			}
		}
	}
	st, msg := statusFromErr(err)
	return &statusReply{Status: st, Err: msg}, nil
}

func (p *Provider) handleExists(_ context.Context, _ *mercury.Handle, args *keysArgs) (codec.Message, error) {
	var reply boolReply
	db, err := p.database()
	if err == nil {
		if len(args.Keys) != 1 {
			err = fmt.Errorf("yokan: exists expects one key")
		} else {
			reply.Value, err = db.Exists(args.Keys[0])
		}
	}
	reply.Status, reply.Err = statusFromErr(err)
	return &reply, nil
}

func (p *Provider) handleCount(_ context.Context, h *mercury.Handle) {
	var reply countReply
	db, err := p.database()
	if err == nil {
		var n int
		n, err = db.Count()
		reply.Count = uint64(n)
	}
	reply.Status, reply.Err = statusFromErr(err)
	margo.Reply(h, &reply)
}

func (p *Provider) handleListKeys(_ context.Context, _ *mercury.Handle, args *listArgs) (codec.Message, error) {
	var reply kvListReply
	db, err := p.database()
	if err == nil {
		var from []byte
		if args.HasFrom {
			from = args.FromKey
		}
		var keys [][]byte
		keys, err = db.ListKeys(from, args.Prefix, int(args.Max))
		for _, k := range keys {
			reply.Pairs = append(reply.Pairs, KeyValue{Key: k})
		}
	}
	reply.Status, reply.Err = statusFromErr(err)
	return &reply, nil
}

func (p *Provider) handleListKeyValues(_ context.Context, _ *mercury.Handle, args *listArgs) (codec.Message, error) {
	var reply kvListReply
	db, err := p.database()
	if err == nil {
		var from []byte
		if args.HasFrom {
			from = args.FromKey
		}
		reply.Pairs, err = db.ListKeyValues(from, args.Prefix, int(args.Max))
	}
	reply.Status, reply.Err = statusFromErr(err)
	return &reply, nil
}

func (p *Provider) handleGetConfig(_ context.Context, h *mercury.Handle) {
	raw, err := p.Config()
	if err != nil {
		_ = h.RespondError(err)
		return
	}
	_ = h.Respond(raw)
}

// Checkpoint writes a consistent snapshot of the database into dir
// (one file named after the provider ID), the §7 Observation 9
// "leveraging parallel file systems" path. It is exposed through the
// provider's Bedrock module. The file is one put of everything the
// database holds, in putArgs's encoding, replaced atomically and synced.
func (p *Provider) Checkpoint(dir string) error {
	db, err := p.database()
	if err != nil {
		return err
	}
	kvs, err := db.ListKeyValues(nil, nil, 0)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("yokan-%d.ckpt", p.id))
	return new(durable.Disk).Replace(path, codec.Marshal(&putArgs{Pairs: kvs}))
}

// Restore replaces the database contents with the checkpoint found in
// dir for this provider ID.
func (p *Provider) Restore(dir string) error {
	path := filepath.Join(dir, fmt.Sprintf("yokan-%d.ckpt", p.id))
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	db, err := p.database()
	if err != nil {
		return err
	}
	var ckpt putArgs
	if err := codec.Unmarshal(raw, &ckpt); err != nil {
		return err
	}
	for _, kv := range ckpt.Pairs {
		if err := db.Put(kv.Key, kv.Value); err != nil {
			return err
		}
	}
	return nil
}

// Files returns the database's backing files, for REMI migration.
func (p *Provider) Files() []string {
	db, err := p.database()
	if err != nil {
		return nil
	}
	return db.Files()
}

// Flush persists pending writes.
func (p *Provider) Flush() error {
	db, err := p.database()
	if err != nil {
		return err
	}
	return db.Flush()
}
