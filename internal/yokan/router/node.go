package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"mochi/internal/argobots"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/remi"
	"mochi/internal/trace"
	"mochi/internal/yokan"
)

// shard is one locally resident shard.
type shard struct {
	id uint32
	db yokan.Database

	// mu is the reconfiguration fence: every data operation holds it
	// for read, the flip holds it for write. Acquiring the write lock
	// therefore *is* the drain — it waits out in-flight operations and
	// blocks new ones for the one RTT the promote takes.
	mu      sync.RWMutex
	migID   uint64
	dropped bool // shard moved away; set before removal from the table

	// log is set while the shard moves (set and cleared under mu held
	// for write): every write applied to db is appended to it, and the
	// flip hands it to the destination inside the promote. A write
	// holds logMu across its apply and its append, so log order is
	// apply order.
	log   *codec.Encoder
	logMu sync.Mutex

	ops   atomic.Uint64 // cumulative data operations (load signal)
	bytes atomic.Int64  // approximate resident bytes (data signal)
}

// staging is an incoming shard on the destination, opened by the
// arrival of its snapshot; merged is set once the snapshot is in.
type staging struct {
	migID  uint64
	mu     sync.Mutex
	db     yokan.Database
	merged bool
}

// Options configures a Node.
type Options struct {
	// ProviderID is the router provider's ID. All nodes of one
	// sharded keyspace use the same ID, the way bedrock names a
	// provider consistently across processes. The node's REMI
	// provider, which receives shard snapshots, is ProviderID+1.
	ProviderID uint16
	// Backend templates each shard's database. The "log" backend
	// gets a per-shard path under Dir. Stripe count defaults to 1:
	// shards are already the unit of parallelism here.
	Backend yokan.Config
	// Dir is the node's scratch root (the REMI provider's root,
	// log-backend shards; shard snapshots travel in memory). Empty = a
	// fresh temp directory.
	Dir string
}

// Node serves a slice of the sharded keyspace: it owns some shards'
// databases, redirects traffic for the rest, and implements both ends
// of the migration protocol.
type Node struct {
	inst *margo.Instance
	id   uint16
	opts Options
	dir  string

	rpcs  *margo.RPCSet
	remiP *remi.Provider
	remiC *remi.Client

	// migPool (one pool, one xstream, both created by NewNode) runs
	// every handler that can take milliseconds — the REMI provider's
	// (pull a whole snapshot, open a staging database and merge into
	// it) and abort (destroy one) — so that the data path,
	// which stays on the instance's RPC pool, never queues behind one:
	// ULTs here are closures that run to completion on their xstream.
	migPool *argobots.Pool

	// stop is cancelled by Close; commanded counts the reshards a
	// remote coordinator started (handleReshard), each on a goroutine
	// of its own.
	stop      context.Context
	cancel    context.CancelFunc
	commanded sync.WaitGroup

	cur atomic.Pointer[Map]

	mu       sync.Mutex // guards shards, incoming, closed, snapBuf
	shards   map[uint32]*shard
	incoming map[uint32]*staging
	closed   bool
	// snapBuf is the spare snapshot buffer: a flip encodes into it (it
	// doubles as the registered region REMI exposes) and hands it back,
	// so steady ping-pong encodes into memory already the right size.
	snapBuf []byte

	// Counters exposed through NodeStats.
	redirects  atomic.Uint64
	dualWrites atomic.Uint64
	reshards   atomic.Uint64
}

// NewNode creates a router node. It owns no shards until Adopt gives
// it a map or a migration promotes one onto it. It refuses ProviderID
// 65534 and 65535: ProviderID+1 would be mercury.AnyProvider or 0.
func NewNode(inst *margo.Instance, opts Options) (*Node, error) {
	if opts.ProviderID >= mercury.AnyProvider-1 {
		return nil, fmt.Errorf("router: provider ID %d leaves no REMI provider ID after it", opts.ProviderID)
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "xkv-node-")
		if err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := &Node{
		inst:     inst,
		id:       opts.ProviderID,
		opts:     opts,
		dir:      dir,
		shards:   map[uint32]*shard{},
		incoming: map[uint32]*staging{},
	}
	n.stop, n.cancel = context.WithCancel(context.Background())
	// Online reconfiguration with the paper's own §5 API: the pool and
	// its xstream are added to the running instance, named after the
	// provider so that several nodes can share one instance.
	pool, err := inst.AddPool(argobots.PoolConfig{Name: n.migPoolName()})
	if err != nil {
		return nil, fmt.Errorf("router: migration pool: %w", err)
	}
	n.migPool = pool
	if _, err := inst.AddXstream(argobots.XstreamConfig{
		Name:      n.migXstreamName(),
		Scheduler: argobots.SchedConfig{Pools: []string{pool.Name()}},
	}); err != nil {
		_ = inst.RemovePool(pool.Name())
		return nil, fmt.Errorf("router: migration xstream: %w", err)
	}
	rp, err := remi.NewProvider(inst, opts.ProviderID+1, pool, filepath.Join(dir, "in"))
	if err != nil {
		n.removeMigPool()
		return nil, err
	}
	rp.OnMigrated(n.receiveSnapshot)
	n.remiP = rp
	n.remiC = remi.NewClient(inst)
	if err := n.register(); err != nil {
		rp.Close()
		n.removeMigPool()
		return nil, err
	}
	return n, nil
}

func (n *Node) migPoolName() string    { return fmt.Sprintf("xkv-%d-migration", n.id) }
func (n *Node) migXstreamName() string { return n.migPoolName() + "-es" }

// removeMigPool undoes NewNode's reconfiguration once nothing is
// registered on the pool any more. Errors mean the instance was
// finalized first and took the pool with it.
func (n *Node) removeMigPool() {
	// FIFO barrier: when this ULT has run, every handler queued before
	// the deregistration has too, and the xstream can be removed
	// without stranding work.
	if th, err := n.migPool.Push(func() {}); err == nil {
		th.Join()
	}
	_ = n.inst.RemoveXstream(n.migXstreamName())
	_ = n.inst.RemovePool(n.migPoolName())
}

// register installs the node's RPCs: everything on the instance's RPC
// pool except abort, which destroys a shard database and so belongs on
// the migration pool.
func (n *Node) register() (err error) {
	n.rpcs, err = n.inst.RegisterSet(n.id, nil,
		margo.RPC{Name: RPCPut, Handler: n.serveShard(n.put)},
		margo.RPC{Name: RPCGet, Handler: n.serveShard(n.get)},
		margo.RPC{Name: RPCErase, Handler: n.serveShard(n.erase)},
		margo.RPC{Name: RPCExists, Handler: n.serveShard(n.exists)},
		margo.RPC{Name: RPCCount, Handler: n.serveShard(n.count)},
		margo.RPC{Name: RPCFetchMap, Handler: n.handleFetchMap},
		margo.RPC{Name: RPCInstallMap, Handler: margo.Serve(n.handleInstallMap)},
		margo.RPC{Name: RPCStats, Handler: n.handleStats},
		margo.RPC{Name: RPCReshard, Handler: margo.Serve(n.handleReshard)},
		margo.RPC{Name: RPCMigratePromote, Handler: margo.Serve(n.handlePromote)},
		margo.RPC{Name: RPCMigrateAbort, Pool: n.migPool, Handler: margo.Serve(n.handleAbort)},
	)
	return err
}

// Self returns this node's owner identity.
func (n *Node) Self() Owner { return Owner{Addr: n.inst.Addr(), Provider: n.id} }

// CurrentMap returns the node's view of the shard map (nil before
// bootstrap).
func (n *Node) CurrentMap() *Map { return n.cur.Load() }

// NodeStats reports the node's reconfiguration counters. DualWrites
// counts the writes logged while a shard moved: they reach the
// destination a second time, in the promote.
type NodeStats struct {
	Redirects  uint64
	DualWrites uint64
	Reshards   uint64
}

// Stats returns reconfiguration counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Redirects:  n.redirects.Load(),
		DualWrites: n.dualWrites.Load(),
		Reshards:   n.reshards.Load(),
	}
}

// Adopt installs m as the node's initial map and opens databases for
// the shards it assigns to this node. It is only legal before any map
// is set.
func (n *Node) Adopt(m *Map) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return yokan.ErrClosed
	}
	if n.cur.Load() != nil {
		return fmt.Errorf("router: node already has a map")
	}
	self := n.Self()
	for s, o := range m.Owners {
		if o != self {
			continue
		}
		db, err := n.openShardDB(uint32(s))
		if err != nil {
			return err
		}
		n.shards[uint32(s)] = &shard{id: uint32(s), db: db}
	}
	n.cur.Store(m)
	return nil
}

func (n *Node) openShardDB(shardID uint32) (yokan.Database, error) {
	cfg := n.opts.Backend
	if cfg.Type == "" {
		cfg.Type = "map"
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Type == "log" {
		cfg.Path = filepath.Join(n.dir, fmt.Sprintf("shard-%04d.log", shardID))
	}
	return yokan.Open(cfg)
}

// Close deregisters the node, waits out the migrations it is running,
// removes the pool and xstream NewNode added, and releases its
// databases.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	shards := n.shards
	incoming := n.incoming
	n.shards = map[uint32]*shard{}
	n.incoming = map[uint32]*staging{}
	n.mu.Unlock()
	n.cancel()
	n.rpcs.Close()
	n.remiP.Close()
	n.commanded.Wait()
	n.removeMigPool()
	for _, sh := range shards {
		sh.mu.Lock()
		sh.dropped = true
		sh.db.Close()
		sh.mu.Unlock()
	}
	for _, inc := range incoming {
		inc.mu.Lock()
		inc.db.Close()
		inc.mu.Unlock()
	}
	return nil
}

// lookupShard resolves the target shard for a data operation. nil
// means the caller must redirect (reply already prepared).
func (n *Node) lookupShard(shardID uint32) *shard {
	n.mu.Lock()
	sh := n.shards[shardID]
	n.mu.Unlock()
	return sh
}

// redirect fills an opReply for a shard this node does not serve:
// statusStale plus our current map if we have one (the retryable
// redirect carrying the new map), statusRetry if we believe we *are*
// the owner but the shard is not resident yet (bootstrap or flip
// races — transient), statusError if the node has no map at all.
func (n *Node) redirect(shardID uint32, r *opReply) {
	m := n.cur.Load()
	if m == nil {
		r.Status = statusError
		r.Err = "router: node has no shard map"
		return
	}
	if int(shardID) < len(m.Owners) && m.Owners[shardID] == n.Self() {
		r.Status = statusRetry
		r.Err = "router: shard arriving"
		return
	}
	n.redirects.Add(1)
	r.Status = statusStale
	r.Map = EncodeMap(m)
}

func statusFromErr(err error) (uint8, string) {
	switch {
	case err == nil:
		return statusOK, ""
	case yokan.IsNotFound(err):
		return statusNotFound, ""
	default:
		return statusError, err.Error()
	}
}

// serveShard binds one data operation: it resolves the shard the
// client routed to, runs op under the shard's read lock (the
// reconfiguration fence) and answers with op's outcome, or with a
// redirect when the shard is not, or no longer, served here.
func (n *Node) serveShard(op func(ctx context.Context, sh *shard, args *opArgs, r *opReply) error) margo.Handler {
	return margo.Serve(func(ctx context.Context, _ *mercury.Handle, args *opArgs) (codec.Message, error) {
		r := &opReply{}
		if sh := n.lookupShard(args.Shard); sh != nil {
			sh.mu.RLock()
			if !sh.dropped {
				err := op(ctx, sh, args, r)
				sh.mu.RUnlock()
				r.Status, r.Err = statusFromErr(err)
				return r, nil
			}
			sh.mu.RUnlock()
		}
		n.redirect(args.Shard, r)
		return r, nil
	})
}

// put applies a put to the local shard, logging it while the shard
// moves.
func (n *Node) put(_ context.Context, sh *shard, args *opArgs, _ *opReply) (err error) {
	if sh.log != nil {
		sh.logMu.Lock()
		defer sh.logMu.Unlock()
	}
	var delta int64
	for _, kv := range args.Pairs {
		if err = sh.db.Put(kv.Key, kv.Value); err != nil {
			break
		}
		if sh.log != nil {
			n.dualWrites.Add(1)
			logPut(sh.log, kv.Key, kv.Value)
		}
		delta += int64(len(kv.Key) + len(kv.Value))
	}
	sh.ops.Add(1)
	sh.bytes.Add(delta)
	return err
}

// erase removes keys from the local shard, logging each erase while the
// shard moves.
func (n *Node) erase(_ context.Context, sh *shard, args *opArgs, _ *opReply) (err error) {
	if sh.log != nil {
		sh.logMu.Lock()
		defer sh.logMu.Unlock()
	}
	for _, k := range args.Keys {
		if err = sh.db.Erase(k); err != nil {
			break
		}
		if sh.log != nil {
			n.dualWrites.Add(1)
			logErase(sh.log, k)
		}
	}
	sh.ops.Add(1)
	return err
}

func (n *Node) get(_ context.Context, sh *shard, args *opArgs, r *opReply) (err error) {
	sh.ops.Add(1)
	if len(args.Keys) != 1 {
		return fmt.Errorf("router: get wants exactly one key")
	}
	r.Value, err = sh.db.Get(args.Keys[0])
	return err
}

func (n *Node) exists(_ context.Context, sh *shard, args *opArgs, r *opReply) (err error) {
	sh.ops.Add(1)
	if len(args.Keys) != 1 {
		return fmt.Errorf("router: exists wants exactly one key")
	}
	r.Found, err = sh.db.Exists(args.Keys[0])
	return err
}

func (n *Node) count(_ context.Context, sh *shard, _ *opArgs, r *opReply) error {
	c, err := sh.db.Count()
	r.Count = uint64(c)
	return err
}

func (n *Node) handleFetchMap(_ context.Context, h *mercury.Handle) {
	var r mapReply
	if m := n.cur.Load(); m != nil {
		r.Map = EncodeMap(m)
	} else {
		r.Status = statusError
		r.Err = "router: node has no shard map"
	}
	margo.Reply(h, &r)
}

// status is the reply of a control RPC that returns no payload.
func status(err error) (codec.Message, error) {
	r := &statusReply{}
	r.Status, r.Err = statusFromErr(err)
	return r, nil
}

func (n *Node) handleInstallMap(_ context.Context, _ *mercury.Handle, args *installArgs) (codec.Message, error) {
	m, err := DecodeMap(args.Map)
	if err == nil {
		mergeInto(&n.cur, m)
	}
	return status(err)
}

func (n *Node) handleStats(_ context.Context, h *mercury.Handle) {
	var r statsReply
	n.mu.Lock()
	for _, sh := range n.shards {
		b := sh.bytes.Load()
		if b < 0 {
			b = 0
		}
		r.Stats = append(r.Stats, ShardStat{Shard: sh.id, Ops: sh.ops.Load(), Bytes: uint64(b)})
	}
	n.mu.Unlock()
	margo.Reply(h, &r)
}

// handleReshard lets a remote coordinator (the balancer) command
// this node to move one of its shards. The handler only starts the
// migration: a Reshard lasts a whole flip and waits on the
// destination's migration xstream, so run as a ULT it would stall the
// pool it sat on — the RPC pool, and this node serves nothing for the
// flip; the migration pool, and two nodes commanded toward each other
// each hold the xstream the other's snapshot needs, until pullTimeout.
// It runs on a goroutine of its own, which keeps the handle and answers
// the RPC when done; the flip's phases are children of the RPC's server
// span, which the handle ends at that answer.
func (n *Node) handleReshard(ctx context.Context, h *mercury.Handle, args *reshardArgs) (codec.Message, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return status(errors.New("router: node closed"))
	}
	n.commanded.Add(1) // under mu: Close waits only after setting closed
	n.mu.Unlock()
	ctx = trace.NewContext(ctx, h.Span())
	go func() {
		defer n.commanded.Done()
		// Close cancels the migration.
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		defer context.AfterFunc(n.stop, cancel)()
		var r statusReply
		if err := n.Reshard(ctx, args.Shard, args.Dst); err != nil {
			r.Status, r.Err = statusError, err.Error()
		}
		margo.Reply(h, &r)
	}()
	return nil, nil
}

// handlePromote commits the flip on the destination: the source's log
// is replayed on top of the merged snapshot, the staging area becomes
// the owned shard, and the attached map (which names this node the
// owner) is merged into the node's *before* the source stops serving —
// the ordering that makes the redirect chain always land. The replay
// runs under n.mu and inc.mu, so a duplicate promote finds either the
// staging area untouched or the shard installed, never half a replay.
func (n *Node) handlePromote(_ context.Context, _ *mercury.Handle, args *promoteArgs) (codec.Message, error) {
	m, err := DecodeMap(args.Map)
	if err != nil {
		return status(err)
	}
	n.mu.Lock()
	if sh := n.shards[args.Shard]; sh != nil && sh.migID == args.MigID {
		// Duplicate promote (retried RPC): already committed.
		n.mu.Unlock()
		mergeInto(&n.cur, m)
		return status(nil)
	}
	inc := n.incoming[args.Shard]
	if inc == nil || inc.migID != args.MigID {
		n.mu.Unlock()
		return status(errors.New("router: no such migration"))
	}
	inc.mu.Lock()
	if inc.merged {
		_, err = replay(inc.db, codec.NewDecoder(args.Log), math.MaxInt)
	} else {
		err = errors.New("router: snapshot not merged")
	}
	inc.mu.Unlock()
	if err != nil {
		n.mu.Unlock()
		return status(err)
	}
	delete(n.incoming, args.Shard)
	n.shards[args.Shard] = &shard{id: args.Shard, db: inc.db, migID: args.MigID}
	n.mu.Unlock()
	mergeInto(&n.cur, m)
	return status(nil)
}

// handleAbort tears down a staging area after a failed migration. It
// destroys the area under n.mu, as an arrival does: on the log backend
// every staging area of a shard has the same file, which an arrival
// must not reopen before the dead attempt's copy is removed.
func (n *Node) handleAbort(_ context.Context, _ *mercury.Handle, args *abortArgs) (codec.Message, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if inc := n.incoming[args.Shard]; inc != nil && inc.migID == args.MigID {
		delete(n.incoming, args.Shard)
		inc.destroy()
	}
	return status(nil)
}

// destroy drops a staging area's database once no merge batch holds it.
func (inc *staging) destroy() {
	inc.mu.Lock()
	inc.db.Destroy()
	inc.mu.Unlock()
}

// mergeBatchKeys bounds how many snapshot entries one hold of a staging
// area's lock merges, and so how long the processor goes without a
// yield, and a promote or an abort waits, behind a merge.
const mergeBatchKeys = 256

// testHookMerge, when non-nil, runs on the migration xstream after a
// snapshot has arrived and before it is merged.
var testHookMerge func()

// receiveSnapshot is the REMI arrival callback: it opens the shard's
// staging area and merges the snapshot into it. Later writes are in the
// source's log, which the promote replays on top.
func (n *Node) receiveSnapshot(ctx context.Context, fs *remi.FileSet) {
	if fs.Class != snapshotClass || len(fs.Files) == 0 {
		return
	}
	shardID, migID, err := parseSnapshotMeta(fs.Metadata)
	if err != nil {
		return
	}
	inc := n.openStaging(shardID, migID)
	if inc == nil {
		return
	}
	if testHookMerge != nil {
		testHookMerge()
	}
	_, sp := n.phase(ctx, "merge")
	d := codec.NewDecoder(fs.Files[0].Data)
	for done := false; !done && err == nil; {
		done, err = mergeBatch(inc, d, mergeBatchKeys)
		// A ULT is a closure: nothing else preempts a merge for
		// milliseconds. Yielding between batches lets the goroutines
		// of the data path (readers, the RPC xstream) run on this
		// processor, as a yielding Argobots ULT would.
		runtime.Gosched()
	}
	sp.End(n.inst.Clock().Now(), err != nil) // an error leaves merged unset: promote refuses, the source aborts
}

// openStaging opens the staging area an arrival merges into; nil keeps
// no state (node closed, shard owned, duplicate delivery, or a database
// that did not open: the promote then finds no such migration). An area
// under another migration ID is a dead attempt — one move of a shard at
// a time, and its arrival precedes its promote — so it is torn down.
func (n *Node) openStaging(shardID uint32, migID uint64) *staging {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, own := n.shards[shardID]; own || n.closed {
		return nil
	}
	if inc := n.incoming[shardID]; inc != nil {
		if inc.migID == migID {
			return nil
		}
		delete(n.incoming, shardID)
		inc.destroy()
	}
	db, err := n.openShardDB(shardID)
	if err != nil {
		return nil
	}
	inc := &staging{migID: migID, db: db}
	n.incoming[shardID] = inc
	return inc
}

// mergeBatch replays up to max entries of an encoded shard snapshot
// into the staging database under one hold of the staging lock. After
// the last entry it marks the staging area merged and reports done.
func mergeBatch(inc *staging, d *codec.Decoder, max int) (done bool, err error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if done, err = replay(inc.db, d, max); done {
		inc.merged = true
	}
	return done, err
}

// A moving shard's log and a shard snapshot share one encoding: a
// sequence of entries, each an erase flag, a key and — for a put — a
// value. A snapshot is a log of puts; replay applies either.

func logPut(e *codec.Encoder, key, value []byte) {
	e.Bool(false)
	e.BytesField(key)
	e.BytesField(value)
}

func logErase(e *codec.Encoder, key []byte) {
	e.Bool(true)
	e.BytesField(key)
}

// replay applies up to max entries of an encoded log to db, in order,
// and reports whether it reached the end. Erasing an absent key is not
// an error: the snapshot may never have seen the key the log erases.
func replay(db yokan.Database, d *codec.Decoder, max int) (done bool, err error) {
	for i := 0; i < max && d.Remaining() > 0; i++ {
		erase, k := d.Bool(), d.BytesField()
		var v []byte
		if !erase {
			v = d.BytesField()
		}
		if d.Err() != nil {
			return false, d.Err()
		}
		if erase {
			if err := db.Erase(k); err != nil && !yokan.IsNotFound(err) {
				return false, err
			}
		} else if err := db.Put(k, v); err != nil {
			return false, err
		}
	}
	return d.Remaining() == 0, nil
}
