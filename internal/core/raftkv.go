package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/raft"
	"mochi/internal/yokan"
)

// RaftKV is the paper's composable-consensus example (§7,
// Observation 11): "multiple Yokan providers could use a Mochi-RAFT
// instance as a dependency to ensure that the content of their
// key-value databases is consistent." Each member runs a local yokan
// database as the Raft state machine; clients submit commands through
// the Raft log, so all replicas apply the same operations in the same
// order. Yokan itself is unaware of the replication — the composable
// design the paper argues for.

// kvCommand ops. The numbers are part of the log format (a FileStore
// outlives the binary that wrote it): never renumber.
const (
	kvOpPut uint8 = iota
	kvOpErase
	// kvOpGet is the ReadIndex query op (kvFSM.Read); it is never
	// proposed. Logs written when gets could still travel through the
	// log may hold such entries: applying one reports an error.
	kvOpGet
)

type kvCommand struct {
	Op uint8
	// CID/Seq identify the client session and its operation number for
	// at-most-once semantics. The raft client (and the margo resilience
	// layer under it) retries a command when a reply is lost, so the
	// same command can reach the log twice; without dedup a duplicate
	// Put re-applied after an interleaving write resurrects the old
	// value — a real linearizability violation the simulation harness
	// flags (see internal/core/linearize_test.go). The FSM caches the
	// last (Seq, result) per CID and replays the cached result for a
	// duplicate instead of re-applying.
	CID   string
	Seq   uint64
	Key   []byte
	Value []byte
}

func (c *kvCommand) Proc(p *codec.Proc) {
	p.Uint8(&c.Op)
	p.String(&c.CID)
	p.Uvarint(&c.Seq)
	p.BytesCopy(&c.Key)
	p.BytesCopy(&c.Value)
}

type kvResult struct {
	Status uint8 // 0 ok, 1 not found, 2 error
	Err    string
	Value  []byte
}

func (r *kvResult) Proc(p *codec.Proc) {
	p.Uint8(&r.Status)
	p.String(&r.Err)
	p.BytesCopy(&r.Value)
}

// kvSession is the at-most-once state for one client: the highest
// operation number applied and its cached result. Each client has at
// most one outstanding operation, so one slot per client suffices
// (the Raft dissertation's session scheme, §6.3).
type kvSession struct {
	Seq    uint64
	Result []byte
}

// kvFSM adapts a yokan.Database to raft.FSM. It also implements
// raft.BatchFSM (the applier hands a whole committed run over under
// one lock acquisition) and raft.ReaderFSM (ReadIndex gets bypass the
// log; mu lets those reads run concurrently with each other while
// excluding the applier).
type kvFSM struct {
	mu       sync.RWMutex
	db       yokan.Database
	sessions map[string]kvSession
}

// Apply implements raft.FSM.
func (f *kvFSM) Apply(_ uint64, cmd []byte) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applyOne(cmd)
}

// ApplyBatch implements raft.BatchFSM: one lock acquisition covers the
// whole committed run instead of one per command.
func (f *kvFSM) ApplyBatch(cmds []raft.Command) [][]byte {
	results := make([][]byte, len(cmds))
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, c := range cmds {
		results[i] = f.applyOne(c.Data)
	}
	return results
}

// Read implements raft.ReaderFSM: a ReadIndex query is a kvCommand
// with no CID/Seq — reads have no side effects, so they never touch
// the session table.
func (f *kvFSM) Read(query []byte) []byte {
	var c kvCommand
	if err := codec.Unmarshal(query, &c); err != nil {
		return codec.Marshal(&kvResult{Status: 2, Err: err.Error()})
	}
	var res kvResult
	f.mu.RLock()
	v, err := f.db.Get(c.Key)
	f.mu.RUnlock()
	switch err {
	case nil:
		res.Value = v
	case yokan.ErrKeyNotFound:
		res.Status = 1
	default:
		res.Status, res.Err = 2, err.Error()
	}
	return codec.Marshal(&res)
}

// applyOne executes one committed command; caller holds mu.
func (f *kvFSM) applyOne(cmd []byte) []byte {
	var c kvCommand
	if err := codec.Unmarshal(cmd, &c); err != nil {
		return codec.Marshal(&kvResult{Status: 2, Err: err.Error()})
	}
	if c.CID != "" {
		if s, ok := f.sessions[c.CID]; ok && c.Seq <= s.Seq {
			// Duplicate delivery of an already-applied command: replay
			// the cached result instead of re-executing. (Seq < s.Seq
			// cannot happen with blocking clients, but replying with
			// the newer cached result is still safe — the older reply
			// was already delivered or abandoned.)
			return s.Result
		}
	}
	var res kvResult
	switch c.Op {
	case kvOpPut:
		if err := f.db.Put(c.Key, c.Value); err != nil {
			res.Status, res.Err = 2, err.Error()
		}
	case kvOpErase:
		switch err := f.db.Erase(c.Key); err {
		case nil:
		case yokan.ErrKeyNotFound:
			res.Status = 1
		default:
			res.Status, res.Err = 2, err.Error()
		}
	default:
		// Not a command this state machine applies (kvOpGet replayed
		// from an old log, or a number from a newer binary): every
		// replica answers the same error and leaves the database alone.
		res.Status, res.Err = 2, fmt.Sprintf("unknown command op %d", c.Op)
	}
	out := codec.Marshal(&res)
	if c.CID != "" {
		if f.sessions == nil {
			f.sessions = map[string]kvSession{}
		}
		f.sessions[c.CID] = kvSession{Seq: c.Seq, Result: out}
	}
	return out
}

// kvSnapshot is the state machine as raft stores and ships it. The
// session table is part of it: a replica restored from a snapshot must
// still recognize duplicates of commands the snapshot already covers.
type kvSnapshot struct {
	Pairs    []yokan.KeyValue
	Sessions []snapshotSession // by CID: the same state is the same bytes
}

type snapshotSession struct {
	CID string
	kvSession
}

func (s *kvSnapshot) Proc(p *codec.Proc) {
	yokan.ProcPairs(p, &s.Pairs)
	codec.Slice(p, &s.Sessions, func(p *codec.Proc, e *snapshotSession) {
		p.String(&e.CID)
		p.Uvarint(&e.Seq)
		p.BytesCopy(&e.Result)
	})
}

// Snapshot implements raft.FSM.
func (f *kvFSM) Snapshot() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	kvs, err := f.db.ListKeyValues(nil, nil, 0)
	if err != nil {
		return nil, err
	}
	snap := kvSnapshot{Pairs: kvs}
	for cid, s := range f.sessions {
		snap.Sessions = append(snap.Sessions, snapshotSession{cid, s})
	}
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].CID < snap.Sessions[j].CID })
	return codec.Marshal(&snap), nil
}

// Restore implements raft.FSM.
func (f *kvFSM) Restore(raw []byte) error {
	var snap kvSnapshot
	if err := codec.Unmarshal(raw, &snap); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Clear the database by erasing all keys, then load the snapshot.
	keys, err := f.db.ListKeys(nil, nil, 0)
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := f.db.Erase(k); err != nil && err != yokan.ErrKeyNotFound {
			return err
		}
	}
	for _, kv := range snap.Pairs {
		if err := f.db.Put(kv.Key, kv.Value); err != nil {
			return err
		}
	}
	f.sessions = make(map[string]kvSession, len(snap.Sessions))
	for _, s := range snap.Sessions {
		f.sessions[s.CID] = s.kvSession
	}
	return nil
}

// NewRaftKVNode starts one member of a Raft-replicated key-value
// group: the given database becomes the member's state machine.
func NewRaftKVNode(inst *margo.Instance, group string, peers []string, store raft.Store, db yokan.Database, cfg raft.Config) (*raft.Node, error) {
	return raft.NewNode(inst, group, peers, store, &kvFSM{db: db}, cfg)
}

// RaftKVClient performs replicated KV operations from any process.
// Each client is one at-most-once session: operations carry (CID, Seq)
// so retried commands are deduplicated by the FSM.
type RaftKVClient struct {
	rc  *raft.Client
	cid string
	seq uint64
}

// kvClientCtr disambiguates multiple clients on one instance address.
var kvClientCtr uint64

// NewRaftKVClient creates a client for the replicated KV group.
func NewRaftKVClient(inst *margo.Instance, group string, seeds []string) *RaftKVClient {
	cid := fmt.Sprintf("%s#%d", inst.Addr(), atomic.AddUint64(&kvClientCtr, 1))
	return &RaftKVClient{rc: raft.NewClient(inst, group, seeds), cid: cid}
}

func (c *RaftKVClient) do(ctx context.Context, cmd kvCommand) (*kvResult, error) {
	cmd.CID = c.cid
	cmd.Seq = atomic.AddUint64(&c.seq, 1)
	out, err := c.rc.Apply(ctx, codec.Marshal(&cmd))
	if err != nil {
		return nil, err
	}
	return decodeKVResult(out)
}

// decodeKVResult decodes a state-machine reply, turning an error
// status into an error.
func decodeKVResult(out []byte) (*kvResult, error) {
	var res kvResult
	if err := codec.Unmarshal(out, &res); err != nil {
		return nil, err
	}
	if res.Status == 2 {
		return nil, fmt.Errorf("core: raft kv: %s", res.Err)
	}
	return &res, nil
}

// Put stores a pair through the Raft log.
func (c *RaftKVClient) Put(ctx context.Context, key, value []byte) error {
	_, err := c.do(ctx, kvCommand{Op: kvOpPut, Key: key, Value: value})
	return err
}

// Get reads linearizably through raft.Client.Read: no log entry, no
// fsync — the leader answers from the state machine under its lease, or
// after confirming leadership with one heartbeat quorum round (shared
// across concurrent reads). The query carries no CID/Seq: reads have no
// side effects, so they need no at-most-once session bookkeeping.
func (c *RaftKVClient) Get(ctx context.Context, key []byte) ([]byte, error) {
	out, err := c.rc.Read(ctx, codec.Marshal(&kvCommand{Op: kvOpGet, Key: key}))
	if err != nil {
		return nil, err
	}
	res, err := decodeKVResult(out)
	if err != nil {
		return nil, err
	}
	if res.Status == 1 {
		return nil, yokan.ErrKeyNotFound
	}
	return res.Value, nil
}

// Erase removes a key through the log.
func (c *RaftKVClient) Erase(ctx context.Context, key []byte) error {
	res, err := c.do(ctx, kvCommand{Op: kvOpErase, Key: key})
	if err != nil {
		return err
	}
	if res.Status == 1 {
		return yokan.ErrKeyNotFound
	}
	return nil
}
