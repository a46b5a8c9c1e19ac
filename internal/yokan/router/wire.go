package router

import (
	"mochi/internal/codec"
	"mochi/internal/yokan"
)

// RPC names used by the sharded keyspace. Exported so tools can
// monitor them.
const (
	RPCPut    = "xkv_put"
	RPCGet    = "xkv_get"
	RPCErase  = "xkv_erase"
	RPCExists = "xkv_exists"
	RPCCount  = "xkv_count"

	RPCFetchMap   = "xkv_fetch_map"
	RPCInstallMap = "xkv_install_map"
	RPCStats      = "xkv_stats"
	RPCReshard    = "xkv_reshard"

	RPCMigratePromote = "xkv_mig_promote"
	RPCMigrateAbort   = "xkv_mig_abort"
)

// Status codes carried in replies. The two beyond yokan's convention
// implement the reconfiguration protocol: statusStale is the
// retryable redirect of the paper's reconfigurable-service story (it
// carries the server's current map so the client lands correctly on
// the next attempt), and statusRetry marks the sub-RTT flip window in
// which the server can neither serve (the shard is leaving) nor
// redirect (the new map is not yet committed).
const (
	statusOK       = 0
	statusNotFound = 1
	statusError    = 2
	statusStale    = 3
	statusRetry    = 4
)

// opArgs is the argument frame of every data RPC: the shard the
// client routed to, plus the keys or pairs. Servers route by (Shard,
// local ownership). Decoded slices alias the decoder's buffer.
type opArgs struct {
	Shard uint32
	Keys  [][]byte         // get/erase/exists
	Pairs []yokan.KeyValue // put
}

func (a *opArgs) Proc(p *codec.Proc) {
	p.Uint32(&a.Shard)
	codec.Slice(p, &a.Keys, (*codec.Proc).Bytes)
	yokan.ProcPairs(p, &a.Pairs)
}

// procStatus is how every reply begins.
func procStatus(p *codec.Proc, status *uint8, err *string) {
	p.Uint8(status)
	p.String(err)
}

// opReply answers every data RPC. Map is only set with statusStale.
type opReply struct {
	Status uint8
	Err    string
	Found  bool
	Value  []byte
	Count  uint64
	Map    []byte
}

func (r *opReply) Proc(p *codec.Proc) {
	procStatus(p, &r.Status, &r.Err)
	p.Bool(&r.Found)
	p.Bytes(&r.Value)
	p.Uvarint(&r.Count)
	p.Bytes(&r.Map)
}

// mapReply answers RPCFetchMap.
type mapReply struct {
	Status uint8
	Err    string
	Map    []byte
}

func (r *mapReply) Proc(p *codec.Proc) {
	procStatus(p, &r.Status, &r.Err)
	p.Bytes(&r.Map)
}

// installArgs carries a map for the node to merge into its own.
type installArgs struct {
	Map []byte
}

func (a *installArgs) Proc(p *codec.Proc) { p.Bytes(&a.Map) }

// statusReply answers control RPCs that return no payload.
type statusReply struct {
	Status uint8
	Err    string
}

func (r *statusReply) Proc(p *codec.Proc) { procStatus(p, &r.Status, &r.Err) }

// promoteArgs commits the flip at the destination: Log, the writes the
// source applied while the shard moved, is replayed on top of the
// snapshot, the staging area becomes the owned shard and the attached
// map is merged into the destination's.
type promoteArgs struct {
	Shard uint32
	MigID uint64
	Map   []byte
	Log   []byte
}

func (a *promoteArgs) Proc(p *codec.Proc) {
	p.Uint32(&a.Shard)
	p.Uint64(&a.MigID)
	p.Bytes(&a.Map)
	p.Bytes(&a.Log)
}

// abortArgs tears down a staging area after a failed migration.
type abortArgs struct {
	Shard uint32
	MigID uint64
}

func (a *abortArgs) Proc(p *codec.Proc) {
	p.Uint32(&a.Shard)
	p.Uint64(&a.MigID)
}

// reshardArgs asks a node to move one of its shards to dst.
type reshardArgs struct {
	Shard uint32
	Dst   Owner
}

func (a *reshardArgs) Proc(p *codec.Proc) {
	p.Uint32(&a.Shard)
	procOwner(p, &a.Dst)
}

// ShardStat is one shard's load sample as reported by RPCStats:
// cumulative operation count and resident bytes. The balancer diffs
// consecutive Ops samples to estimate load.
type ShardStat struct {
	Shard uint32
	Ops   uint64
	Bytes uint64
}

// statsReply answers RPCStats with one entry per locally owned shard.
type statsReply struct {
	Status uint8
	Err    string
	Stats  []ShardStat
}

func (r *statsReply) Proc(p *codec.Proc) {
	procStatus(p, &r.Status, &r.Err)
	codec.Slice(p, &r.Stats, func(p *codec.Proc, s *ShardStat) {
		p.Uint32(&s.Shard)
		p.Uvarint(&s.Ops)
		p.Uvarint(&s.Bytes)
	})
}
