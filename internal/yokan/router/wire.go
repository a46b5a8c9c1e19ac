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

	RPCMigratePrepare = "xkv_mig_prepare"
	RPCMigrateStage   = "xkv_mig_stage"
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

// opArgs is the argument frame of every data RPC: the client's map
// epoch and the shard it routed to, plus the keys or pairs. Servers
// route by (Shard, local ownership); Epoch is diagnostic and lets a
// server distinguish a stale client from a corrupted one.
type opArgs struct {
	Epoch uint64
	Shard uint32
	Keys  [][]byte         // get/erase/exists
	Pairs []yokan.KeyValue // put
}

func (a *opArgs) MarshalMochi(e *codec.Encoder) {
	e.Uint64(a.Epoch)
	e.Uint32(a.Shard)
	encodeKeysPairs(e, a.Keys, a.Pairs)
}

func (a *opArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Epoch = d.Uint64()
	a.Shard = d.Uint32()
	a.Keys, a.Pairs = decodeKeysPairs(d)
}

// encodeKeysPairs and decodeKeysPairs are the payload shared by opArgs
// and stageArgs: a key list (get/erase/exists) then a pair list (put).
// Decoded slices alias the decoder's buffer; an empty list decodes as
// nil.
func encodeKeysPairs(e *codec.Encoder, keys [][]byte, pairs []yokan.KeyValue) {
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.BytesField(k)
	}
	e.Uvarint(uint64(len(pairs)))
	for _, kv := range pairs {
		e.BytesField(kv.Key)
		e.BytesField(kv.Value)
	}
}

func decodeKeysPairs(d *codec.Decoder) (keys [][]byte, pairs []yokan.KeyValue) {
	if n := d.Count(1); n > 0 {
		keys = make([][]byte, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			keys = append(keys, d.BytesField())
		}
	}
	if n := d.Count(2); n > 0 {
		pairs = make([]yokan.KeyValue, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			pairs = append(pairs, yokan.KeyValue{Key: d.BytesField(), Value: d.BytesField()})
		}
	}
	return keys, pairs
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

func (r *opReply) MarshalMochi(e *codec.Encoder) {
	e.Uint8(r.Status)
	e.String(r.Err)
	e.Bool(r.Found)
	e.BytesField(r.Value)
	e.Uvarint(r.Count)
	e.BytesField(r.Map)
}

func (r *opReply) UnmarshalMochi(d *codec.Decoder) {
	r.Status = d.Uint8()
	r.Err = d.String()
	r.Found = d.Bool()
	r.Value = d.BytesField()
	r.Count = d.Uvarint()
	r.Map = d.BytesField()
}

// mapReply answers RPCFetchMap.
type mapReply struct {
	Status uint8
	Err    string
	Map    []byte
}

func (r *mapReply) MarshalMochi(e *codec.Encoder) {
	e.Uint8(r.Status)
	e.String(r.Err)
	e.BytesField(r.Map)
}

func (r *mapReply) UnmarshalMochi(d *codec.Decoder) {
	r.Status = d.Uint8()
	r.Err = d.String()
	r.Map = d.BytesField()
}

// installArgs carries a map to install. Bootstrap additionally asks
// the node to open empty databases for shards the new map assigns to
// it — legal only while the node has no map yet (cluster bring-up);
// during normal operation shard databases are created exclusively by
// the migration protocol.
type installArgs struct {
	Bootstrap bool
	Map       []byte
}

func (a *installArgs) MarshalMochi(e *codec.Encoder) {
	e.Bool(a.Bootstrap)
	e.BytesField(a.Map)
}

func (a *installArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Bootstrap = d.Bool()
	a.Map = d.BytesField()
}

// statusReply answers control RPCs that return no payload.
type statusReply struct {
	Status uint8
	Err    string
}

func (r *statusReply) MarshalMochi(e *codec.Encoder) {
	e.Uint8(r.Status)
	e.String(r.Err)
}

func (r *statusReply) UnmarshalMochi(d *codec.Decoder) {
	r.Status = d.Uint8()
	r.Err = d.String()
}

// prepareArgs opens a staging area for shard at the destination.
type prepareArgs struct {
	Shard uint32
	MigID uint64
}

func (a *prepareArgs) MarshalMochi(e *codec.Encoder) {
	e.Uint32(a.Shard)
	e.Uint64(a.MigID)
}

func (a *prepareArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Shard = d.Uint32()
	a.MigID = d.Uint64()
}

// prepareReply tells the source which REMI provider to ship the
// snapshot to.
type prepareReply struct {
	Status       uint8
	Err          string
	RemiProvider uint16
}

func (r *prepareReply) MarshalMochi(e *codec.Encoder) {
	e.Uint8(r.Status)
	e.String(r.Err)
	e.Uint16(r.RemiProvider)
}

func (r *prepareReply) UnmarshalMochi(d *codec.Decoder) {
	r.Status = d.Uint8()
	r.Err = d.String()
	r.RemiProvider = d.Uint16()
}

// stageArgs forwards one write of the dual-write window to the
// destination: puts carry Pairs, erases carry Keys with Erase set.
// Seq orders the stream per migration: transports deliver
// at-least-once and out of order (a delayed duplicate can arrive
// after a newer write to the same key), so the staging side applies
// an operation to a key only if its Seq exceeds the last one applied
// there.
type stageArgs struct {
	Shard uint32
	MigID uint64
	Seq   uint64
	Erase bool
	Keys  [][]byte
	Pairs []yokan.KeyValue
}

func (a *stageArgs) MarshalMochi(e *codec.Encoder) {
	e.Uint32(a.Shard)
	e.Uint64(a.MigID)
	e.Uvarint(a.Seq)
	e.Bool(a.Erase)
	encodeKeysPairs(e, a.Keys, a.Pairs)
}

func (a *stageArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Shard = d.Uint32()
	a.MigID = d.Uint64()
	a.Seq = d.Uvarint()
	a.Erase = d.Bool()
	a.Keys, a.Pairs = decodeKeysPairs(d)
}

// promoteArgs commits the flip at the destination: the staging area
// becomes the owned shard and the attached map becomes current.
type promoteArgs struct {
	Shard uint32
	MigID uint64
	Map   []byte
}

func (a *promoteArgs) MarshalMochi(e *codec.Encoder) {
	e.Uint32(a.Shard)
	e.Uint64(a.MigID)
	e.BytesField(a.Map)
}

func (a *promoteArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Shard = d.Uint32()
	a.MigID = d.Uint64()
	a.Map = d.BytesField()
}

// abortArgs tears down a staging area after a failed migration.
type abortArgs struct {
	Shard uint32
	MigID uint64
}

func (a *abortArgs) MarshalMochi(e *codec.Encoder) {
	e.Uint32(a.Shard)
	e.Uint64(a.MigID)
}

func (a *abortArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Shard = d.Uint32()
	a.MigID = d.Uint64()
}

// reshardArgs asks a node to move one of its shards to dst.
type reshardArgs struct {
	Shard uint32
	Dst   Owner
}

func (a *reshardArgs) MarshalMochi(e *codec.Encoder) {
	e.Uint32(a.Shard)
	e.String(a.Dst.Addr)
	e.Uint16(a.Dst.Provider)
}

func (a *reshardArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Shard = d.Uint32()
	a.Dst.Addr = d.String()
	a.Dst.Provider = d.Uint16()
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
	Epoch  uint64
	Stats  []ShardStat
}

func (r *statsReply) MarshalMochi(e *codec.Encoder) {
	e.Uint8(r.Status)
	e.String(r.Err)
	e.Uint64(r.Epoch)
	e.Uvarint(uint64(len(r.Stats)))
	for _, s := range r.Stats {
		e.Uint32(s.Shard)
		e.Uvarint(s.Ops)
		e.Uvarint(s.Bytes)
	}
}

func (r *statsReply) UnmarshalMochi(d *codec.Decoder) {
	r.Status = d.Uint8()
	r.Err = d.String()
	r.Epoch = d.Uint64()
	n := d.Count(6) // uint32 + two varints
	r.Stats = make([]ShardStat, 0, n)
	for i := 0; i < n; i++ {
		var s ShardStat
		s.Shard = d.Uint32()
		s.Ops = d.Uvarint()
		s.Bytes = d.Uvarint()
		if d.Err() != nil {
			return
		}
		r.Stats = append(r.Stats, s)
	}
}
