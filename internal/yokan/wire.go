package yokan

import "mochi/internal/codec"

// RPC names used by the component. Exported so tools can monitor them.
const (
	RPCPut           = "yokan_put"
	RPCPutMulti      = "yokan_put_multi"
	RPCGet           = "yokan_get"
	RPCGetMulti      = "yokan_get_multi"
	RPCErase         = "yokan_erase"
	RPCExists        = "yokan_exists"
	RPCCount         = "yokan_count"
	RPCListKeys      = "yokan_list_keys"
	RPCListKeyValues = "yokan_list_keyvals"
	RPCGetConfig     = "yokan_get_config"
)

// Wire message types. Status codes: 0 OK, 1 key-not-found, 2 other
// error (message in Err).
//
// Decode ownership (DESIGN.md "Hot-path memory discipline"): every byte
// field below is a Bytes, never a BytesCopy — both directions alias the
// underlying buffer instead of copying. Reply types are decoded
// client-side from the Forward result, which the caller owns and never
// recycles. Argument types are decoded server-side from a request
// buffer that mercury recycles only after the handler responds; the
// Database contract forbids implementations from retaining key/value
// slices beyond the call, and every handler finishes its database
// calls before responding, so aliasing is safe and the decode path
// allocates nothing per byte slice.

type putArgs struct {
	Pairs []KeyValue
}

func (a *putArgs) Proc(p *codec.Proc) { ProcPairs(p, &a.Pairs) }

// ProcPairs is the wire and disk form of a pair list, here and wherever
// else pairs travel (the router's data RPCs, the raft KV snapshot).
func ProcPairs(p *codec.Proc, pairs *[]KeyValue) {
	codec.Slice(p, pairs, func(p *codec.Proc, kv *KeyValue) {
		p.Bytes(&kv.Key)
		p.Bytes(&kv.Value)
	})
}

type keysArgs struct {
	Keys [][]byte
}

func (a *keysArgs) Proc(p *codec.Proc) { codec.Slice(p, &a.Keys, (*codec.Proc).Bytes) }

type listArgs struct {
	FromKey []byte
	HasFrom bool
	Prefix  []byte
	Max     uint32
}

func (a *listArgs) Proc(p *codec.Proc) {
	p.Bool(&a.HasFrom)
	p.Bytes(&a.FromKey)
	p.Bytes(&a.Prefix)
	p.Uint32(&a.Max)
}

// procStatus is how every reply begins.
func procStatus(p *codec.Proc, status *uint8, err *string) {
	p.Uint8(status)
	p.String(err)
}

type statusReply struct {
	Status uint8
	Err    string
}

func (r *statusReply) Proc(p *codec.Proc) { procStatus(p, &r.Status, &r.Err) }

type valueReply struct {
	Status uint8
	Err    string
	Value  []byte
}

func (r *valueReply) Proc(p *codec.Proc) {
	procStatus(p, &r.Status, &r.Err)
	p.Bytes(&r.Value)
}

type valuesReply struct {
	Status uint8
	Err    string
	// Found marks which requested keys existed (GetMulti).
	Found  []bool
	Values [][]byte
}

// Proc carries the two parallel slices as one list of (found, value)
// elements.
func (r *valuesReply) Proc(p *codec.Proc) {
	procStatus(p, &r.Status, &r.Err)
	type result struct {
		found bool
		value []byte
	}
	var results []result
	if !p.Decoding() {
		results = make([]result, len(r.Found))
		for i := range results {
			results[i] = result{r.Found[i], r.Values[i]}
		}
	}
	codec.Slice(p, &results, func(p *codec.Proc, e *result) {
		p.Bool(&e.found)
		p.Bytes(&e.value)
	})
	if p.Decoding() {
		r.Found, r.Values = make([]bool, len(results)), make([][]byte, len(results))
		for i, e := range results {
			r.Found[i], r.Values[i] = e.found, e.value
		}
	}
}

type boolReply struct {
	Status uint8
	Err    string
	Value  bool
}

func (r *boolReply) Proc(p *codec.Proc) {
	procStatus(p, &r.Status, &r.Err)
	p.Bool(&r.Value)
}

type countReply struct {
	Status uint8
	Err    string
	Count  uint64
}

func (r *countReply) Proc(p *codec.Proc) {
	procStatus(p, &r.Status, &r.Err)
	p.Uvarint(&r.Count)
}

type kvListReply struct {
	Status uint8
	Err    string
	Pairs  []KeyValue
}

func (r *kvListReply) Proc(p *codec.Proc) {
	procStatus(p, &r.Status, &r.Err)
	ProcPairs(p, &r.Pairs)
}
