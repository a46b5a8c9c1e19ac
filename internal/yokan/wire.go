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
// Decode ownership (DESIGN.md "Hot-path memory discipline"): both
// directions alias the underlying buffer instead of copying. Reply
// types are decoded client-side from the Forward result, which the
// caller owns and never recycles. Argument types are decoded
// server-side from a request buffer that mercury recycles only after
// the handler responds; the Database contract forbids implementations
// from retaining key/value slices beyond the call, and every handler
// finishes its database calls before responding, so aliasing is safe
// and the decode path allocates nothing per byte slice.

type putArgs struct {
	Pairs []KeyValue
}

func (a *putArgs) MarshalMochi(e *codec.Encoder) {
	e.Uvarint(uint64(len(a.Pairs)))
	for _, kv := range a.Pairs {
		e.BytesField(kv.Key)
		e.BytesField(kv.Value)
	}
}

func (a *putArgs) UnmarshalMochi(d *codec.Decoder) {
	n := d.Count(2)
	a.Pairs = make([]KeyValue, 0, n)
	for i := 0; i < n; i++ {
		k := d.BytesField()
		v := d.BytesField()
		if d.Err() != nil {
			return
		}
		a.Pairs = append(a.Pairs, KeyValue{Key: k, Value: v})
	}
}

type keysArgs struct {
	Keys [][]byte
}

func (a *keysArgs) MarshalMochi(e *codec.Encoder) {
	e.Uvarint(uint64(len(a.Keys)))
	for _, k := range a.Keys {
		e.BytesField(k)
	}
}

func (a *keysArgs) UnmarshalMochi(d *codec.Decoder) {
	n := d.Count(1)
	a.Keys = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		a.Keys = append(a.Keys, d.BytesField())
		if d.Err() != nil {
			return
		}
	}
}

type listArgs struct {
	FromKey []byte
	HasFrom bool
	Prefix  []byte
	Max     uint32
}

func (a *listArgs) MarshalMochi(e *codec.Encoder) {
	e.Bool(a.HasFrom)
	e.BytesField(a.FromKey)
	e.BytesField(a.Prefix)
	e.Uint32(a.Max)
}

func (a *listArgs) UnmarshalMochi(d *codec.Decoder) {
	a.HasFrom = d.Bool()
	a.FromKey = d.BytesField()
	a.Prefix = d.BytesField()
	a.Max = d.Uint32()
}

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

type valueReply struct {
	Status uint8
	Err    string
	Value  []byte
}

func (r *valueReply) MarshalMochi(e *codec.Encoder) {
	e.Uint8(r.Status)
	e.String(r.Err)
	e.BytesField(r.Value)
}

func (r *valueReply) UnmarshalMochi(d *codec.Decoder) {
	r.Status = d.Uint8()
	r.Err = d.String()
	r.Value = d.BytesField()
}

type valuesReply struct {
	Status uint8
	Err    string
	// Found marks which requested keys existed (GetMulti).
	Found  []bool
	Values [][]byte
}

func (r *valuesReply) MarshalMochi(e *codec.Encoder) {
	e.Uint8(r.Status)
	e.String(r.Err)
	e.Uvarint(uint64(len(r.Found)))
	for i := range r.Found {
		e.Bool(r.Found[i])
		e.BytesField(r.Values[i])
	}
}

func (r *valuesReply) UnmarshalMochi(d *codec.Decoder) {
	r.Status = d.Uint8()
	r.Err = d.String()
	n := d.Count(2)
	r.Found = make([]bool, 0, n)
	r.Values = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		r.Found = append(r.Found, d.Bool())
		r.Values = append(r.Values, d.BytesField())
		if d.Err() != nil {
			return
		}
	}
}

type boolReply struct {
	Status uint8
	Err    string
	Value  bool
}

func (r *boolReply) MarshalMochi(e *codec.Encoder) {
	e.Uint8(r.Status)
	e.String(r.Err)
	e.Bool(r.Value)
}

func (r *boolReply) UnmarshalMochi(d *codec.Decoder) {
	r.Status = d.Uint8()
	r.Err = d.String()
	r.Value = d.Bool()
}

type countReply struct {
	Status uint8
	Err    string
	Count  uint64
}

func (r *countReply) MarshalMochi(e *codec.Encoder) {
	e.Uint8(r.Status)
	e.String(r.Err)
	e.Uvarint(r.Count)
}

func (r *countReply) UnmarshalMochi(d *codec.Decoder) {
	r.Status = d.Uint8()
	r.Err = d.String()
	r.Count = d.Uvarint()
}

type kvListReply struct {
	Status uint8
	Err    string
	Pairs  []KeyValue
}

func (r *kvListReply) MarshalMochi(e *codec.Encoder) {
	e.Uint8(r.Status)
	e.String(r.Err)
	e.Uvarint(uint64(len(r.Pairs)))
	for _, kv := range r.Pairs {
		e.BytesField(kv.Key)
		e.BytesField(kv.Value)
	}
}

func (r *kvListReply) UnmarshalMochi(d *codec.Decoder) {
	r.Status = d.Uint8()
	r.Err = d.String()
	n := d.Count(2)
	r.Pairs = make([]KeyValue, 0, n)
	for i := 0; i < n; i++ {
		k := d.BytesField()
		v := d.BytesField()
		if d.Err() != nil {
			return
		}
		r.Pairs = append(r.Pairs, KeyValue{Key: k, Value: v})
	}
}
