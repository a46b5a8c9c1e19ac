package ssg

import "mochi/internal/codec"

// RPC names. Groups are multiplexed by name inside the payload so any
// number of groups can share one margo instance.
const (
	rpcPing    = "ssg_ping"
	rpcPingReq = "ssg_ping_req"
	rpcJoin    = "ssg_join"
	rpcLeave   = "ssg_leave"
	rpcGetView = "ssg_get_view"
)

// Update is the wire form of a gossiped membership assertion: "Addr is
// in this state at this incarnation" (IDUpdate inside the engine) —
// the same triple a view lists per member.
type Update = Member

func encodeUpdates(e *codec.Encoder, ups []Update) {
	e.Uvarint(uint64(len(ups)))
	for _, u := range ups {
		e.String(u.Addr)
		e.Uint64(u.Incarnation)
		e.Uint8(uint8(u.State))
	}
}

func decodeUpdates(d *codec.Decoder) []Update {
	n := d.Count(10) // per update: address length, incarnation, state
	ups := make([]Update, 0, n)
	for i := 0; i < n; i++ {
		var u Update
		u.Addr = d.String()
		u.Incarnation = d.Uint64()
		u.State = State(d.Uint8())
		if d.Err() != nil {
			return nil
		}
		ups = append(ups, u)
	}
	return ups
}

type pingArgs struct {
	Group   string
	From    string
	Updates []Update
}

func (a *pingArgs) MarshalMochi(e *codec.Encoder) {
	e.String(a.Group)
	e.String(a.From)
	encodeUpdates(e, a.Updates)
}

func (a *pingArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Group = d.String()
	a.From = d.String()
	a.Updates = decodeUpdates(d)
}

type ackReply struct {
	OK      bool
	Updates []Update
}

func (r *ackReply) MarshalMochi(e *codec.Encoder) {
	e.Bool(r.OK)
	encodeUpdates(e, r.Updates)
}

func (r *ackReply) UnmarshalMochi(d *codec.Decoder) {
	r.OK = d.Bool()
	r.Updates = decodeUpdates(d)
}

type pingReqArgs struct {
	Group   string
	From    string
	Target  string
	Updates []Update
}

func (a *pingReqArgs) MarshalMochi(e *codec.Encoder) {
	e.String(a.Group)
	e.String(a.From)
	e.String(a.Target)
	encodeUpdates(e, a.Updates)
}

func (a *pingReqArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Group = d.String()
	a.From = d.String()
	a.Target = d.String()
	a.Updates = decodeUpdates(d)
}

type joinArgs struct {
	Group string
	Addr  string
}

func (a *joinArgs) MarshalMochi(e *codec.Encoder) {
	e.String(a.Group)
	e.String(a.Addr)
}

func (a *joinArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Group = d.String()
	a.Addr = d.String()
}

type viewReply struct {
	OK      bool
	Err     string
	Version uint64
	Members []Member
}

func (r *viewReply) MarshalMochi(e *codec.Encoder) {
	e.Bool(r.OK)
	e.String(r.Err)
	e.Uint64(r.Version)
	encodeUpdates(e, r.Members)
}

func (r *viewReply) UnmarshalMochi(d *codec.Decoder) {
	r.OK = d.Bool()
	r.Err = d.String()
	r.Version = d.Uint64()
	r.Members = decodeUpdates(d)
}
