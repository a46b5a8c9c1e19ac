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

// procUpdates is the list of assertions every SWIM message ends with.
func procUpdates(p *codec.Proc, ups *[]Update) {
	codec.Slice(p, ups, func(p *codec.Proc, u *Update) {
		p.String(&u.Addr)
		p.Uint64(&u.Incarnation)
		p.Uint8((*uint8)(&u.State))
	})
}

type pingArgs struct {
	Group   string
	From    string
	Updates []Update
}

func (a *pingArgs) Proc(p *codec.Proc) {
	p.String(&a.Group)
	p.String(&a.From)
	procUpdates(p, &a.Updates)
}

type ackReply struct {
	OK      bool
	Updates []Update
}

func (r *ackReply) Proc(p *codec.Proc) {
	p.Bool(&r.OK)
	procUpdates(p, &r.Updates)
}

type pingReqArgs struct {
	Group   string
	From    string
	Target  string
	Updates []Update
}

func (a *pingReqArgs) Proc(p *codec.Proc) {
	p.String(&a.Group)
	p.String(&a.From)
	p.String(&a.Target)
	procUpdates(p, &a.Updates)
}

type joinArgs struct {
	Group string
	Addr  string
}

func (a *joinArgs) Proc(p *codec.Proc) {
	p.String(&a.Group)
	p.String(&a.Addr)
}

type viewReply struct {
	OK      bool
	Err     string
	Version uint64
	Members []Member
}

func (r *viewReply) Proc(p *codec.Proc) {
	p.Bool(&r.OK)
	p.String(&r.Err)
	p.Uint64(&r.Version)
	procUpdates(p, &r.Members)
}
