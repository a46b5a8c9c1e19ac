package ssg

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// handlers serve every group an instance hosts: a request names its
// group and lookup finds it, nil when the instance has none by that
// name.
type handlers struct {
	lookup func(name string) *Group
}

// groups registers this process's groups, per margo instance and group
// name; an instance's handlers live as long as it hosts a group.
var groups = margo.NewGroups(func(inst *margo.Instance, lookup func(string) *Group) (*margo.RPCSet, error) {
	r := &handlers{lookup}
	return inst.RegisterSet(mercury.AnyProvider, nil,
		margo.RPC{Name: rpcPing, Handler: margo.Serve(r.handlePing)},
		margo.RPC{Name: rpcPingReq, Handler: margo.Serve(r.handlePingReq)},
		margo.RPC{Name: rpcJoin, Handler: margo.Serve(r.handleJoin)},
		margo.RPC{Name: rpcLeave, Handler: margo.Serve(r.handleLeave)},
		margo.RPC{Name: rpcGetView, Handler: margo.Serve(r.handleGetView)},
	)
})

// Stats counts protocol messages, for the E4 experiment.
type Stats struct {
	PingsSent       atomic.Int64
	PingReqsSent    atomic.Int64
	AcksReceived    atomic.Int64
	UpdatesGossiped atomic.Int64
	SuspectsRaised  atomic.Int64
	DeathsDeclared  atomic.Int64
	RefutationsSent atomic.Int64
}

// call is one ping or ping-req on its way to the lane.
type call struct {
	to      int32
	seq     uint64
	addr    string
	rpc     string
	args    codec.Message
	timeout time.Duration
}

// reply is the answer to a kept handle, sent once the lock is released.
type reply struct {
	h   *mercury.Handle
	ack *ackReply
}

// Group is one process's membership in a named SSG group: one Engine on
// a margo.Driver. It owns no protocol state, decides nothing and keeps
// no table of requests: a ping's or ping-req's handle is the tag the
// engine hands back in the ack that answers it. Besides the driver's
// timer loop and notifier (the only caller of membership callbacks), its
// one lane's workers perform pings and ping-reqs, blocking RPCs whose
// reply is the ack. Addresses become IDs, and back, here and nowhere
// else.
type Group struct {
	inst *margo.Instance
	name string
	self string
	drv  *margo.Driver[reply]
	out  *margo.Lane[call]

	// Guarded by the driver's lock.
	tbl       *AddrTable
	eng       *Engine
	callbacks []MembershipCallback
	left      bool

	stats Stats
}

// Create bootstraps membership from a static list of addresses (the
// paper's "bootstrapped from PMIx, MPI, or simply a list of initial
// addresses"): every process calls Create with the same list. The
// local address is added if absent.
func Create(inst *margo.Instance, name string, bootstrap []string, cfg Config) (*Group, error) {
	g := &Group{inst: inst, name: name, self: inst.Addr(), tbl: NewAddrTable()}
	ids := make([]int32, len(bootstrap))
	for i, a := range bootstrap {
		ids[i] = g.tbl.Intern(a)
	}
	rng := rand.New(rand.NewSource(int64(mercury.NameToID(g.self + "/" + name))))
	g.eng = NewEngine(g.tbl, g.tbl.Intern(g.self), ids, cfg, rng, &g.stats, inst.Clock().Now())
	g.drv = margo.NewDriver(inst.Clock(), g.eng, g.dispatch, func(r reply) { margo.Reply(r.h, r.ack) })
	// One worker per RPC a member can have outstanding in a quiet group:
	// its own round's ping and k ping-reqs, and as many relayed pings.
	g.out = margo.NewLane(g.drv, 1+2*g.eng.Config().IndirectPings, g.send)
	if err := groups.Attach(g.inst, g.name, g); err != nil {
		g.drv.Stop(func(time.Time) {})
		return nil, err
	}
	g.drv.Start()
	return g, nil
}

// Join contacts seedAddr, obtains the current view, and joins the
// group (§6: "when adding ... a node, the view will be updated in all
// the service's processes").
func Join(ctx context.Context, inst *margo.Instance, name, seedAddr string, cfg Config) (*Group, error) {
	var reply viewReply
	if err := inst.Call(ctx, seedAddr, rpcJoin, mercury.AnyProvider, &joinArgs{Group: name, Addr: inst.Addr()}, &reply); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrJoinFailed, err)
	}
	if !reply.OK {
		return nil, fmt.Errorf("%w: %s", ErrJoinFailed, reply.Err)
	}
	g, err := Create(inst, name, View{Members: reply.Members}.Alive(), cfg)
	if err != nil {
		return nil, err
	}
	// Announce ourselves so the join propagates even if the seed's
	// gossip is slow.
	g.drv.Step(func(time.Time) { g.eng.AnnounceSelf() })
	return g, nil
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Self returns this process's address.
func (g *Group) Self() string { return g.self }

// Stats returns the protocol counters.
func (g *Group) Stats() *Stats { return &g.stats }

// OnChange registers a membership callback. Callbacks run one at a
// time, in the order the transitions happened, on the group's notifier
// goroutine: a slow one delays the ones behind it (and Stop), never
// the protocol.
func (g *Group) OnChange(cb MembershipCallback) {
	g.drv.Lock()
	g.callbacks = append(g.callbacks, cb)
	g.drv.Unlock()
}

// View returns a snapshot of the membership.
func (g *Group) View() View {
	g.drv.Lock()
	defer g.drv.Unlock()
	return g.eng.View()
}

// Leave departs gracefully: the leave is pushed to a few peers and
// the protocol stops.
func (g *Group) Leave(ctx context.Context) error {
	g.drv.Lock()
	if g.left {
		g.drv.Unlock()
		return ErrLeft
	}
	g.left = true
	_, inc, _ := g.eng.State(g.tbl.Intern(g.self))
	peers := g.eng.View().Alive()
	g.drv.Unlock()
	args := pingArgs{
		Group:   g.name,
		From:    g.self,
		Updates: []Update{{Addr: g.self, Incarnation: inc, State: StateLeft}},
	}
	n := 0
	for _, p := range peers {
		if n < 3 && p != g.self && g.inst.Call(ctx, p, rpcLeave, mercury.AnyProvider, &args, nil) == nil {
			n++
		}
	}
	g.Stop()
	return nil
}

// Stop halts the protocol without announcing departure (a crash, from
// the group's perspective) and waits for the group's goroutines. The
// ping-reqs it still keeps are answered "no".
func (g *Group) Stop() {
	g.drv.Stop(func(time.Time) { g.eng.Surrender() })
	groups.Detach(g.inst, g.name, g)
}

// FetchView retrieves the group view as seen by the member at addr —
// the "explicit function that the application needs to call" strategy
// for clients tracking an elastic service.
func FetchView(ctx context.Context, inst *margo.Instance, addr, name string) (View, error) {
	var reply viewReply
	// Addr empty: just a view request.
	if err := inst.Call(ctx, addr, rpcGetView, mercury.AnyProvider, &joinArgs{Group: name}, &reply); err != nil {
		return View{}, err
	}
	if !reply.OK {
		return View{}, fmt.Errorf("%w: %s", ErrNoSuchGroup, reply.Err)
	}
	v := View{Version: reply.Version, Members: reply.Members}
	sortMembers(v.Members)
	return v, nil
}

// --- stepping the engine ---

// dispatch carries out what the last step asked for: acks answer kept
// handles once the lock is released, pings and ping-reqs go to the lane,
// transitions to the notifier. Caller holds the driver's lock.
func (g *Group) dispatch() {
	eff := g.eng.Take()
	for _, m := range eff.Msgs {
		ups := g.addrs(m.Updates)
		if m.Kind == MsgAck {
			g.drv.Reply(reply{m.Tag.(*mercury.Handle), &ackReply{OK: m.OK, Updates: ups}})
			continue
		}
		c := call{to: m.To, seq: m.Seq, addr: g.tbl.Addr(m.To), timeout: m.Timeout,
			rpc: rpcPing, args: &pingArgs{Group: g.name, From: g.self, Updates: ups}}
		if m.Kind == MsgPingReq {
			c.rpc, c.args = rpcPingReq, &pingReqArgs{Group: g.name, From: g.self, Target: g.tbl.Addr(m.Target), Updates: ups}
		}
		g.out.Post(c)
	}
	for _, t := range eff.Transitions {
		m, cbs := Member{Addr: g.tbl.Addr(t.ID), Incarnation: t.Incarnation, State: t.New}, g.callbacks
		g.drv.Notify(func() {
			for _, cb := range cbs {
				cb(m, t.Old, t.New)
			}
		})
	}
}

// addrs and ids translate assertions at the wire edge: IDs to addresses
// on the way out, addresses interned on the way in. Caller holds the
// driver's lock.
func (g *Group) addrs(ups []IDUpdate) []Update {
	out := make([]Update, len(ups))
	for i, u := range ups {
		out[i] = Update{Addr: g.tbl.Addr(u.ID), Incarnation: u.Incarnation, State: u.State}
	}
	return out
}

func (g *Group) ids(ups []Update) []IDUpdate {
	out := make([]IDUpdate, len(ups))
	for i, u := range ups {
		out[i] = IDUpdate{ID: g.tbl.Intern(u.Addr), Incarnation: u.Incarnation, State: u.State}
	}
	return out
}

// send performs one ping or ping-req. The RPC's reply is the ack; a
// failed RPC is not reported: the engine's own timers cover silence.
func (g *Group) send(c call) {
	ctx, cancel := context.WithTimeout(g.drv.Context(), c.timeout)
	var r ackReply
	err := g.inst.Call(ctx, c.addr, c.rpc, mercury.AnyProvider, c.args, &r)
	cancel()
	if err == nil {
		g.drv.Step(func(now time.Time) { g.eng.Ack(now, c.to, c.seq, r.OK, g.ids(r.Updates)) })
	}
}

// --- RPC handlers (registry level) ---

// kept steps the engine with a ping or ping-req whose handle is its tag,
// and returns without replying: the engine's ack answers it. A stopped
// or unknown group answers "no" at once.
func (g *Group) kept(f func(now time.Time)) (codec.Message, error) {
	if g == nil || !g.drv.Step(f) {
		return &ackReply{}, nil
	}
	return nil, nil
}

func (r *handlers) handlePing(_ context.Context, h *mercury.Handle, args *pingArgs) (codec.Message, error) {
	g := r.lookup(args.Group)
	return g.kept(func(now time.Time) { g.eng.Ping(now, g.tbl.Intern(args.From), h, g.ids(args.Updates)) })
}

func (r *handlers) handlePingReq(_ context.Context, h *mercury.Handle, args *pingReqArgs) (codec.Message, error) {
	g := r.lookup(args.Group)
	return g.kept(func(now time.Time) {
		g.eng.PingReq(now, g.tbl.Intern(args.From), h, g.tbl.Intern(args.Target), g.ids(args.Updates))
	})
}

func (r *handlers) handleJoin(_ context.Context, _ *mercury.Handle, args *joinArgs) (codec.Message, error) {
	g := r.lookup(args.Group)
	if g != nil && args.Addr != "" {
		g.drv.Step(func(now time.Time) {
			up := IDUpdate{ID: g.tbl.Intern(args.Addr), State: StateAlive}
			if _, old, ok := g.eng.State(up.ID); ok {
				up.Incarnation = old + 1
			}
			g.eng.Apply(now, []IDUpdate{up})
		})
	}
	return g.viewReplyNow(), nil
}

func (r *handlers) handleLeave(_ context.Context, _ *mercury.Handle, args *pingArgs) (codec.Message, error) {
	g := r.lookup(args.Group)
	if g != nil {
		g.drv.Step(func(now time.Time) { g.eng.Apply(now, g.ids(args.Updates)) })
	}
	return &ackReply{OK: g != nil}, nil
}

func (r *handlers) handleGetView(_ context.Context, _ *mercury.Handle, args *joinArgs) (codec.Message, error) {
	return r.lookup(args.Group).viewReplyNow(), nil
}

// viewReplyNow is the current view on the wire, or the "no such group"
// refusal for a nil group.
func (g *Group) viewReplyNow() *viewReply {
	if g == nil {
		return &viewReply{Err: "no such group"}
	}
	v := g.View()
	return &viewReply{OK: true, Version: v.Version, Members: v.Members}
}
