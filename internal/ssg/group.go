package ssg

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/clock"
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

// call is one ping or ping-req on its way to a sender.
type call struct {
	to      int32
	seq     uint64
	addr    string
	rpc     string
	args    codec.Message
	timeout time.Duration
}

// reply is the answer to a kept handle, sent once mu is released.
type reply struct {
	h   *mercury.Handle
	ack *ackReply
}

// change is one transition on its way to the membership callbacks.
type change struct {
	m        Member
	old, new State
}

// Group is one process's membership in a named SSG group: the driver
// of one Engine. It owns no protocol state and decides nothing. mu
// serializes every step of the engine and guards the driver's tables
// and the address table. Three kinds of goroutine exist, all started
// by create and joined by Stop: the timer loop, the senders (a ping or
// ping-req is a blocking RPC whose reply is the ack), and the notifier,
// the only caller of membership callbacks. Addresses become IDs, and
// back, here and nowhere else.
type Group struct {
	inst *margo.Instance
	clk  clock.Clock
	name string
	self string

	mu        sync.Mutex
	tbl       *AddrTable
	eng       *Engine
	callbacks []MembershipCallback
	left      bool
	// handles are the pings and ping-reqs the engine has not answered
	// yet, by the number this driver gave them: the wire carries none,
	// the RPC pairs request and reply. A ping-req's handle waits here
	// for the relayed ping's outcome while its execution stream is free.
	handles map[uint64]*mercury.Handle
	hseq    uint64
	changes []change  // not yet delivered, in order
	armed   time.Time // the deadline the timer loop sleeps on

	out    chan call     // to the senders; full means lost, as on any datagram fabric
	notify chan struct{} // buffered(1): changes is non-empty
	rearm  chan struct{} // buffered(1): the engine's deadline moved earlier

	ctx      context.Context // cancelled by Stop
	cancel   context.CancelFunc
	stopOnce sync.Once
	wg       sync.WaitGroup

	stats Stats
}

// Create bootstraps membership from a static list of addresses (the
// paper's "bootstrapped from PMIx, MPI, or simply a list of initial
// addresses"): every process calls Create with the same list. The
// local address is added if absent.
func Create(inst *margo.Instance, name string, bootstrap []string, cfg Config) (*Group, error) {
	g := &Group{
		inst:    inst,
		clk:     inst.Clock(),
		name:    name,
		self:    inst.Addr(),
		tbl:     NewAddrTable(),
		handles: map[uint64]*mercury.Handle{},
		notify:  make(chan struct{}, 1),
		rearm:   make(chan struct{}, 1),
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	ids := make([]int32, len(bootstrap))
	for i, a := range bootstrap {
		ids[i] = g.tbl.Intern(a)
	}
	rng := rand.New(rand.NewSource(int64(mercury.NameToID(g.self + "/" + name))))
	g.eng = NewEngine(g.tbl, g.tbl.Intern(g.self), ids, cfg, rng, &g.stats, g.clk.Now())
	// One sender per RPC a member can have outstanding in a quiet group:
	// its own round's ping and k ping-reqs, and as many relayed pings.
	senders := 1 + 2*g.eng.Config().IndirectPings
	g.out = make(chan call, senders)
	if err := groups.Attach(g.inst, g.name, g); err != nil {
		g.cancel()
		return nil, err
	}
	g.wg.Add(2 + senders)
	go g.timerLoop()
	go g.notifier()
	for i := 0; i < senders; i++ {
		go g.sender()
	}
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
	g.step(func(e *Engine, _ time.Time) { e.AnnounceSelf() })
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
	g.mu.Lock()
	g.callbacks = append(g.callbacks, cb)
	g.mu.Unlock()
}

// View returns a snapshot of the membership.
func (g *Group) View() View {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.eng.View()
}

// Leave departs gracefully: the leave is pushed to a few peers and
// the protocol stops.
func (g *Group) Leave(ctx context.Context) error {
	g.mu.Lock()
	if g.left {
		g.mu.Unlock()
		return ErrLeft
	}
	g.left = true
	_, inc, _ := g.eng.State(g.tbl.Intern(g.self))
	peers := g.eng.View().Alive()
	g.mu.Unlock()
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
// the group's perspective) and waits for the group's goroutines.
func (g *Group) Stop() {
	g.stopOnce.Do(func() {
		g.cancel() // no step runs from here on
		g.mu.Lock()
		var unanswered []reply
		for seq, h := range g.handles {
			unanswered = append(unanswered, reply{h, &ackReply{}})
			delete(g.handles, seq)
		}
		g.mu.Unlock()
		send(unanswered)
	})
	g.wg.Wait()
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

// step runs one engine input under mu and carries out its effects. A
// stopped group runs nothing and reports false.
func (g *Group) step(f func(e *Engine, now time.Time)) bool {
	g.mu.Lock()
	if g.ctx.Err() != nil {
		g.mu.Unlock()
		return false
	}
	f(g.eng, g.clk.Now())
	replies := g.dispatch()
	g.mu.Unlock()
	send(replies)
	return true
}

// dispatch carries out what the last step asked for, except for the
// answers to kept handles, which it returns: they go out once mu is
// released. Caller holds mu.
func (g *Group) dispatch() []reply {
	eff := g.eng.Take()
	var replies []reply
	for _, m := range eff.Msgs {
		ups := g.addrs(m.Updates)
		if m.Kind == MsgAck {
			if h := g.handles[m.Seq]; h != nil {
				delete(g.handles, m.Seq)
				replies = append(replies, reply{h, &ackReply{OK: m.OK, Updates: ups}})
			}
			continue
		}
		c := call{to: m.To, seq: m.Seq, addr: g.tbl.Addr(m.To), timeout: m.Timeout,
			rpc: rpcPing, args: &pingArgs{Group: g.name, From: g.self, Updates: ups}}
		if m.Kind == MsgPingReq {
			c.rpc, c.args = rpcPingReq, &pingReqArgs{Group: g.name, From: g.self, Target: g.tbl.Addr(m.Target), Updates: ups}
		}
		select {
		case g.out <- c:
		default:
		}
	}
	for _, t := range eff.Transitions {
		g.changes = append(g.changes, change{Member{Addr: g.tbl.Addr(t.ID), Incarnation: t.Incarnation, State: t.New}, t.Old, t.New})
	}
	if len(g.changes) > 0 {
		signal(g.notify)
	}
	if g.eng.Deadline().Before(g.armed) {
		signal(g.rearm)
	}
	return replies
}

func send(replies []reply) {
	for _, r := range replies {
		margo.Reply(r.h, r.ack)
	}
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// addrs and ids translate assertions at the wire edge: IDs to addresses
// on the way out, addresses interned on the way in. Caller holds mu.
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

// timerLoop sleeps until the engine's deadline and ticks it.
func (g *Group) timerLoop() {
	defer g.wg.Done()
	t := g.clk.NewTimer(time.Hour)
	defer t.Stop()
	for {
		var wait time.Duration
		if !g.step(func(e *Engine, now time.Time) {
			if !e.Deadline().After(now) {
				e.Tick(now)
			}
			g.armed = e.Deadline()
			wait = g.armed.Sub(now)
		}) {
			return
		}
		t.Reset(wait)
		select {
		case <-t.C():
		case <-g.rearm:
		case <-g.ctx.Done():
			return
		}
	}
}

// sender performs the engine's pings and ping-reqs. The RPC's reply is
// the ack; a failed RPC is not reported: the engine's own timers cover
// silence.
func (g *Group) sender() {
	defer g.wg.Done()
	for {
		select {
		case <-g.ctx.Done():
			return
		case c := <-g.out:
			ctx, cancel := context.WithTimeout(g.ctx, c.timeout)
			var r ackReply
			err := g.inst.Call(ctx, c.addr, c.rpc, mercury.AnyProvider, c.args, &r)
			cancel()
			if err == nil {
				g.step(func(e *Engine, now time.Time) { e.Ack(now, c.to, c.seq, r.OK, g.ids(r.Updates)) })
			}
		}
	}
}

// notifier delivers transitions to the membership callbacks, in order.
func (g *Group) notifier() {
	defer g.wg.Done()
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-g.notify:
		}
		g.mu.Lock()
		changes, cbs := g.changes, g.callbacks // callbacks only ever grows: the header is a snapshot
		g.changes = nil
		g.mu.Unlock()
		for _, c := range changes {
			for _, cb := range cbs {
				cb(c.m, c.old, c.new)
			}
		}
	}
}

// --- RPC handlers (registry level) ---

// keep registers h as unanswered and runs f with the number the
// engine's ack will carry. The handler that called it returns without
// replying; a stopped or unknown group answers "no" at once.
func (g *Group) keep(h *mercury.Handle, f func(e *Engine, now time.Time, seq uint64)) (codec.Message, error) {
	if g == nil || !g.step(func(e *Engine, now time.Time) {
		g.hseq++
		g.handles[g.hseq] = h
		f(e, now, g.hseq)
	}) {
		return &ackReply{}, nil
	}
	return nil, nil
}

func (r *handlers) handlePing(_ context.Context, h *mercury.Handle, args *pingArgs) (codec.Message, error) {
	g := r.lookup(args.Group)
	return g.keep(h, func(e *Engine, now time.Time, seq uint64) {
		e.Ping(now, g.tbl.Intern(args.From), seq, g.ids(args.Updates))
	})
}

func (r *handlers) handlePingReq(_ context.Context, h *mercury.Handle, args *pingReqArgs) (codec.Message, error) {
	g := r.lookup(args.Group)
	return g.keep(h, func(e *Engine, now time.Time, seq uint64) {
		e.PingReq(now, g.tbl.Intern(args.From), seq, g.tbl.Intern(args.Target), g.ids(args.Updates))
	})
}

func (r *handlers) handleJoin(_ context.Context, _ *mercury.Handle, args *joinArgs) (codec.Message, error) {
	g := r.lookup(args.Group)
	if g != nil && args.Addr != "" {
		g.step(func(e *Engine, now time.Time) {
			up := IDUpdate{ID: g.tbl.Intern(args.Addr), State: StateAlive}
			if _, old, ok := e.State(up.ID); ok {
				up.Incarnation = old + 1
			}
			e.Apply(now, []IDUpdate{up})
		})
	}
	return g.viewReplyNow(), nil
}

func (r *handlers) handleLeave(_ context.Context, _ *mercury.Handle, args *pingArgs) (codec.Message, error) {
	g := r.lookup(args.Group)
	if g != nil {
		g.step(func(e *Engine, now time.Time) { e.Apply(now, g.ids(args.Updates)) })
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
