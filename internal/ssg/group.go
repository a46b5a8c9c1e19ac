package ssg

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"mochi/internal/clock"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// registry maps group names to groups within one margo instance, so
// all groups share one set of RPC handlers. It exists exactly as long
// as the instance hosts a group: the first group installs the handlers,
// the last one to stop removes them and the registry with them, so a
// finalized instance is not kept reachable from here.
type registry struct {
	rpcs *margo.RPCSet

	mu     sync.Mutex // guards groups
	groups map[string]*Group
}

var (
	registriesMu sync.Mutex // serializes attach/detach, handler install included
	registries   = map[*margo.Instance]*registry{}
)

// attach enters g into its instance's registry, installing the RPC
// handlers first if g is the instance's only group. A failed install
// leaves nothing behind.
func attach(g *Group) error {
	registriesMu.Lock()
	defer registriesMu.Unlock()
	reg := registries[g.inst]
	if reg == nil {
		reg = &registry{groups: map[string]*Group{}}
		var err error
		reg.rpcs, err = g.inst.RegisterSet(mercury.AnyProvider, nil,
			margo.RPC{Name: rpcPing, Handler: margo.Serve(reg.handlePing)},
			margo.RPC{Name: rpcPingReq, Handler: margo.Serve(reg.handlePingReq)},
			margo.RPC{Name: rpcJoin, Handler: margo.Serve(reg.handleJoin)},
			margo.RPC{Name: rpcLeave, Handler: margo.Serve(reg.handleLeave)},
			margo.RPC{Name: rpcGetView, Handler: margo.Serve(reg.handleGetView)},
		)
		if err != nil {
			return err
		}
		registries[g.inst] = reg
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.groups[g.name]; dup {
		return fmt.Errorf("ssg: group %q already exists on %s", g.name, g.self)
	}
	reg.groups[g.name] = g
	return nil
}

// detach removes g from its registry and, if it was the last group on
// the instance, the handlers and the registry too.
func detach(g *Group) {
	registriesMu.Lock()
	defer registriesMu.Unlock()
	reg := registries[g.inst]
	if reg == nil {
		return
	}
	reg.mu.Lock()
	if reg.groups[g.name] == g {
		delete(reg.groups, g.name)
	}
	empty := len(reg.groups) == 0
	reg.mu.Unlock()
	if empty {
		reg.rpcs.Close()
		delete(registries, g.inst)
	}
}

func (r *registry) lookup(name string) *Group {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.groups[name]
}

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

// Group is one process's membership in a named SSG group. All protocol
// rules live in Engine (engine.go); Group owns the transport, the
// goroutines, and the mutex that serializes engine access.
type Group struct {
	inst *margo.Instance
	clk  clock.Clock
	name string
	cfg  Config
	self string

	mu        sync.Mutex
	eng       *Engine
	callbacks []MembershipCallback
	left      bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	stats Stats
}

// Create bootstraps membership from a static list of addresses (the
// paper's "bootstrapped from PMIx, MPI, or simply a list of initial
// addresses"): every process calls Create with the same list. The
// local address is added if absent.
func Create(inst *margo.Instance, name string, bootstrap []string, cfg Config) (*Group, error) {
	return create(inst, name, bootstrap, cfg, inst.Clock())
}

func create(inst *margo.Instance, name string, bootstrap []string, cfg Config, clk clock.Clock) (*Group, error) {
	g := &Group{
		inst: inst,
		clk:  clk,
		name: name,
		cfg:  cfg.withDefaults(),
		self: inst.Addr(),
		stop: make(chan struct{}),
	}
	rng := rand.New(rand.NewSource(int64(mercury.NameToID(inst.Addr() + "/" + name))))
	g.eng = NewEngine(NewAddrTable(), g.self, bootstrap, g.cfg, clk, rng, &g.stats)
	// The hook fires inside engine calls, which always run under g.mu;
	// callback fan-out moves to a goroutine so callbacks never observe
	// (or deadlock on) the group lock.
	g.eng.SetTransitionHook(func(m Member, old, new State) {
		cbs := append([]MembershipCallback(nil), g.callbacks...)
		go func() {
			for _, cb := range cbs {
				cb(m, old, new)
			}
		}()
	})
	if err := attach(g); err != nil {
		return nil, err
	}

	g.wg.Add(1)
	go g.protocolLoop()
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
	var addrs []string
	for _, m := range reply.Members {
		if State(m.State) == StateAlive || State(m.State) == StateSuspect {
			addrs = append(addrs, m.Addr)
		}
	}
	g, err := create(inst, name, addrs, cfg, inst.Clock())
	if err != nil {
		return nil, err
	}
	// Announce ourselves so the join propagates even if the seed's
	// gossip is slow.
	g.mu.Lock()
	g.eng.AnnounceSelf()
	g.mu.Unlock()
	return g, nil
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Self returns this process's address.
func (g *Group) Self() string { return g.self }

// Stats returns the protocol counters.
func (g *Group) Stats() *Stats { return &g.stats }

// OnChange registers a membership callback. Callbacks run on protocol
// goroutines and must not block.
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
	inc := g.eng.SelfIncarnation()
	peers := g.eng.AlivePeers()
	g.mu.Unlock()
	args := pingArgs{
		Group:   g.name,
		From:    g.self,
		Updates: []Update{{Addr: g.self, Incarnation: inc, State: StateLeft}},
	}
	n := 0
	for _, p := range peers {
		if n >= 3 {
			break
		}
		if g.inst.Call(ctx, p, rpcLeave, mercury.AnyProvider, &args, nil) == nil {
			n++
		}
	}
	g.Stop()
	return nil
}

// Stop halts the protocol without announcing departure (a crash, from
// the group's perspective).
func (g *Group) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	detach(g)
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
	v := View{Version: reply.Version}
	for _, m := range reply.Members {
		v.Members = append(v.Members, Member{Addr: m.Addr, Incarnation: m.Incarnation, State: State(m.State)})
	}
	sortMembers(v.Members)
	return v, nil
}

// --- protocol internals ---

func (g *Group) protocolLoop() {
	defer g.wg.Done()
	tick := g.clk.NewTicker(g.cfg.ProtocolPeriod)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C():
			g.expireSuspicions()
			target := g.nextProbeTarget()
			if target != "" {
				g.wg.Add(1)
				go func() {
					defer g.wg.Done()
					g.probe(target)
				}()
			}
		}
	}
}

// nextProbeTarget implements SWIM's randomized round-robin.
func (g *Group) nextProbeTarget() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	t, ok := g.eng.NextProbeTarget()
	if !ok {
		return ""
	}
	return t
}

// probe runs one SWIM probe sequence against target.
func (g *Group) probe(target string) {
	if g.pingDirect(target) {
		return
	}
	// Indirect probes through k random peers.
	g.mu.Lock()
	vias := g.eng.IndirectViaAddrs(target, g.cfg.IndirectPings)
	g.mu.Unlock()
	acked := make(chan bool, g.cfg.IndirectPings)
	for _, p := range vias {
		go func(p string) { acked <- g.pingIndirect(p, target) }(p)
	}
	deadline := g.clk.NewTimer(g.cfg.ProtocolPeriod - g.cfg.PingTimeout)
	defer deadline.Stop()
	for i := 0; i < len(vias); i++ {
		select {
		case ok := <-acked:
			if ok {
				return
			}
		case <-deadline.C():
			g.suspect(target)
			return
		case <-g.stop:
			return
		}
	}
	g.suspect(target)
}

func (g *Group) pingDirect(target string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.PingTimeout)
	defer cancel()
	args := pingArgs{Group: g.name, From: g.self, Updates: g.takeGossip()}
	g.stats.PingsSent.Add(1)
	var reply ackReply
	if err := g.inst.Call(ctx, target, rpcPing, mercury.AnyProvider, &args, &reply); err != nil || !reply.OK {
		return false
	}
	g.stats.AcksReceived.Add(1)
	// A direct ack is first-hand evidence of life: resurrect a member
	// we believed dead (its refutation gossip will follow with a
	// higher incarnation).
	g.mu.Lock()
	g.eng.NoteAck(target)
	g.mu.Unlock()
	g.applyUpdates(reply.Updates)
	return true
}

func (g *Group) pingIndirect(via, target string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProtocolPeriod-g.cfg.PingTimeout)
	defer cancel()
	args := pingReqArgs{Group: g.name, From: g.self, Target: target, Updates: g.takeGossip()}
	g.stats.PingReqsSent.Add(1)
	var reply ackReply
	if err := g.inst.Call(ctx, via, rpcPingReq, mercury.AnyProvider, &args, &reply); err != nil {
		return false
	}
	g.applyUpdates(reply.Updates)
	return reply.OK
}

// suspect marks target as suspected and gossips it.
func (g *Group) suspect(target string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.eng.Suspect(target)
}

func (g *Group) expireSuspicions() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.eng.ExpireSuspicions()
}

// takeGossip selects up to PiggybackLimit updates to send.
func (g *Group) takeGossip() []Update {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.eng.TakeGossip()
}

// applyUpdates folds received membership assertions into local state
// (the SWIM update rules with incarnation numbers).
func (g *Group) applyUpdates(ups []Update) {
	if len(ups) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.eng.Apply(ups)
}

// --- RPC handlers (registry level) ---

func (r *registry) handlePing(_ context.Context, _ *mercury.Handle, args *pingArgs) (codec.Marshaler, error) {
	g := r.lookup(args.Group)
	if g == nil {
		return &ackReply{}, nil
	}
	g.applyUpdates(args.Updates)
	ups := g.takeGossip()
	// If we believe the pinger is dead (e.g. it was partitioned away
	// and declared failed), tell it so: it will refute with a higher
	// incarnation and be resurrected across the group, the SWIM
	// mechanism for recovering from false positives.
	g.mu.Lock()
	ups = append(ups, g.eng.PingExtras(args.From)...)
	g.mu.Unlock()
	return &ackReply{OK: true, Updates: ups}, nil
}

func (r *registry) handlePingReq(_ context.Context, _ *mercury.Handle, args *pingReqArgs) (codec.Marshaler, error) {
	g := r.lookup(args.Group)
	if g == nil {
		return &ackReply{}, nil
	}
	g.applyUpdates(args.Updates)
	ok := g.pingDirect(args.Target)
	return &ackReply{OK: ok, Updates: g.takeGossip()}, nil
}

func (r *registry) handleJoin(_ context.Context, _ *mercury.Handle, args *joinArgs) (codec.Marshaler, error) {
	g := r.lookup(args.Group)
	if g != nil && args.Addr != "" {
		g.mu.Lock()
		inc := uint64(0)
		if old, ok := g.eng.Incarnation(args.Addr); ok {
			inc = old + 1
		}
		g.eng.ApplyOne(Update{Addr: args.Addr, Incarnation: inc, State: StateAlive})
		g.mu.Unlock()
	}
	return g.viewReplyNow(), nil
}

func (r *registry) handleLeave(_ context.Context, _ *mercury.Handle, args *pingArgs) (codec.Marshaler, error) {
	g := r.lookup(args.Group)
	if g != nil {
		g.applyUpdates(args.Updates)
	}
	return &ackReply{OK: g != nil}, nil
}

func (r *registry) handleGetView(_ context.Context, _ *mercury.Handle, args *joinArgs) (codec.Marshaler, error) {
	return r.lookup(args.Group).viewReplyNow(), nil
}

// viewReplyNow is the current view on the wire, or the "no such group"
// refusal for a nil group.
func (g *Group) viewReplyNow() *viewReply {
	if g == nil {
		return &viewReply{Err: "no such group"}
	}
	v := g.View()
	reply := &viewReply{OK: true, Version: v.Version}
	for _, m := range v.Members {
		reply.Members = append(reply.Members, wireUpdate{Addr: m.Addr, Incarnation: m.Incarnation, State: uint8(m.State)})
	}
	return reply
}
