package ssg

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// fastCfg makes the protocol converge quickly in tests.
func fastCfg() Config {
	return Config{
		ProtocolPeriod:   10 * time.Millisecond,
		PingTimeout:      3 * time.Millisecond,
		IndirectPings:    2,
		SuspicionPeriods: 3,
		PiggybackLimit:   16,
	}
}

// applyUpdates steps the group's engine with assertions as if a peer
// had sent them, and takeGossip drains one message's worth of its
// gossip queue: the tests' way in to the update rules of a live group.
func (g *Group) applyUpdates(ups []Update) {
	g.step(func(e *Engine, now time.Time) { e.Apply(now, g.ids(ups)) })
}

func (g *Group) takeGossip() []Update {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addrs(g.eng.takeGossip())
}

type cluster struct {
	fabric *mercury.Fabric
	insts  []*margo.Instance
	groups []*Group
}

func newCluster(t *testing.T, n int) *cluster {
	return newClusterN(t, n, fastCfg())
}

func newClusterN(t *testing.T, n int, cfg Config) *cluster {
	t.Helper()
	c := &cluster{fabric: mercury.NewFabric()}
	var addrs []string
	for i := 0; i < n; i++ {
		cls, err := c.fabric.NewClass(fmt.Sprintf("ssg-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.insts = append(c.insts, inst)
		addrs = append(addrs, inst.Addr())
	}
	for _, inst := range c.insts {
		g, err := Create(inst, "test-group", addrs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.groups = append(c.groups, g)
	}
	t.Cleanup(func() {
		for _, g := range c.groups {
			g.Stop()
		}
		for _, inst := range c.insts {
			inst.Finalize()
		}
	})
	return c
}

// eventually polls cond until it holds or the budget runs out. The
// budget is iteration-based (d / 5ms polls) rather than a wall-clock
// deadline so that the VM's forward clock jumps cannot expire it
// early.
func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	iters := int(d / (5 * time.Millisecond))
	for i := 0; i < iters; i++ {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cond() {
		return
	}
	t.Fatal("condition never held: " + msg)
}

func TestBootstrapViewsConverge(t *testing.T) {
	c := newCluster(t, 4)
	for i, g := range c.groups {
		v := g.View()
		if v.Size() != 4 {
			t.Fatalf("group %d sees %d members", i, v.Size())
		}
	}
	h0 := c.groups[0].View().Hash()
	for i, g := range c.groups[1:] {
		if g.View().Hash() != h0 {
			t.Fatalf("group %d hash differs", i+1)
		}
	}
}

func TestViewHashChangesWithMembership(t *testing.T) {
	v1 := View{Members: []Member{{Addr: "sm://a", State: StateAlive}, {Addr: "sm://b", State: StateAlive}}}
	v2 := View{Members: []Member{{Addr: "sm://a", State: StateAlive}, {Addr: "sm://b", State: StateDead}}}
	if v1.Hash() == v2.Hash() {
		t.Fatal("hash insensitive to death")
	}
	// Hash only depends on alive membership, not version.
	v3 := View{Version: 99, Members: v1.Members}
	if v1.Hash() != v3.Hash() {
		t.Fatal("hash depends on version")
	}
}

func TestFailureDetection(t *testing.T) {
	c := newCluster(t, 5)
	victim := c.insts[4].Addr()
	c.fabric.Kill(victim)
	// All survivors must eventually declare the victim dead.
	eventually(t, 10*time.Second, func() bool {
		for _, g := range c.groups[:4] {
			dead := false
			for _, m := range g.View().Members {
				if m.Addr == victim && m.State == StateDead {
					dead = true
				}
			}
			if !dead {
				return false
			}
		}
		return true
	}, "victim never declared dead by all survivors")
	// Survivors' alive views exclude the victim and agree.
	h := c.groups[0].View().Hash()
	for _, g := range c.groups[1:4] {
		if g.View().Hash() != h {
			t.Fatal("survivor views diverge")
		}
	}
	if c.groups[0].View().Size() != 4 {
		t.Fatalf("alive size = %d", c.groups[0].View().Size())
	}
}

func TestFailureCallbacks(t *testing.T) {
	c := newCluster(t, 3)
	victim := c.insts[2].Addr()
	var mu sync.Mutex
	events := map[string][]State{}
	c.groups[0].OnChange(func(m Member, old, new State) {
		mu.Lock()
		events[m.Addr] = append(events[m.Addr], new)
		mu.Unlock()
	})
	c.fabric.Kill(victim)
	eventually(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range events[victim] {
			if s == StateDead {
				return true
			}
		}
		return false
	}, "no dead callback")
	// The victim should have passed through suspect first.
	mu.Lock()
	defer mu.Unlock()
	sawSuspect := false
	for _, s := range events[victim] {
		if s == StateSuspect {
			sawSuspect = true
		}
	}
	if !sawSuspect {
		t.Fatal("victim was never suspected before death")
	}
}

func TestJoinPropagates(t *testing.T) {
	c := newCluster(t, 3)
	cls, err := c.fabric.NewClass("ssg-joiner")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g, err := Join(ctx, inst, "test-group", c.insts[0].Addr(), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if g.View().Size() != 4 {
		t.Fatalf("joiner sees %d members", g.View().Size())
	}
	// Every original member eventually learns about the joiner.
	eventually(t, 10*time.Second, func() bool {
		for _, og := range c.groups {
			if og.View().Size() != 4 {
				return false
			}
		}
		return true
	}, "join never propagated")
}

func TestJoinUnknownGroupFails(t *testing.T) {
	c := newCluster(t, 1)
	cls, _ := c.fabric.NewClass("ssg-stranger")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := Join(ctx, inst, "no-such-group", c.insts[0].Addr(), fastCfg()); err == nil {
		t.Fatal("join to unknown group succeeded")
	}
}

func TestGracefulLeave(t *testing.T) {
	c := newCluster(t, 4)
	leaver := c.groups[3]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := leaver.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	eventually(t, 10*time.Second, func() bool {
		for _, g := range c.groups[:3] {
			found := false
			for _, m := range g.View().Members {
				if m.Addr == leaver.Self() && m.State == StateLeft {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}, "leave never propagated")
	// Graceful leave must not be recorded as a death.
	for _, g := range c.groups[:3] {
		if g.Stats().DeathsDeclared.Load() != 0 {
			t.Fatal("leave declared as death")
		}
	}
}

func TestRefutationResurrectsFalseSuspect(t *testing.T) {
	c := newCluster(t, 3)
	accused := c.insts[2].Addr()
	// Inject a false suspicion at group 0; gossip should reach the
	// accused, which refutes with a higher incarnation.
	c.groups[0].applyUpdates([]Update{{Addr: accused, Incarnation: 0, State: StateSuspect}})
	eventually(t, 10*time.Second, func() bool {
		for _, g := range c.groups {
			for _, m := range g.View().Members {
				if m.Addr == accused {
					if m.State != StateAlive || m.Incarnation == 0 {
						return false
					}
				}
			}
		}
		return true
	}, "false suspicion never refuted")
	if c.groups[2].Stats().RefutationsSent.Load() == 0 {
		t.Fatal("accused never refuted")
	}
}

func TestPartitionedMemberResurrectsAfterHeal(t *testing.T) {
	c := newCluster(t, 4)
	isolated := c.insts[3].Addr()
	var rest []string
	for _, inst := range c.insts[:3] {
		rest = append(rest, inst.Addr())
	}
	c.fabric.Partition(rest, []string{isolated})
	eventually(t, 10*time.Second, func() bool {
		for _, m := range c.groups[0].View().Members {
			if m.Addr == isolated && m.State == StateDead {
				return true
			}
		}
		return false
	}, "partitioned member not declared dead")
	c.fabric.Heal()
	// After healing, the isolated member's pings earn it a dead rumor
	// about itself, which it refutes; everyone resurrects it.
	eventually(t, 15*time.Second, func() bool {
		for _, g := range c.groups {
			ok := false
			for _, m := range g.View().Members {
				if m.Addr == isolated && m.State == StateAlive {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}, "member never resurrected after heal")
}

func TestFetchViewRemote(t *testing.T) {
	c := newCluster(t, 3)
	cls, _ := c.fabric.NewClass("ssg-client")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, err := FetchView(ctx, inst, c.insts[1].Addr(), "test-group")
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 3 {
		t.Fatalf("fetched view size = %d", v.Size())
	}
	if _, err := FetchView(ctx, inst, c.insts[1].Addr(), "ghost"); err == nil {
		t.Fatal("fetch of unknown group succeeded")
	}
}

func TestDuplicateGroupNameRejected(t *testing.T) {
	c := newCluster(t, 1)
	if _, err := Create(c.insts[0], "test-group", nil, fastCfg()); err == nil {
		t.Fatal("duplicate group accepted")
	}
}

func TestTwoGroupsOneInstance(t *testing.T) {
	c := newCluster(t, 2)
	var addrs []string
	for _, inst := range c.insts {
		addrs = append(addrs, inst.Addr())
	}
	var extra []*Group
	for _, inst := range c.insts {
		g, err := Create(inst, "second-group", addrs, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		extra = append(extra, g)
	}
	defer func() {
		for _, g := range extra {
			g.Stop()
		}
	}()
	if extra[0].View().Size() != 2 || c.groups[0].View().Size() != 2 {
		t.Fatal("groups interfere")
	}
}

// The bounded-load assertion lives in TestProtocolLoadOnSimClock
// (simclock_test.go): on virtual time "30 periods elapsed" is exact,
// where the old 300ms wall sleep over- or under-shot on loaded VMs.

func TestStopIsIdempotent(t *testing.T) {
	c := newCluster(t, 2)
	c.groups[0].Stop()
	c.groups[0].Stop()
}

func TestLeaveTwiceFails(t *testing.T) {
	c := newCluster(t, 2)
	ctx := context.Background()
	if err := c.groups[1].Leave(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.groups[1].Leave(ctx); err != ErrLeft {
		t.Fatalf("second leave: %v", err)
	}
}

// ssgRPCs is every name the group multiplexer installs on an instance.
var ssgRPCs = []string{rpcPing, rpcPingReq, rpcJoin, rpcLeave, rpcGetView}

// TestHandlersFollowGroupLifetime: the per-instance multiplexer is
// installed all-or-nothing by the first group and removed by the last
// one to stop or leave. Before, a failed install was remembered as done
// (the next Create "succeeded" on a half-registered instance) and
// nothing was ever removed, so every finalized instance stayed
// reachable.
func TestHandlersFollowGroupLifetime(t *testing.T) {
	f := mercury.NewFabric()
	var insts [2]*margo.Instance
	for i := range insts {
		cls, err := f.NewClass(fmt.Sprintf("life-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if insts[i], err = margo.New(cls, nil); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(insts[i].Finalize)
	}
	inst, client := insts[0], insts[1]
	registered := func(name string) bool { return inst.Class().Registered(name, mercury.AnyProvider) }
	create := func(name string) (*Group, error) { return Create(inst, name, []string{inst.Addr()}, fastCfg()) }

	// A forced mid-install failure leaves nothing registered.
	if _, err := inst.Register(rpcGetView, func(context.Context, *mercury.Handle) {}); err != nil {
		t.Fatal(err)
	}
	if g, err := create("a"); err == nil {
		g.Stop()
		t.Fatal("Create succeeded although one of its RPC names was taken")
	}
	for _, name := range ssgRPCs[:len(ssgRPCs)-1] {
		if registered(name) {
			t.Fatalf("failed install left %s registered", name)
		}
	}
	inst.DeregisterProvider(rpcGetView, mercury.AnyProvider)

	// The failure is not remembered: the next group installs everything.
	a, err := create("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := create("b")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ssgRPCs {
		if !registered(name) {
			t.Fatalf("%s not registered with two groups running", name)
		}
	}
	a.Stop()
	if !registered(rpcPing) {
		t.Fatal("handlers removed while a group is still running")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range ssgRPCs {
		if registered(name) {
			t.Fatalf("last Leave left %s registered", name)
		}
	}

	// A fresh group on the same instance works again.
	c, err := create("c")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if v, err := FetchView(ctx, client, inst.Addr(), "c"); err != nil || len(v.Members) != 1 {
		t.Fatalf("view of a group created after a full teardown: %+v, %v", v, err)
	}
}
