package router

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"mochi/internal/clock"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/pufferscale"
	"mochi/internal/resilience"
	"mochi/internal/yokan"
)

const testProviderID = 9

// cluster is an in-process multi-"process" sharded keyspace: one
// margo instance per node on a shared sm fabric, plus a client
// instance.
type cluster struct {
	fabric  *mercury.Fabric
	nodes   []*Node
	insts   []*margo.Instance
	client  *margo.Instance
	initial *Map
}

type clusterConfig struct {
	nodes  int
	shards int
	// ownerNodes restricts initial shard placement to the first k
	// nodes (0 = all nodes own shards round-robin).
	ownerNodes int
	resilience *resilience.Config
	// margo is each node's margo configuration ("" = the default).
	margo string
	// backend templates each node's shard databases ("" = map).
	backend yokan.Config
}

func newCluster(t testing.TB, cfg clusterConfig) *cluster {
	t.Helper()
	f := mercury.NewFabric()
	c := &cluster{fabric: f}
	for i := 0; i < cfg.nodes; i++ {
		cls, err := f.NewClass(fmt.Sprintf("xkv-node-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.New(cls, []byte(cfg.margo))
		if err != nil {
			t.Fatal(err)
		}
		if cfg.resilience != nil {
			inst.SetResilience(cfg.resilience)
		}
		n, err := NewNode(inst, Options{ProviderID: testProviderID, Dir: t.TempDir(), Backend: cfg.backend})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, n)
		c.insts = append(c.insts, inst)
	}
	ccls, err := f.NewClass("xkv-client")
	if err != nil {
		t.Fatal(err)
	}
	c.client, err = margo.New(ccls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.resilience != nil {
		c.client.SetResilience(cfg.resilience)
	}
	ownerNodes := cfg.ownerNodes
	if ownerNodes <= 0 {
		ownerNodes = cfg.nodes
	}
	owners := make([]Owner, 0, ownerNodes)
	for i := 0; i < ownerNodes; i++ {
		owners = append(owners, c.nodes[i].Self())
	}
	m, err := NewMap(cfg.shards, owners, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.initial = m
	for _, n := range c.nodes {
		if err := n.Adopt(m); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Close()
		}
		for _, inst := range c.insts {
			inst.Finalize()
		}
		c.client.Finalize()
	})
	return c
}

func (c *cluster) router() *Router { return NewRouter(c.client, c.initial) }

// restart stops node i and starts it again at the same address and
// directory, adopting the initial map as a process restarted from the
// same bootstrap block would.
func (c *cluster) restart(t *testing.T, i int) {
	t.Helper()
	old := c.nodes[i]
	old.Close()
	c.insts[i].Finalize()
	c.fabric.Remove(old.Self().Addr)
	cls, err := c.fabric.NewClass(fmt.Sprintf("xkv-node-%d", i))
	if err != nil {
		t.Fatal(err)
	}
	if c.insts[i], err = margo.New(cls, nil); err != nil {
		t.Fatal(err)
	}
	if c.nodes[i], err = NewNode(c.insts[i], Options{ProviderID: testProviderID, Dir: old.dir, Backend: old.opts.Backend}); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[i].Adopt(c.initial); err != nil {
		t.Fatal(err)
	}
}

func tctx(t testing.TB, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestRouterBasicOps(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 3, shards: 8})
	r := c.router()
	ctx := tctx(t, 10*time.Second)

	const n = 300
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := r.Put(ctx, k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		v, err := r.Get(ctx, k)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if want := fmt.Sprintf("val-%d", i); string(v) != want {
			t.Fatalf("get %d: got %q want %q", i, v, want)
		}
	}
	if got, err := r.Count(ctx); err != nil || got != n {
		t.Fatalf("count: got %d (%v), want %d", got, err, n)
	}
	if err := r.Erase(ctx, []byte("key-0")); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Exists(ctx, []byte("key-0")); err != nil || ok {
		t.Fatalf("exists after erase: %v %v", ok, err)
	}
	if _, err := r.Get(ctx, []byte("key-0")); !yokan.IsNotFound(err) {
		t.Fatalf("get after erase: %v", err)
	}
	// Keys must actually spread: with 8 shards round-robin over 3
	// nodes, every node serves traffic.
	for i, n := range c.nodes {
		var ops uint64
		n.mu.Lock()
		for _, sh := range n.shards {
			ops += sh.ops.Load()
		}
		n.mu.Unlock()
		if ops == 0 {
			t.Fatalf("node %d served no operations", i)
		}
	}
}

// A reshard must atomically flip routing: a router still holding the
// old map gets a retryable redirect carrying the new one and lands on
// the new owner with one extra hop.
func TestStaleRouterFollowsRedirect(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4})
	ctx := tctx(t, 10*time.Second)
	fresh := c.router()
	stale := c.router() // second client view, about to go stale

	const n = 200
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := fresh.Put(ctx, k, []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}

	// Move shard 0 from its owner to the other node.
	src := c.initial.Owners[0]
	var srcNode *Node
	for _, nd := range c.nodes {
		if nd.Self() == src {
			srcNode = nd
		}
	}
	dst := c.nodes[0].Self()
	if dst == src {
		dst = c.nodes[1].Self()
	}
	if err := srcNode.Reshard(ctx, 0, dst); err != nil {
		t.Fatalf("reshard: %v", err)
	}

	// The stale router still has the initial map; every key must
	// still resolve, and afterwards its map must have shard 0's move.
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		v, err := stale.Get(ctx, k)
		if err != nil {
			t.Fatalf("stale get %d: %v", i, err)
		}
		if string(v) != "v1" {
			t.Fatalf("stale get %d: got %q", i, v)
		}
	}
	if m := stale.Map(); m.Versions[0] != 1 || m.Epoch() != 1 {
		t.Fatalf("stale router's map: shard 0 at version %d, epoch %d; want 1, 1", m.Versions[0], m.Epoch())
	}
	redirects, installs := stale.Stats()
	if redirects == 0 || installs == 0 {
		t.Fatalf("stale router should have absorbed a redirect (redirects=%d installs=%d)", redirects, installs)
	}
	// The old owner redirected rather than served.
	if srcNode.Stats().Redirects == 0 {
		t.Fatal("source node never redirected")
	}
}

// A reshard to a dead destination must fail cleanly and leave the
// source serving everything.
func TestReshardToDeadDestinationAborts(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4, ownerNodes: 1})
	ctx := tctx(t, 10*time.Second)
	r := c.router()
	for i := 0; i < 50; i++ {
		if err := r.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	sctx, cancel := context.WithTimeout(ctx, 1*time.Second)
	defer cancel()
	err := c.nodes[0].Reshard(sctx, 0, Owner{Addr: "sm://nowhere", Provider: testProviderID})
	if err == nil {
		t.Fatal("reshard to dead destination succeeded")
	}
	// Source must still serve all data under the initial map.
	if got := c.nodes[0].CurrentMap().Epoch(); got != 0 {
		t.Fatalf("map at epoch %d after a failed reshard", got)
	}
	for i := 0; i < 50; i++ {
		if _, err := r.Get(ctx, []byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("get after failed reshard: %v", err)
		}
	}
}

// move is shard s going from one owner to another, as a
// pufferscale.Controller hands it to Migrator.
func move(s uint32, from, to Owner) pufferscale.Move {
	return pufferscale.Move{ResourceID: strconv.Itoa(int(s)), From: from.String(), To: to.String()}
}

// A controller over the router's Inventory and Migrator must detect a
// hot node from the per-shard counters, as a rate, and reshard its hot
// shards onto the spares through pufferscale, not a hardcoded plan.
func TestControllerMovesHotShards(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 3, shards: 8, ownerNodes: 1})
	ctx := tctx(t, 20*time.Second)
	r := c.router()
	// Every key lands on node 0 (it owns all shards), with shard skew
	// from repeated hot keys.
	traffic := func() {
		for i := 0; i < 500; i++ {
			k := []byte(fmt.Sprintf("key-%d", i%40))
			if err := r.Put(ctx, k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	traffic()

	hot, spares := c.nodes[0].Self(), []Owner{c.nodes[1].Self(), c.nodes[2].Self()}
	ctl := &pufferscale.Controller{
		Inventory:  Inventory(r, spares),
		Migrate:    Migrator(c.client),
		Objectives: pufferscale.Objectives{WLoad: 1, WTime: 0.1},
	}
	if plan, err := ctl.Step(ctx); plan != nil || err != nil {
		t.Fatalf("priming step: plan %+v, err %v", plan, err)
	}
	traffic()
	plan, err := ctl.Step(ctx)
	if err != nil {
		t.Fatalf("controller step: %v", err)
	}
	if plan == nil || len(plan.Moves) == 0 {
		t.Fatal("controller saw no imbalance with every shard on one node")
	}
	for _, mv := range plan.Moves {
		if mv.From != hot.String() || mv.To == hot.String() {
			t.Fatalf("move %+v, want a shard off node 0", mv)
		}
	}
	if after := plan.LoadImbalance(); after >= 3 {
		t.Fatalf("planned load imbalance %.2f no better than all on one of three", after)
	}

	// Every flip must be visible and lossless.
	m, err := FetchMap(ctx, c.client, hot.Addr, hot.Provider)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != uint64(len(plan.Moves)) {
		t.Fatalf("epoch after %d moves: %d", len(plan.Moves), m.Epoch())
	}
	for _, mv := range plan.Moves {
		s, _ := strconv.Atoi(mv.ResourceID)
		if m.Owners[s].String() != mv.To || m.Versions[s] != 1 {
			t.Fatalf("shard %d owned by %v at version %d, want %s at 1", s, m.Owners[s], m.Versions[s], mv.To)
		}
	}
	for i := 0; i < 40; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if _, err := r.Get(ctx, k); err != nil {
			t.Fatalf("get %d after the moves: %v", i, err)
		}
	}
}

// Bootstrap must fetch a usable map from any live node.
func TestBootstrapFromNode(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4})
	ctx := tctx(t, 5*time.Second)
	r, err := Bootstrap(ctx, c.client, []string{"sm://nowhere", c.insts[1].Addr()}, testProviderID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(ctx, []byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	v, err := r.Get(ctx, []byte("a"))
	if err != nil || string(v) != "b" {
		t.Fatalf("get: %q %v", v, err)
	}
}

// A statusRetry is a protocol answer from a live peer, not a transport
// failure: the waits through a flip window follow the router's own
// schedule, min(2ms<<n, 100ms) for the nth retry, whether or not the
// process has a transport retry policy configured.
func TestFlipWindowPacingIgnoresTransportPolicy(t *testing.T) {
	f := mercury.NewFabric()
	scls, err := f.NewClass("pacing-server")
	if err != nil {
		t.Fatal(err)
	}
	server, err := margo.New(scls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Finalize()
	notYet := margo.Serve(func(context.Context, *mercury.Handle, *opArgs) (codec.Message, error) {
		return &opReply{Status: statusRetry}, nil
	})
	if _, err := server.RegisterSet(testProviderID, nil, margo.RPC{Name: RPCGet, Handler: notYet}); err != nil {
		t.Fatal(err)
	}
	ccls, err := f.NewClass("pacing-client")
	if err != nil {
		t.Fatal(err)
	}
	sim := clock.NewSim(time.Time{})
	client, err := margo.NewWithClock(ccls, nil, sim)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()
	client.SetResilience(&resilience.Config{}) // defaults: 10ms·2ⁿ ≤ 1s ± 20 %
	m, err := NewMap(1, []Owner{{Addr: server.Addr(), Provider: testProviderID}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(client, m)

	done := make(chan error, 1)
	go func() {
		_, err := r.Get(tctx(t, 20*time.Second), []byte("k"))
		done <- err
	}()
	var waits []time.Duration
	for err == nil {
		select {
		case err = <-done:
		default:
			if sim.WaitForWaiters(1, 5*time.Millisecond) {
				at, _ := sim.NextDeadline()
				waits = append(waits, at.Sub(sim.Now()))
				sim.AdvanceTo(at)
			}
		}
	}
	if !errors.Is(err, ErrTooManyRedirects) {
		t.Fatalf("get against a node that always says retry: %v", err)
	}
	if len(waits) != 17 {
		t.Fatalf("%d waits, want one after each of 17 attempts: %v", len(waits), waits)
	}
	for i, got := range waits {
		if want := min(2*time.Millisecond<<uint(i+1), 100*time.Millisecond); got != want {
			t.Fatalf("wait %d was %v, want %v (all: %v)", i+1, got, want, waits)
		}
	}
}
