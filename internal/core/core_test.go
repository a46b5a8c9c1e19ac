package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/modules"
	"mochi/internal/pufferscale"
	"mochi/internal/raft"
	"mochi/internal/ssg"
	"mochi/internal/yokan"
)

func init() { modules.RegisterBuiltins() }

func fastSSG() ssg.Config {
	return ssg.Config{
		ProtocolPeriod:   10 * time.Millisecond,
		PingTimeout:      3 * time.Millisecond,
		SuspicionPeriods: 3,
	}
}

// nodeProviderID derives a stable, unique provider ID from a node
// name so migrated providers never collide at their destination.
func nodeProviderID(node string) uint16 {
	var id uint16 = 1
	for _, c := range node {
		if c >= '0' && c <= '9' {
			id = id*10 + uint16(c-'0')
		}
	}
	return id + 1
}

// kvSpec builds a service spec where every node runs one yokan log
// provider plus a REMI receiver, rooted in per-node temp dirs.
func kvSpec(t *testing.T, recovery RecoveryPolicy) Spec {
	t.Helper()
	base := t.TempDir()
	ckpt := t.TempDir()
	return Spec{
		GroupName:     "kv-service",
		SSG:           fastSSG(),
		CheckpointDir: ckpt,
		Recovery:      recovery,
		NodeConfig: func(node string) []byte {
			dir := filepath.Join(base, node)
			return []byte(fmt.Sprintf(`{
			  "libraries": {"yokan": "libyokan.so"},
			  "remi_root": %q,
			  "providers": [
			    {"name": "db-%s", "type": "yokan", "provider_id": %d,
			     "config": {"type": "log", "path": %q, "no_sync": true}}
			  ]
			}`, filepath.Join(dir, "remi"), node, nodeProviderID(node), filepath.Join(dir, "db.log")))
		},
	}
}

func startService(t *testing.T, spec Spec, n int, clusterSize int) (*Service, *mercury.Fabric) {
	t.Helper()
	f := mercury.NewFabric()
	cluster := NewClusterSim("node", clusterSize)
	svc := NewService(f, cluster, spec)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Start(ctx, n); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return svc, f
}

// pollUntil retries cond at the given interval for a fixed number of
// iterations. Iteration counting (not wall deadlines) keeps the tests
// immune to the forward clock jumps this VM exhibits.
func pollUntil(iters int, interval time.Duration, cond func() bool) bool {
	for i := 0; i < iters; i++ {
		if cond() {
			return true
		}
		time.Sleep(interval)
	}
	return cond()
}

func sctx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestClusterSim(t *testing.T) {
	c := NewClusterSim("n", 2)
	a, err := c.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.Allocate()
	if _, err := c.Allocate(); !errors.Is(err, ErrNoNodesAvailable) {
		t.Fatalf("err = %v", err)
	}
	if c.Free() != 0 || len(c.Allocated()) != 2 {
		t.Fatal("bookkeeping wrong")
	}
	c.Release(a)
	c.Release(b)
	c.Release("ghost") // no-op
	if c.Free() != 2 {
		t.Fatalf("free = %d", c.Free())
	}
}

func TestServiceStartAndView(t *testing.T) {
	svc, _ := startService(t, kvSpec(t, RecoverNone), 3, 5)
	if got := len(svc.Nodes()); got != 3 {
		t.Fatalf("nodes = %d", got)
	}
	v, err := svc.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 3 {
		t.Fatalf("view size = %d", v.Size())
	}
	// Each node serves its yokan provider.
	cli := yokan.NewClient(svc.Admin())
	for _, node := range svc.Nodes() {
		p, _ := svc.Process(node)
		h := cli.Handle(p.Addr(), nodeProviderID(node))
		if err := h.Put(sctx(t), []byte("k"), []byte("v")); err != nil {
			t.Fatalf("put at %s: %v", node, err)
		}
	}
}

func TestServiceExpandJoinsGroup(t *testing.T) {
	svc, _ := startService(t, kvSpec(t, RecoverNone), 2, 5)
	ctx := sctx(t)
	proc, err := svc.Expand(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Nodes()) != 3 {
		t.Fatalf("nodes = %v", svc.Nodes())
	}
	// The join propagates to every member (View samples an arbitrary
	// member, so require all of them to converge).
	allConverged := func() bool {
		for _, node := range svc.Nodes() {
			p, ok := svc.Process(node)
			if !ok || p.Group.View().Size() != 3 {
				return false
			}
		}
		return true
	}
	if !pollUntil(1500, 10*time.Millisecond, allConverged) {
		v, _ := svc.View()
		t.Fatalf("views never converged (sampled size = %d)", v.Size())
	}
	// The new node's provider serves too.
	h := yokan.NewClient(svc.Admin()).Handle(proc.Addr(), nodeProviderID(proc.Node))
	if err := h.Put(ctx, []byte("on-new"), []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestServiceShrinkMigratesData(t *testing.T) {
	svc, _ := startService(t, kvSpec(t, RecoverNone), 3, 5)
	ctx := sctx(t)
	nodes := svc.Nodes()
	victim := nodes[2]
	vp, _ := svc.Process(victim)
	victimID := nodeProviderID(victim)

	// Write data into the victim's provider.
	h := yokan.NewClient(svc.Admin()).Handle(vp.Addr(), victimID)
	for i := 0; i < 30; i++ {
		if err := h.Put(ctx, []byte(fmt.Sprintf("k%02d", i)), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Shrink(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if len(svc.Nodes()) != 2 {
		t.Fatalf("nodes = %v", svc.Nodes())
	}
	// The victim's provider now runs on a survivor with all the data,
	// under the same provider ID.
	found := false
	for _, node := range svc.Nodes() {
		p, _ := svc.Process(node)
		for _, name := range p.Server.Providers() {
			if name == "db-"+victim {
				found = true
				h2 := yokan.NewClient(svc.Admin()).Handle(p.Addr(), victimID)
				n, err := h2.Count(ctx)
				if err != nil || n != 30 {
					t.Fatalf("migrated data: count=%d err=%v", n, err)
				}
				v, err := h2.Get(ctx, []byte("k17"))
				if err != nil || string(v) != "payload" {
					t.Fatalf("migrated get = %q, %v", v, err)
				}
			}
		}
	}
	if !found {
		t.Fatalf("migrated provider not found on survivors")
	}
	// Shrinking down to one node works; shrinking the last is refused.
	if err := svc.Shrink(ctx, svc.Nodes()[0]); err != nil {
		t.Fatalf("second shrink: %v", err)
	}
	if err := svc.Shrink(ctx, svc.Nodes()[0]); !errors.Is(err, ErrLastNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestServiceRebalanceMovesProviders(t *testing.T) {
	// Nodes with distinct provider IDs so migrations cannot collide.
	base := t.TempDir()
	idByNode := map[string]int{}
	spec := Spec{
		GroupName: "rb-service",
		SSG:       fastSSG(),
		NodeConfig: func(node string) []byte {
			dir := filepath.Join(base, node)
			id := idByNode[node]
			if id == 0 {
				id = len(idByNode) + 1
				idByNode[node] = id
			}
			return []byte(fmt.Sprintf(`{
			  "libraries": {"yokan": "libyokan.so"},
			  "remi_root": %q,
			  "providers": [
			    {"name": "db-%s", "type": "yokan", "provider_id": %d,
			     "config": {"type": "log", "path": %q, "no_sync": true}}
			  ]
			}`, filepath.Join(dir, "remi"), node, id, filepath.Join(dir, "db.log")))
		},
	}
	svc, _ := startService(t, spec, 3, 5)
	ctx := sctx(t)

	// Skew the data: all writes to node 0's provider.
	n0 := svc.Nodes()[0]
	p0, _ := svc.Process(n0)
	id0 := idByNode[n0]
	h := yokan.NewClient(svc.Admin()).Handle(p0.Addr(), uint16(id0))
	for i := 0; i < 100; i++ {
		if err := h.Put(ctx, []byte(fmt.Sprintf("key-%03d", i)), make([]byte, 500)); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := svc.Rebalance(ctx, pufferscale.Objectives{WData: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With one big resource and two empty nodes, the plan either
	// keeps it (already "balanced" as a single unit) or moves it; the
	// data must remain intact wherever it is.
	var total int
	for _, node := range svc.Nodes() {
		p, _ := svc.Process(node)
		for _, info := range p.Server.ResourceInventory() {
			if info.Name == "db-"+n0 {
				h2 := yokan.NewClient(svc.Admin()).Handle(p.Addr(), info.ProviderID)
				n, err := h2.Count(ctx)
				if err != nil {
					t.Fatal(err)
				}
				total = n
			}
		}
	}
	if total != 100 {
		t.Fatalf("data lost in rebalance: count = %d (plan moves: %d)", total, len(plan.Moves))
	}
}

func TestServiceFailureDetectionAndRecovery(t *testing.T) {
	svc, f := startService(t, kvSpec(t, RecoverRestartFromCheckpoint), 3, 6)
	ctx := sctx(t)

	// Put data on the node we will kill, then checkpoint everything.
	victim := svc.Nodes()[1]
	vp, _ := svc.Process(victim)
	h := yokan.NewClient(svc.Admin()).Handle(vp.Addr(), nodeProviderID(victim))
	for i := 0; i < 20; i++ {
		if err := h.Put(ctx, []byte(fmt.Sprintf("v%02d", i)), []byte("precious")); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.CheckpointAll(); err != nil {
		t.Fatal(err)
	}

	// Crash the node at the fabric level.
	f.Kill(vp.Addr())

	// SWIM detects it; the service provisions a replacement and
	// restores the checkpoint.
	pollUntil(1500, 20*time.Millisecond, func() bool {
		return len(svc.Failures()) > 0
	})
	svc.WaitRecoveries()
	failures := svc.Failures()
	if len(failures) == 0 {
		t.Fatal("failure never detected")
	}
	ev := failures[0]
	if ev.DeadNode != victim {
		t.Fatalf("dead node = %s, want %s", ev.DeadNode, victim)
	}
	if ev.RecoverErr != nil {
		t.Fatalf("recovery failed: %v", ev.RecoverErr)
	}
	if ev.ReplacedBy == "" {
		t.Fatal("no replacement provisioned")
	}
	// The replacement serves the restored data.
	rp, ok := svc.Process(ev.ReplacedBy)
	if !ok {
		t.Fatalf("replacement %s not tracked", ev.ReplacedBy)
	}
	h2 := yokan.NewClient(svc.Admin()).Handle(rp.Addr(), nodeProviderID(victim))
	v, err := h2.Get(ctx, []byte("v07"))
	if err != nil || string(v) != "precious" {
		t.Fatalf("restored get = %q, %v", v, err)
	}
	if len(svc.Nodes()) != 3 {
		t.Fatalf("nodes after recovery = %v", svc.Nodes())
	}
}

func TestServiceMonitoringAggregation(t *testing.T) {
	svc, _ := startService(t, kvSpec(t, RecoverNone), 2, 4)
	svc.EnableMonitoring()
	ctx := sctx(t)
	node0 := svc.Nodes()[0]
	p0, _ := svc.Process(node0)
	h := yokan.NewClient(svc.Admin()).Handle(p0.Addr(), nodeProviderID(node0))
	for i := 0; i < 5; i++ {
		if err := h.Put(ctx, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	stats := svc.CollectStats()
	if len(stats) != 2 {
		t.Fatalf("stats from %d nodes", len(stats))
	}
	st, ok := stats[node0].FindByName(yokan.RPCPut)
	if !ok {
		t.Fatalf("no yokan_put stats on %s: %v", node0, stats[node0].Keys())
	}
	if providerLoad(stats[node0], nodeProviderID(node0)) < 5 {
		t.Fatalf("provider load = %f", providerLoad(stats[node0], nodeProviderID(node0)))
	}
	_ = st
}

func TestVirtualKVReplication(t *testing.T) {
	f := mercury.NewFabric()
	// Three backend nodes with plain yokan providers.
	var backends []struct {
		Addr       string
		ProviderID uint16
	}
	var insts []*margo.Instance
	for i := 0; i < 3; i++ {
		cls, _ := f.NewClass(fmt.Sprintf("vkv-%d", i))
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.EnableMonitoring()
		insts = append(insts, inst)
		if _, err := yokan.NewProvider(inst, 1, nil, yokan.Config{Type: "map"}); err != nil {
			t.Fatal(err)
		}
		backends = append(backends, struct {
			Addr       string
			ProviderID uint16
		}{inst.Addr(), 1})
	}
	// The "virtual" node hosts a provider whose database forwards.
	vcls, _ := f.NewClass("vkv-front")
	vinst, err := margo.New(vcls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, i := range insts {
			i.Finalize()
		}
		vinst.Finalize()
	}()
	vdb, err := NewVirtualKV(vinst, backends, VirtualKVConfig{WriteQuorum: 2, OpTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := yokan.NewProviderWithDatabase(vinst, 7, nil, vdb, yokan.Config{Type: "virtual"}); err != nil {
		t.Fatal(err)
	}

	// A client talks to the virtual provider like any yokan provider
	// ("the client ... does not know that the provider it contacts
	// does not actually hold data itself").
	ccls, _ := f.NewClass("vkv-client")
	cinst, err := margo.New(ccls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cinst.Finalize()
	ctx := sctx(t)
	h := yokan.NewClient(cinst).Handle(vinst.Addr(), 7)
	if err := h.Put(ctx, []byte("rk"), []byte("rv")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(ctx, []byte("rk")); err != nil {
		t.Fatal(err)
	}
	// Write all, read one, counted where the requests landed: each
	// backend's monitor records a request before its handler runs.
	handled := func(inst *margo.Instance, rpc string) (n int64) {
		if st, ok := inst.Stats().FindByName(rpc); ok {
			for _, ts := range st.Target {
				n += ts.ULT.Queued.Num
			}
		}
		return n
	}
	var gets int64
	for _, inst := range insts {
		if puts := handled(inst, yokan.RPCPut); puts != 1 {
			t.Fatalf("backend %s handled %d puts, want 1", inst.Addr(), puts)
		}
		gets += handled(inst, yokan.RPCGet)
	}
	if gets != 1 {
		t.Fatalf("backends handled %d gets, want 1", gets)
	}
	// The value landed on all three replicas.
	for _, b := range backends {
		bh := yokan.NewClient(cinst).Handle(b.Addr, b.ProviderID)
		v, err := bh.Get(ctx, []byte("rk"))
		if err != nil || string(v) != "rv" {
			t.Fatalf("replica %s: %q %v", b.Addr, v, err)
		}
	}
	// Kill one replica: reads and quorum-2 writes still succeed.
	f.Kill(backends[0].Addr)
	if v, err := h.Get(ctx, []byte("rk")); err != nil || string(v) != "rv" {
		t.Fatalf("degraded read: %q %v", v, err)
	}
	if err := h.Put(ctx, []byte("rk2"), []byte("rv2")); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	// Kill a second: quorum 2 of 3 is no longer reachable.
	f.Kill(backends[1].Addr)
	if err := h.Put(ctx, []byte("rk3"), []byte("x")); err == nil {
		t.Fatal("write succeeded below quorum")
	}
	// Reads still work from the last replica.
	if v, err := h.Get(ctx, []byte("rk")); err != nil || string(v) != "rv" {
		t.Fatalf("single-replica read: %q %v", v, err)
	}
}

func TestVirtualKVEraseSemantics(t *testing.T) {
	f := mercury.NewFabric()
	var backends []struct {
		Addr       string
		ProviderID uint16
	}
	var insts []*margo.Instance
	for i := 0; i < 2; i++ {
		cls, _ := f.NewClass(fmt.Sprintf("ve-%d", i))
		inst, _ := margo.New(cls, nil)
		insts = append(insts, inst)
		if _, err := yokan.NewProvider(inst, 1, nil, yokan.Config{Type: "map"}); err != nil {
			t.Fatal(err)
		}
		backends = append(backends, struct {
			Addr       string
			ProviderID uint16
		}{inst.Addr(), 1})
	}
	defer func() {
		for _, i := range insts {
			i.Finalize()
		}
	}()
	vdb, err := NewVirtualKV(insts[0], backends, VirtualKVConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vdb.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := vdb.Erase([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := vdb.Erase([]byte("k")); err != yokan.ErrKeyNotFound {
		t.Fatalf("double erase: %v", err)
	}
	if n, _ := vdb.Count(); n != 0 {
		t.Fatalf("count = %d", n)
	}
}

func TestRaftKVLinearizable(t *testing.T) {
	f := mercury.NewFabric()
	var insts []*margo.Instance
	var addrs []string
	for i := 0; i < 3; i++ {
		cls, _ := f.NewClass(fmt.Sprintf("rkv-%d", i))
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
		addrs = append(addrs, inst.Addr())
	}
	defer func() {
		for _, i := range insts {
			i.Finalize()
		}
	}()
	cfg := raft.Config{
		ElectionTimeoutMin: 50 * time.Millisecond,
		ElectionTimeoutMax: 100 * time.Millisecond,
		HeartbeatInterval:  15 * time.Millisecond,
	}
	var nodes []*raft.Node
	var dbs []yokan.Database
	for _, inst := range insts {
		db, _ := yokan.Open(yokan.Config{Type: "map"})
		dbs = append(dbs, db)
		n, err := NewRaftKVNode(inst, "rkv", addrs, raft.NewMemoryStore(), db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()

	ccls, _ := f.NewClass("rkv-client")
	cinst, err := margo.New(ccls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cinst.Finalize()
	client := NewRaftKVClient(cinst, "rkv", addrs)
	ctx := sctx(t)
	if err := client.Put(ctx, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := client.Get(ctx, []byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if _, err := client.Get(ctx, []byte("missing")); err != yokan.ErrKeyNotFound {
		t.Fatalf("missing get: %v", err)
	}
	if err := client.Erase(ctx, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := client.Erase(ctx, []byte("a")); err != yokan.ErrKeyNotFound {
		t.Fatalf("double erase: %v", err)
	}
	// All backing databases converge to the same contents.
	if err := client.Put(ctx, []byte("final"), []byte("state")); err != nil {
		t.Fatal(err)
	}
	converged := pollUntil(1000, 10*time.Millisecond, func() bool {
		for _, db := range dbs {
			if v, err := db.Get([]byte("final")); err != nil || string(v) != "state" {
				return false
			}
		}
		return true
	})
	if !converged {
		t.Fatal("replicas never converged")
	}
}

func TestRaftKVSurvivesLeaderCrash(t *testing.T) {
	f := mercury.NewFabric()
	var insts []*margo.Instance
	var addrs []string
	for i := 0; i < 3; i++ {
		cls, _ := f.NewClass(fmt.Sprintf("rkc-%d", i))
		inst, _ := margo.New(cls, nil)
		insts = append(insts, inst)
		addrs = append(addrs, inst.Addr())
	}
	defer func() {
		for _, i := range insts {
			i.Finalize()
		}
	}()
	cfg := raft.Config{
		ElectionTimeoutMin: 50 * time.Millisecond,
		ElectionTimeoutMax: 100 * time.Millisecond,
		HeartbeatInterval:  15 * time.Millisecond,
	}
	var nodes []*raft.Node
	for _, inst := range insts {
		db, _ := yokan.Open(yokan.Config{Type: "map"})
		n, err := NewRaftKVNode(inst, "rkc", addrs, raft.NewMemoryStore(), db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	ccls, _ := f.NewClass("rkc-client")
	cinst, _ := margo.New(ccls, nil)
	defer cinst.Finalize()
	client := NewRaftKVClient(cinst, "rkc", addrs)
	ctx := sctx(t)
	if err := client.Put(ctx, []byte("pre"), []byte("crash")); err != nil {
		t.Fatal(err)
	}
	// Kill the leader.
	var leader *raft.Node
	pollUntil(1500, 10*time.Millisecond, func() bool {
		for _, n := range nodes {
			if n.IsLeader() {
				leader = n
			}
		}
		return leader != nil
	})
	if leader == nil {
		t.Fatal("no leader")
	}
	f.Kill(leader.ID())
	leader.Stop()
	// The client transparently finds the new leader.
	if err := client.Put(ctx, []byte("post"), []byte("crash")); err != nil {
		t.Fatal(err)
	}
	v, err := client.Get(ctx, []byte("pre"))
	if err != nil || string(v) != "crash" {
		t.Fatalf("pre-crash data: %q %v", v, err)
	}
}
