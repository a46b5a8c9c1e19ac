package main

// harness.go is the only file of the benchmark that imports the stack
// under test. Everything else in this directory talks to the types
// below, so a refactor of internal/... has exactly one file to keep
// source-compatible (the entry points are listed in README.md).
//
// Every server and client here is built the way an application would
// build it with no tuning: mercury.NewTCPClass("127.0.0.1:0"),
// margo.New(cls, nil), raft.Config{}, router.Options{ProviderID, Dir}.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mochi/internal/codec"
	"mochi/internal/core"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/raft"
	"mochi/internal/remi"
	"mochi/internal/trace"
	"mochi/internal/yokan"
	"mochi/internal/yokan/router"
)

const (
	transportDesc = "tcp loopback, no injected delay"
	fsyncDesc     = "sandbox disk"

	routerProvider = 31
	raftGroup      = "bench"
	// traceCapacity is the span ring of every instance during a traced
	// leg: large enough that the analysed suffix holds thousands of
	// complete request trees, small enough (~16 MB per instance) to
	// keep the traced run inside the sandbox's memory.
	traceCapacity = 1 << 17
)

// kvClient is what a load-generating goroutine drives: one blocking
// call at a time. router.Router and core.RaftKVClient both satisfy it.
type kvClient interface {
	Put(ctx context.Context, key, value []byte) error
	Get(ctx context.Context, key []byte) ([]byte, error)
}

func isNotFound(err error) bool { return errors.Is(err, yokan.ErrKeyNotFound) }

// newInstance starts one margo instance on its own loopback TCP
// endpoint, the way one HPC process would.
func newInstance() (*margo.Instance, error) {
	cls, err := mercury.NewTCPClass("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst, err := margo.New(cls, nil)
	if err != nil {
		_ = cls.Close()
		return nil, err
	}
	return inst, nil
}

// cluster is one deployment under test: servers, one client per load
// goroutine, and the hooks the workloads need around them.
type cluster struct {
	clients []kvClient
	insts   []*margo.Instance // servers first, then clients
	closers []func()

	// fresh returns a client that shares no state with clients: the
	// ledger is read back through it after the window.
	fresh func(ctx context.Context) (kvClient, error)
	// counters returns cumulative layer counters; callers take the
	// difference over a window.
	counters func() map[string]float64
	// flip moves one shard of node 0 to the spare, or back, and
	// returns the shard it moved (reshard-churn only).
	flip func(ctx context.Context) (shard uint32, err error)
	// shardOf maps a key to its shard (sharded clusters only).
	shardOf func(key []byte) uint32
}

func (c *cluster) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
}

// addInstance starts an instance owned by the cluster.
func (c *cluster) addInstance() (*margo.Instance, error) {
	inst, err := newInstance()
	if err != nil {
		return nil, err
	}
	c.insts = append(c.insts, inst)
	c.closers = append(c.closers, inst.Finalize)
	return inst, nil
}

// newShardedCluster starts `nodes` router nodes of which the first
// `owners` own the `shards` shards (map backend), and `clients`
// routers, each on its own instance.
func newShardedCluster(dir string, nodes, owners, shards, clients int) (*cluster, error) {
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	var rnodes []*router.Node
	for i := 0; i < nodes; i++ {
		inst, err := c.addInstance()
		if err != nil {
			return nil, err
		}
		nd, err := router.NewNode(inst, router.Options{
			ProviderID: routerProvider,
			Dir:        filepath.Join(dir, fmt.Sprintf("node-%d", i)),
		})
		if err != nil {
			return nil, err
		}
		c.closers = append(c.closers, func() { _ = nd.Close() })
		rnodes = append(rnodes, nd)
	}
	var own []router.Owner
	for _, nd := range rnodes[:owners] {
		own = append(own, nd.Self())
	}
	seed, err := router.NewMap(shards, own, 0)
	if err != nil {
		return nil, err
	}
	for _, nd := range rnodes {
		if err := nd.Adopt(seed); err != nil {
			return nil, err
		}
	}
	var routers []*router.Router
	for i := 0; i < clients; i++ {
		inst, err := c.addInstance()
		if err != nil {
			return nil, err
		}
		r := router.NewRouter(inst, seed)
		routers = append(routers, r)
		c.clients = append(c.clients, r)
	}
	c.shardOf = seed.ShardOf
	c.fresh = func(ctx context.Context) (kvClient, error) {
		inst, err := c.addInstance()
		if err != nil {
			return nil, err
		}
		var addrs []string
		for _, nd := range rnodes {
			addrs = append(addrs, nd.Self().Addr)
		}
		return router.Bootstrap(ctx, inst, addrs, routerProvider)
	}
	c.counters = func() map[string]float64 {
		out := map[string]float64{}
		for _, nd := range rnodes {
			st := nd.Stats()
			out["router.redirects"] += float64(st.Redirects)
			out["router.dual_writes"] += float64(st.DualWrites)
			out["router.flips"] += float64(st.Reshards)
		}
		for _, r := range routers {
			redirects, _ := r.Stats()
			out["router.client_redirects"] += float64(redirects)
		}
		return out
	}
	if nodes > owners {
		home, spare := rnodes[0], rnodes[nodes-1]
		var mine []uint32 // node 0's shards at start, ping-ponged in order
		for s, o := range seed.Owners {
			if o == home.Self() {
				mine = append(mine, uint32(s))
			}
		}
		next := 0
		c.flip = func(ctx context.Context) (uint32, error) {
			s := mine[next%len(mine)]
			next++
			src, dst := home, spare
			if home.CurrentMap().Owners[s] != home.Self() {
				src, dst = spare, home
			}
			return s, src.Reshard(ctx, s, dst.Self())
		}
	}
	ok = true
	return c, nil
}

// startRaftGroup starts three instances, an fsync-ing file store for
// each under dir, and on each the member that `member` builds. On an
// error the caller closes the cluster.
func (c *cluster) startRaftGroup(dir string, member func(inst *margo.Instance, peers []string, store *raft.FileStore) (*raft.Node, error)) (nodes []*raft.Node, stores []*raft.FileStore, addrs []string, err error) {
	var insts []*margo.Instance
	for i := 0; i < 3; i++ {
		inst, err := c.addInstance()
		if err != nil {
			return nil, nil, nil, err
		}
		insts = append(insts, inst)
		addrs = append(addrs, inst.Addr())
	}
	for i, inst := range insts {
		fs, err := raft.NewFileStore(filepath.Join(dir, fmt.Sprintf("raft-%d", i)), false)
		if err != nil {
			return nil, nil, nil, err
		}
		c.closers = append(c.closers, func() { _ = fs.Close() })
		nd, err := member(inst, addrs, fs)
		if err != nil {
			return nil, nil, nil, err
		}
		c.closers = append(c.closers, nd.Stop)
		nodes = append(nodes, nd)
		stores = append(stores, fs)
	}
	return nodes, stores, addrs, nil
}

// newRaftCluster starts a 3-member RaftKV group on fsync-ing file
// stores and `clients` sessions, each on its own instance.
func newRaftCluster(dir string, clients int) (*cluster, error) {
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	nodes, stores, addrs, err := c.startRaftGroup(dir, func(inst *margo.Instance, peers []string, store *raft.FileStore) (*raft.Node, error) {
		db, err := yokan.Open(yokan.Config{Type: "map"})
		if err != nil {
			return nil, err
		}
		c.closers = append(c.closers, func() { _ = db.Close() })
		return core.NewRaftKVNode(inst, raftGroup, peers, store, db, raft.Config{})
	})
	if err != nil {
		return nil, err
	}
	newSession := func() (kvClient, error) {
		inst, err := c.addInstance()
		if err != nil {
			return nil, err
		}
		return core.NewRaftKVClient(inst, raftGroup, addrs), nil
	}
	for i := 0; i < clients; i++ {
		kv, err := newSession()
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, kv)
	}
	c.fresh = func(context.Context) (kvClient, error) { return newSession() }
	c.counters = func() map[string]float64 {
		out := map[string]float64{}
		for i, nd := range nodes {
			if !nd.IsLeader() {
				continue
			}
			out["fsyncs"] = float64(stores[i].Syncs())
			reg := c.insts[i]
			out["batch_sum"], out["batch_count"] = familyTotals(reg, "mochi_raft_batch_entries")
			out["commit_sum"], out["commit_count"] = familyTotals(reg, "mochi_raft_commit_latency_seconds")
			out["read_rounds"], _ = familyTotals(reg, "mochi_raft_readindex_rounds_total")
		}
		return out
	}
	ok = true
	return c, nil
}

// familyTotals sums a metric family over all its series: sum and
// count of a histogram's observations, or in sum the value of a counter.
func familyTotals(inst *margo.Instance, family string) (sum, count float64) {
	for _, f := range inst.Metrics().Snapshot() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if s.Hist != nil {
				sum += s.Hist.Sum
				count += float64(s.Hist.Count)
			} else {
				sum += s.Value
			}
		}
	}
	return sum, count
}

// --- tracing -------------------------------------------------------

// span is the benchmark's own view of a trace span: its own request
// spans and the ones the instances recorded share this shape.
type span struct {
	TraceID, ID, Parent uint64
	Name, Kind, Process string
	Start, Dur          int64 // unix ns, ns
}

// kindOp marks a span the benchmark recorded around one client call.
const kindOp = "op"

// setTracing switches the existing tracer of every instance on (head
// sampling 1, ring enlarged, ring cleared) or back off.
func (c *cluster) setTracing(on bool) {
	for _, inst := range c.insts {
		tr := inst.Tracer()
		if on {
			tr.SetCapacity(traceCapacity)
			tr.Reset()
			tr.SetSampleRate(1)
		} else {
			tr.SetSampleRate(0)
		}
	}
}

// spans returns what every instance recorded, and the instant from
// which all rings are complete: a ring that overflowed has lost what
// came before its oldest span.
func (c *cluster) spans() (out []span, completeFrom int64) {
	for _, inst := range c.insts {
		tr := inst.Tracer()
		ss := tr.Spans()
		if tr.Evicted() > 0 && len(ss) > 0 && ss[0].Start > completeFrom {
			completeFrom = ss[0].Start
		}
		for _, s := range ss {
			out = append(out, span{
				TraceID: uint64(s.TraceID), ID: uint64(s.SpanID), Parent: uint64(s.Parent),
				Name: s.Name, Kind: string(s.Kind), Process: s.Process,
				Start: s.Start, Dur: s.Duration,
			})
		}
	}
	return out, completeFrom
}

// withSpan makes the calls under ctx children of the benchmark's span.
func withSpan(ctx context.Context, traceID, spanID uint64) context.Context {
	return trace.NewContext(ctx, trace.SpanContext{
		TraceID: trace.ID(traceID), Parent: trace.ID(spanID), Flags: trace.FlagSampled,
	})
}

// writeChromeTrace writes spans in Chrome trace-event format.
func writeChromeTrace(path string, spans []span) error {
	ts := make([]trace.Span, len(spans))
	for i, s := range spans {
		ts[i] = trace.Span{
			TraceID: trace.ID(s.TraceID), SpanID: trace.ID(s.ID), Parent: trace.ID(s.Parent),
			Name: s.Name, Kind: trace.Kind(s.Kind), Process: s.Process,
			Start: s.Start, Duration: s.Dur,
		}
	}
	doc, err := trace.ChromeJSON(ts)
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

// --- ladder probes -------------------------------------------------

// probe is one rung of the latency ladder: a public call of one layer,
// timed from outside with one call in flight.
type probe struct {
	op func() error
	// counters returns cumulative counters of the layer under the
	// probe (nil when the rung has none).
	counters func() map[string]float64
	close    func()
}

func (p *probe) addCloser(f func()) {
	prev := p.close
	p.close = func() {
		f()
		if prev != nil {
			prev()
		}
	}
}

// probeInstances starts a server and a client instance for a probe.
func probeInstances(p *probe) (server, client *margo.Instance, err error) {
	if server, err = newInstance(); err != nil {
		return nil, nil, err
	}
	p.addCloser(server.Finalize)
	if client, err = newInstance(); err != nil {
		p.close()
		return nil, nil, err
	}
	p.addCloser(client.Finalize)
	return server, client, nil
}

// probeCodec round-trips a key+value message through the pooled
// encoder and decoder.
func probeCodec(key, value []byte) *probe {
	return &probe{
		op: func() error {
			e := codec.GetEncoder()
			e.BytesField(key)
			e.BytesField(value)
			d := codec.GetDecoder(e.Bytes())
			k, v := d.BytesField(), d.BytesField()
			err := d.Finish()
			if err == nil && (len(k) != len(key) || len(v) != len(value)) {
				err = fmt.Errorf("codec: round trip changed lengths")
			}
			codec.PutDecoder(d)
			codec.PutEncoder(e)
			return err
		},
		counters: func() map[string]float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return map[string]float64{"mallocs": float64(m.Mallocs)}
		},
	}
}

// probeClasses starts a server and a client mercury class for a probe.
func probeClasses(p *probe) (server, client *mercury.Class, err error) {
	if server, err = mercury.NewTCPClass("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	p.addCloser(func() { _ = server.Close() })
	if client, err = mercury.NewTCPClass("127.0.0.1:0"); err != nil {
		p.close()
		return nil, nil, err
	}
	p.addCloser(func() { _ = client.Close() })
	return server, client, nil
}

// probeMercuryRTT echoes a payload through Class.Forward.
func probeMercuryRTT(payload []byte) (*probe, error) {
	p := &probe{}
	srv, cli, err := probeClasses(p)
	if err != nil {
		return nil, err
	}
	id := srv.Register("bench_echo", func(h *mercury.Handle) { _ = h.Respond(h.Input()) })
	ctx := context.Background()
	p.op = func() error {
		out, err := cli.Forward(ctx, srv.Addr(), id, payload)
		if err == nil && len(out) != len(payload) {
			err = fmt.Errorf("mercury: echo returned %d bytes, want %d", len(out), len(payload))
		}
		return err
	}
	return p, nil
}

// probeMercuryBulk pulls a registered region of `size` bytes.
func probeMercuryBulk(size int) (*probe, error) {
	p := &probe{}
	srv, cli, err := probeClasses(p)
	if err != nil {
		return nil, err
	}
	remote := srv.CreateBulk(make([]byte, size), mercury.BulkReadOnly)
	p.addCloser(remote.Free)
	local := cli.CreateBulk(make([]byte, size), mercury.BulkReadWrite)
	p.addCloser(local.Free)
	desc := remote.Descriptor()
	ctx := context.Background()
	p.op = func() error {
		return cli.BulkTransfer(ctx, mercury.BulkPull, desc, 0, local, 0, uint64(size))
	}
	return p, nil
}

// probeArgobots pushes a no-op ULT on an instance's RPC pool and joins
// it, with pool wait sampling on.
func probeArgobots() (*probe, error) {
	p := &probe{}
	inst, err := newInstance()
	if err != nil {
		return nil, err
	}
	p.addCloser(inst.Finalize)
	inst.Runtime().EnableWaitSampling(inst.Metrics())
	pool := inst.RPCPool()
	p.op = func() error {
		th, err := pool.Push(func() {})
		if err != nil {
			return err
		}
		th.Join()
		return nil
	}
	p.counters = func() map[string]float64 {
		sum, count := familyTotals(inst, "mochi_pool_wait_seconds")
		return map[string]float64{"wait_sum": sum, "wait_count": count}
	}
	return p, nil
}

// probeMargo forwards a payload to an echoing margo handler.
func probeMargo(payload []byte) (*probe, error) {
	p := &probe{}
	srv, cli, err := probeInstances(p)
	if err != nil {
		return nil, err
	}
	const rpc = "bench_echo"
	if _, err := srv.Register(rpc, func(_ context.Context, h *mercury.Handle) { _ = h.Respond(h.Input()) }); err != nil {
		p.close()
		return nil, err
	}
	ctx := context.Background()
	p.op = func() error {
		out, err := cli.ForwardProvider(ctx, srv.Addr(), rpc, mercury.AnyProvider, payload)
		if err == nil && len(out) != len(payload) {
			err = fmt.Errorf("margo: echo returned %d bytes, want %d", len(out), len(payload))
		}
		return err
	}
	p.counters = func() map[string]float64 {
		qs, qc := familyTotals(srv, "mochi_rpc_handler_queue_seconds")
		hs, hc := familyTotals(srv, "mochi_rpc_handler_runtime_seconds")
		return map[string]float64{"queue_sum": qs, "queue_count": qc, "handler_sum": hs, "handler_count": hc}
	}
	return p, nil
}

// probeYokanDB returns direct Put and Get probes on one map database.
func probeYokanDB(keys [][]byte, value []byte) (put, get *probe, err error) {
	db, err := yokan.Open(yokan.Config{Type: "map"})
	if err != nil {
		return nil, nil, err
	}
	for _, k := range keys {
		if err := db.Put(k, value); err != nil {
			_ = db.Close()
			return nil, nil, err
		}
	}
	i, j := 0, 0
	put = &probe{op: func() error { i++; return db.Put(keys[i%len(keys)], value) }}
	get = &probe{op: func() error { j++; _, err := db.Get(keys[j%len(keys)]); return err }}
	get.close = func() { _ = db.Close() }
	return put, get, nil
}

// probeYokanRPC gets preloaded keys through a DatabaseHandle.
func probeYokanRPC(keys [][]byte, value []byte) (*probe, error) {
	p := &probe{}
	srv, cli, err := probeInstances(p)
	if err != nil {
		return nil, err
	}
	const id = 7
	prov, err := yokan.NewProvider(srv, id, nil, yokan.Config{Type: "map"})
	if err != nil {
		p.close()
		return nil, err
	}
	p.addCloser(func() { _ = prov.Close() })
	h := yokan.NewClient(cli).Handle(srv.Addr(), id)
	ctx := context.Background()
	for _, k := range keys {
		if err := h.Put(ctx, k, value); err != nil {
			p.close()
			return nil, err
		}
	}
	i := 0
	p.op = func() error { i++; _, err := h.Get(ctx, keys[i%len(keys)]); return err }
	return p, nil
}

// probeRouterLookup resolves keys on an 8-shard, 3-owner map.
func probeRouterLookup(keys [][]byte) (*probe, error) {
	owners := []router.Owner{{Addr: "tcp://a", Provider: 1}, {Addr: "tcp://b", Provider: 1}, {Addr: "tcp://c", Provider: 1}}
	m, err := router.NewMap(8, owners, 0)
	if err != nil {
		return nil, err
	}
	i := 0
	return &probe{op: func() error {
		i++
		if _, o := m.OwnerOf(keys[i%len(keys)]); o.Addr == "" {
			return fmt.Errorf("router: key has no owner")
		}
		return nil
	}}, nil
}

// probeRaftAppend appends one entry per call to an fsync-ing FileStore.
func probeRaftAppend(dir string, value []byte) (*probe, error) {
	fs, err := raft.NewFileStore(dir, false)
	if err != nil {
		return nil, err
	}
	idx := fs.LastIndex()
	return &probe{
		op: func() error {
			idx++
			return fs.Append([]raft.LogEntry{{Index: idx, Term: 1, Type: raft.EntryCommand, Data: value}})
		},
		close: func() { _ = fs.Close() },
	}, nil
}

// nullFSM applies nothing, so Node.Apply and Node.Read measure the
// raft layer alone.
type nullFSM struct{}

func (nullFSM) Apply(uint64, []byte) []byte { return nil }
func (nullFSM) Snapshot() ([]byte, error)   { return nil, nil }
func (nullFSM) Restore([]byte) error        { return nil }
func (nullFSM) Read([]byte) []byte          { return nil }

// probeRaftNode starts a 3-member group with a null state machine and
// returns probes calling Apply and Read on its leader.
func probeRaftNode(ctx context.Context, dir string, value []byte) (apply, read *probe, err error) {
	c := &cluster{}
	nodes, _, _, err := c.startRaftGroup(dir, func(inst *margo.Instance, peers []string, store *raft.FileStore) (*raft.Node, error) {
		return raft.NewNode(inst, raftGroup, peers, store, nullFSM{}, raft.Config{})
	})
	if err != nil {
		c.close()
		return nil, nil, err
	}
	// The leader is whichever member wins the election; wait for it and
	// for its first entry to commit.
	var leader *raft.Node
	for leader == nil {
		for _, nd := range nodes {
			if nd.IsLeader() {
				if _, err := nd.Apply(ctx, value); err == nil {
					leader = nd
				}
			}
		}
		if leader == nil {
			select {
			case <-ctx.Done():
				c.close()
				return nil, nil, fmt.Errorf("raft: no leader: %w", ctx.Err())
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	apply = &probe{op: func() error { _, err := leader.Apply(ctx, value); return err }}
	read = &probe{op: func() error { _, err := leader.Read(ctx, value); return err }, close: c.close}
	return apply, read, nil
}

// probeRemi migrates a file set of one `size`-byte file per call.
func probeRemi(dir string, size int) (*probe, error) {
	p := &probe{}
	srv, cli, err := probeInstances(p)
	if err != nil {
		return nil, err
	}
	const id = 9
	prov, err := remi.NewProvider(srv, id, nil, filepath.Join(dir, "in"))
	if err != nil {
		p.close()
		return nil, err
	}
	p.addCloser(func() { _ = prov.Close() })
	root := filepath.Join(dir, "out")
	path := filepath.Join(root, "shard.snap")
	if err := os.MkdirAll(root, 0o755); err == nil {
		err = os.WriteFile(path, make([]byte, size), 0o644)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	fs, err := remi.BuildFileSet("bench", root, []string{path}, nil)
	if err != nil {
		p.close()
		return nil, err
	}
	client := remi.NewClient(cli)
	ctx := context.Background()
	p.op = func() error {
		st, err := client.Migrate(ctx, srv.Addr(), id, fs, remi.Options{})
		if err == nil && st.Bytes != int64(size) {
			err = fmt.Errorf("remi: migrated %d bytes, want %d", st.Bytes, size)
		}
		return err
	}
	return p, nil
}
