package margo

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mochi/internal/argobots"
	"mochi/internal/clock"
	"mochi/internal/mercury"
	"mochi/internal/testutil"
)

// listing2JSON is the paper's Listing 2 configuration, verbatim in
// structure (pool MyPoolX, xstream MyES0 with a basic scheduler).
const listing2JSON = `{
  "argobots": {
    "pools": [ { "name": "MyPoolX",
                 "type": "fifo_wait",
                 "access": "mpmc" } ],
    "xstreams": [ { "name": "MyES0",
                    "scheduler": {
                      "type": "basic",
                      "pools": ["MyPoolX"] } } ]
  }
}`

func newInstance(t *testing.T, f *mercury.Fabric, name string, cfg string) *Instance {
	t.Helper()
	cls, err := f.NewClass(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(cls, []byte(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Finalize)
	return inst
}

func shortCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestListing2Config(t *testing.T) {
	f := mercury.NewFabric()
	inst := newInstance(t, f, "l2", listing2JSON)
	p, ok := inst.FindPoolByName("MyPoolX")
	if !ok {
		t.Fatal("MyPoolX not found")
	}
	if p.Kind() != argobots.PoolFIFOWait || p.Access() != argobots.AccessMPMC {
		t.Fatalf("pool config lost: %v/%v", p.Kind(), p.Access())
	}
	x, ok := inst.Runtime().FindXstream("MyES0")
	if !ok {
		t.Fatal("MyES0 not found")
	}
	if x.Sched() != argobots.SchedBasic {
		t.Fatalf("sched = %v", x.Sched())
	}
}

func TestEchoThroughMargo(t *testing.T) {
	f := mercury.NewFabric()
	server := newInstance(t, f, "srv", listing2JSON)
	client := newInstance(t, f, "cli", "")
	if _, err := server.Register("echo", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(h.Input())
	}); err != nil {
		t.Fatal(err)
	}
	out, err := client.Forward(shortCtx(t), server.Addr(), "echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hello" {
		t.Fatalf("got %q", out)
	}
}

func TestProviderPoolsReceiveULTs(t *testing.T) {
	// Figure 2: provider A and B on Pool X, provider C on Pool Y.
	cfg := `{
	  "argobots": {
	    "pools": [
	      {"name": "PoolX", "type": "fifo_wait"},
	      {"name": "PoolY", "type": "fifo_wait"},
	      {"name": "PoolZ", "type": "fifo_wait"}
	    ],
	    "xstreams": [
	      {"name": "ES0", "scheduler": {"type": "basic_wait", "pools": ["PoolX","PoolY"]}},
	      {"name": "ES1", "scheduler": {"type": "basic_wait", "pools": ["PoolZ"]}}
	    ]
	  },
	  "progress_pool": "PoolZ",
	  "rpc_pool": "PoolX"
	}`
	f := mercury.NewFabric()
	server := newInstance(t, f, "fig2", cfg)
	client := newInstance(t, f, "fig2-cli", "")
	poolX, _ := server.FindPoolByName("PoolX")
	poolY, _ := server.FindPoolByName("PoolY")

	for pid, pool := range map[uint16]*argobots.Pool{1: poolX, 2: poolX, 3: poolY} {
		pid := pid
		if _, err := server.RegisterProvider("work", pid, pool, func(_ context.Context, h *mercury.Handle) {
			_ = h.Respond([]byte{byte(pid)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, pid := range []uint16{1, 2, 3} {
		out, err := client.ForwardProvider(shortCtx(t), server.Addr(), "work", pid, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != byte(pid) {
			t.Fatalf("provider %d answered %d", pid, out[0])
		}
	}
	if poolX.Executed() < 2 {
		t.Fatalf("PoolX executed %d ULTs, want ≥2", poolX.Executed())
	}
	if poolY.Executed() < 1 {
		t.Fatalf("PoolY executed %d ULTs, want ≥1", poolY.Executed())
	}
}

func TestDuplicateProviderRegistrationRejected(t *testing.T) {
	f := mercury.NewFabric()
	inst := newInstance(t, f, "dup", "")
	reg := func() error {
		_, err := inst.RegisterProvider("rpc", 1, nil, func(_ context.Context, h *mercury.Handle) {
			_ = h.Respond(nil)
		})
		return err
	}
	if err := reg(); err != nil {
		t.Fatal(err)
	}
	if err := reg(); !errors.Is(err, ErrProviderRegistered) {
		t.Fatalf("err = %v", err)
	}
	inst.DeregisterProvider("rpc", 1)
	if err := reg(); err != nil {
		t.Fatalf("re-register after deregister: %v", err)
	}
}

func TestOnlineReconfiguration(t *testing.T) {
	// Paper §5 / Listing 5: add a pool and an ES at run time, start a
	// provider on the new pool, then tear them down in order.
	f := mercury.NewFabric()
	inst := newInstance(t, f, "reconf", listing2JSON)
	client := newInstance(t, f, "reconf-cli", "")

	p, err := inst.AddPoolFromJSON([]byte(`{"name":"HotPool","type":"fifo_wait","access":"mpmc"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.AddXstreamFromJSON([]byte(`{"name":"HotES","scheduler":{"type":"basic_wait","pools":["HotPool"]}}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.RegisterProvider("hot", 5, p, func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond([]byte("hot"))
	}); err != nil {
		t.Fatal(err)
	}
	out, err := client.ForwardProvider(shortCtx(t), inst.Addr(), "hot", 5, nil)
	if err != nil || string(out) != "hot" {
		t.Fatalf("out=%q err=%v", out, err)
	}

	// Removal is refused while in use, then succeeds after teardown.
	if err := inst.RemovePool("HotPool"); !errors.Is(err, argobots.ErrPoolInUse) {
		t.Fatalf("remove in-use pool: %v", err)
	}
	inst.DeregisterProvider("hot", 5)
	if err := inst.RemoveXstream("HotES"); err != nil {
		t.Fatal(err)
	}
	if err := inst.RemovePool("HotPool"); err != nil {
		t.Fatal(err)
	}
	// The live config must reflect the changes.
	raw, err := inst.GetConfig()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "HotPool") {
		t.Fatal("removed pool still in GetConfig output")
	}
}

func TestGetConfigRoundTrips(t *testing.T) {
	f := mercury.NewFabric()
	inst := newInstance(t, f, "cfg", listing2JSON)
	raw, err := inst.GetConfig()
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Argobots.Pools) != 1 || cfg.Argobots.Pools[0].Name != "MyPoolX" {
		t.Fatalf("config = %s", raw)
	}
	// The emitted config must be accepted by New.
	cls, err := f.NewClass("cfg2")
	if err != nil {
		t.Fatal(err)
	}
	inst2, err := New(cls, raw)
	if err != nil {
		t.Fatalf("GetConfig output rejected: %v", err)
	}
	inst2.Finalize()
}

func TestBadConfigRejected(t *testing.T) {
	f := mercury.NewFabric()
	cls, _ := f.NewClass("bad")
	if _, err := New(cls, []byte(`{not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := New(cls, []byte(`{"argobots":{"pools":[{"name":"p"}],"xstreams":[]},"progress_pool":"ghost"}`)); err == nil {
		t.Fatal("missing progress pool accepted")
	}
}

func TestMonitoringStatsListing1Schema(t *testing.T) {
	f := mercury.NewFabric()
	server := newInstance(t, f, "mon-srv", "")
	client := newInstance(t, f, "mon-cli", "")
	server.EnableMonitoring()
	client.EnableMonitoring()
	if _, err := server.RegisterProvider("echo", 42, nil, func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(h.Input())
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.ForwardProvider(shortCtx(t), server.Addr(), "echo", 42, []byte("abc")); err != nil {
			t.Fatal(err)
		}
	}

	// Origin side: client recorded 3 sends to the server.
	cs := client.Stats()
	st, ok := cs.FindByName("echo")
	if !ok {
		t.Fatalf("client has no echo stats: %v", cs.Keys())
	}
	os, ok := st.Origin["sent to "+server.Addr()]
	if !ok {
		t.Fatalf("origin keys: %v", st.Origin)
	}
	if os.Duration.Num != 3 || os.Bytes.Sum != 9 {
		t.Fatalf("origin stats = %+v", os)
	}

	// Target side: server recorded 3 ULT executions from the client,
	// keyed with the Listing 1 sentinel parent IDs.
	ss := server.Stats()
	tst, ok := ss.FindByName("echo")
	if !ok {
		t.Fatalf("server has no echo stats: %v", ss.Keys())
	}
	if tst.ParentRPCID != 0xFFFFFFFF || tst.ParentProviderID != 0xFFFF {
		t.Fatalf("parent sentinels: %+v", tst)
	}
	if tst.ProviderID != 42 {
		t.Fatalf("provider id = %d", tst.ProviderID)
	}
	ts, ok := tst.Target["received from "+client.Addr()]
	if !ok {
		t.Fatalf("target keys: %v", tst.Target)
	}
	if ts.ULT.Duration.Num != 3 {
		t.Fatalf("ult duration num = %d", ts.ULT.Duration.Num)
	}
	if ts.ULT.Duration.Max < ts.ULT.Duration.Min {
		t.Fatal("max < min")
	}

	// JSON output parses and contains the Listing 1 landmarks.
	raw, err := ss.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rpcs"`, `"rpc_id"`, `"provider_id"`, `"parent_rpc_id"`, `"ult"`, `"duration"`, `"num"`, `"avg"`, `"max"`, `"received from `} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("stats JSON missing %s", want)
		}
	}
}

// TestNestedRPCChainOverTCP runs client → B → A → B over TCP with one
// connection per destination, so A's request to B and B's reply to A
// share connections with the chain's other hops. Requests complete in
// the goroutine that reads them, straight into the argobots pool: the
// chain finishes as long as B has an xstream free for the inner call
// while another one holds the outer.
func TestNestedRPCChainOverTCP(t *testing.T) {
	const twoXstreams = `{
	  "argobots": {
	    "pools": [ {"name": "P", "type": "fifo_wait", "access": "mpmc"} ],
	    "xstreams": [
	      {"name": "ES0", "scheduler": {"type": "basic_wait", "pools": ["P"]}},
	      {"name": "ES1", "scheduler": {"type": "basic_wait", "pools": ["P"]}}
	    ]
	  }
	}`
	newTCP := func(cfg string) *Instance {
		cls, err := mercury.NewTCPClassOptions("127.0.0.1:0", mercury.TCPOptions{PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		inst, err := New(cls, []byte(cfg))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Finalize)
		return inst
	}
	client, a, b := newTCP(""), newTCP(twoXstreams), newTCP(twoXstreams)
	relay := func(self *Instance, next, dst string) Handler {
		return func(ctx context.Context, h *mercury.Handle) {
			out, err := self.Forward(ctx, dst, next, h.Input())
			if err != nil {
				_ = h.RespondError(err)
				return
			}
			_ = h.Respond(append(out, self.Addr()...))
		}
	}
	register := func(inst *Instance, name string, h Handler) {
		if _, err := inst.Register(name, h); err != nil {
			t.Fatal(err)
		}
	}
	register(b, "outer", relay(b, "mid", a.Addr()))
	register(a, "mid", relay(a, "inner", b.Addr()))
	register(b, "inner", func(_ context.Context, h *mercury.Handle) { _ = h.Respond(h.Input()) })
	want := "x" + a.Addr() + b.Addr()
	for i := 0; i < 10; i++ {
		out, err := client.Forward(shortCtx(t), b.Addr(), "outer", []byte("x"))
		if err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
		if string(out) != want {
			t.Fatalf("chain %d answered %q, want %q", i, out, want)
		}
	}
}

func TestNestedRPCRecordsParent(t *testing.T) {
	f := mercury.NewFabric()
	a := newInstance(t, f, "nest-a", "")
	b := newInstance(t, f, "nest-b", "")
	c := newInstance(t, f, "nest-c", "")
	b.EnableMonitoring()

	if _, err := c.RegisterProvider("leaf", 2, nil, func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(nil)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterProvider("mid", 1, nil, func(ctx context.Context, h *mercury.Handle) {
		// The nested forward must inherit ctx so the parent is known.
		if _, err := b.ForwardProvider(ctx, c.Addr(), "leaf", 2, nil); err != nil {
			_ = h.RespondError(err)
			return
		}
		_ = h.Respond(nil)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ForwardProvider(shortCtx(t), b.Addr(), "mid", 1, nil); err != nil {
		t.Fatal(err)
	}

	stats := b.Stats()
	var leaf *RPCStats
	for _, k := range stats.Keys() {
		if stats.RPCs[k].Name == "leaf" {
			leaf = stats.RPCs[k]
		}
	}
	if leaf == nil {
		t.Fatalf("no leaf stats: %v", stats.Keys())
	}
	if leaf.ParentRPCID != uint32(mercury.NameToID("mid")) || leaf.ParentProviderID != 1 {
		t.Fatalf("parent not recorded: %+v", leaf)
	}
}

func TestMonitoringProgressSamples(t *testing.T) {
	f := mercury.NewFabric()
	cls, err := f.NewClass("sampler")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(cls, []byte(`{"enable_monitoring": true, "monitoring_sample_ms": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(inst.Stats().Samples) >= 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	samples := inst.Stats().Samples
	if len(samples) < 3 {
		t.Fatalf("only %d samples", len(samples))
	}
	if _, ok := samples[0].PoolSizes["__primary__"]; !ok {
		t.Fatalf("sample lacks pool sizes: %+v", samples[0])
	}
}

// TestStatsRecordedWithoutEnabling: per-RPC statistics need no switch;
// EnableMonitoring starts only the progress sampler.
func TestStatsRecordedWithoutEnabling(t *testing.T) {
	f := mercury.NewFabric()
	server := newInstance(t, f, "off-srv", "")
	cls, err := f.NewClass("off-cli")
	if err != nil {
		t.Fatal(err)
	}
	sim := clock.NewSim(time.Time{})
	client, err := NewWithClock(cls, []byte(`{"monitoring_sample_ms": 10}`), sim)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Finalize()
	if _, err := server.Register("echo", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(nil)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Forward(shortCtx(t), server.Addr(), "echo", nil); err != nil {
		t.Fatal(err)
	}
	st, ok := client.Stats().FindByName("echo")
	if !ok || st.Origin["sent to "+server.Addr()].Duration.Num != 1 {
		t.Fatalf("forward not recorded without EnableMonitoring: %+v", st)
	}
	sim.Advance(time.Second)
	if n, timers := len(client.Stats().Samples), sim.PendingTimers(); n != 0 || timers != 0 {
		t.Fatalf("before EnableMonitoring: %d progress samples, %d timers", n, timers)
	}
	client.EnableMonitoring()
	if !sim.WaitForWaiters(1, 5*time.Second) {
		t.Fatal("sampler never armed its ticker")
	}
}

func TestUserHooksInjection(t *testing.T) {
	f := mercury.NewFabric()
	server := newInstance(t, f, "hook-srv", "")
	client := newInstance(t, f, "hook-cli", "")
	if _, err := server.Register("echo", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(nil)
	}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []string
	remove := client.AddHook(&Hook{
		OnForwardStart: func(i RPCInfo) {
			mu.Lock()
			events = append(events, "start:"+i.Name)
			mu.Unlock()
		},
		OnForwardEnd: func(i RPCInfo, _ time.Duration, _ error) {
			mu.Lock()
			events = append(events, "end:"+i.Name)
			mu.Unlock()
		},
	})
	if _, err := client.Forward(shortCtx(t), server.Addr(), "echo", nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := strings.Join(events, ",")
	mu.Unlock()
	if got != "start:echo,end:echo" {
		t.Fatalf("events = %q", got)
	}
	remove()
	if _, err := client.Forward(shortCtx(t), server.Addr(), "echo", nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(events)
	mu.Unlock()
	if n != 2 {
		t.Fatal("hook fired after removal")
	}
}

func TestForwardErrorCountsInStats(t *testing.T) {
	f := mercury.NewFabric()
	client := newInstance(t, f, "err-cli", "")
	client.EnableMonitoring()
	_, err := client.Forward(shortCtx(t), "sm://ghost", "echo", nil)
	if err == nil {
		t.Fatal("forward to ghost succeeded")
	}
	st, ok := client.Stats().FindByName("echo")
	if !ok {
		t.Fatal("no stats for failed rpc")
	}
	if st.Origin["sent to sm://ghost"].Errors != 1 {
		t.Fatalf("errors = %d", st.Origin["sent to sm://ghost"].Errors)
	}
}

func TestFinalizeStopsEverything(t *testing.T) {
	before := testutil.GoroutineCount()
	f := mercury.NewFabric()
	cls, _ := f.NewClass("fin")
	inst, err := New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.EnableMonitoring()
	// Run a forward so the dispatch path (xstreams, pools, reply
	// plumbing) actually spins up before teardown.
	if _, err := inst.Register("echo", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(h.Input())
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Forward(shortCtx(t), inst.Addr(), "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	inst.Finalize()
	inst.Finalize() // idempotent
	if !inst.Finalized() {
		t.Fatal("not finalized")
	}
	if _, err := inst.Register("late", func(_ context.Context, h *mercury.Handle) {}); !errors.Is(err, ErrFinalized) {
		t.Fatalf("err = %v", err)
	}
	cls.Close()
	// Every xstream, monitor, and transport goroutine must be reaped.
	testutil.WaitGoroutinesSettle(t, before, 2)
}

// BenchmarkMargoEcho is one in-process echo forward, both sides
// recording Listing 1 and the mochi_rpc_* families: the per-RPC cost of
// the introspection record (EXPERIMENTS.md E1).
func BenchmarkMargoEcho(b *testing.B) {
	f := mercury.NewFabric()
	scls, _ := f.NewClass("bsrv")
	ccls, _ := f.NewClass("bcli")
	server, err := New(scls, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer server.Finalize()
	client, err := New(ccls, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Finalize()
	if _, err := server.Register("echo", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(h.Input())
	}); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 128)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Forward(ctx, server.Addr(), "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}
