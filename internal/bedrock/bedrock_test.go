package bedrock_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mochi/internal/bedrock"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/modules"
	"mochi/internal/yokan"
)

func init() { modules.RegisterBuiltins() }

// listing3JSON mirrors the paper's Listing 3 structure: a margo
// section, libraries, and a provider list with pools and dependencies.
const listing3JSON = `{
  "margo": {
    "argobots": {
      "pools": [ { "name": "MyPoolX", "type": "fifo_wait", "access": "mpmc" } ],
      "xstreams": [ { "name": "MyES0",
                      "scheduler": { "type": "basic_wait", "pools": ["MyPoolX"] } } ]
    },
    "progress_pool": "MyPoolX",
    "rpc_pool": "MyPoolX"
  },
  "libraries": { "yokan": "libyokan.so" },
  "providers": [
    { "name": "myProviderA",
      "type": "yokan",
      "provider_id": 1,
      "pool": "MyPoolX",
      "config": {"type": "map"} }
  ]
}`

func newServer(t *testing.T, f *mercury.Fabric, name, cfg string) *bedrock.Server {
	t.Helper()
	cls, err := f.NewClass(name)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := bedrock.NewServer(cls, []byte(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

func newClientInst(t *testing.T, f *mercury.Fabric, name string) *margo.Instance {
	t.Helper()
	cls, err := f.NewClass(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Finalize)
	return inst
}

func bctx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestListing3Config(t *testing.T) {
	f := mercury.NewFabric()
	srv := newServer(t, f, "l3", listing3JSON)
	if got := srv.Providers(); len(got) != 1 || got[0] != "myProviderA" {
		t.Fatalf("providers = %v", got)
	}
	// The provider actually serves: a yokan client can use it.
	cli := newClientInst(t, f, "l3-cli")
	h := yokan.NewClient(cli).Handle(srv.Addr(), 1)
	if err := h.Put(bctx(t), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The pool from the config is used.
	pool, ok := srv.Instance().FindPoolByName("MyPoolX")
	if !ok {
		t.Fatal("MyPoolX missing")
	}
	if pool.Executed() == 0 {
		t.Fatal("provider RPCs did not run on the configured pool")
	}
}

func TestListing4RemoteQuery(t *testing.T) {
	f := mercury.NewFabric()
	srv := newServer(t, f, "l4", listing3JSON)
	cli := newClientInst(t, f, "l4-cli")
	sh := bedrock.NewClient(cli).MakeServiceHandle(srv.Addr())
	// The paper's Listing 4 script, verbatim.
	out, err := sh.QueryConfig(bctx(t), `
$result = [];
foreach ($__config__.providers as $p) {
    array_push($result, $p.name); }
return $result;`)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `["myProviderA"]` {
		t.Fatalf("query = %s", out)
	}
}

// TestListing5API exercises the remote reconfiguration sequence of
// the paper's Listing 5: addPool, removePool, loadModule,
// startProvider.
func TestListing5API(t *testing.T) {
	f := mercury.NewFabric()
	srv := newServer(t, f, "l5", listing3JSON)
	cli := newClientInst(t, f, "l5-cli")
	ctx := bctx(t)
	p := bedrock.NewClient(cli).MakeServiceHandle(srv.Addr())

	if err := p.AddPool(ctx, `{"name":"MyPoolY","type":"fifo_wait","access":"mpmc"}`); err != nil {
		t.Fatal(err)
	}
	if err := p.AddXstream(ctx, `{"name":"MyES1","scheduler":{"type":"basic_wait","pools":["MyPoolY"]}}`); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadModule(ctx, "warabi", "libcomponent_b.so"); err != nil {
		t.Fatal(err)
	}
	if err := p.StartProvider(ctx, bedrock.ProviderConfig{
		Name:       "myProviderB",
		Type:       "warabi",
		ProviderID: 2,
		Pool:       "MyPoolY",
		Config:     json.RawMessage(`{"type":"memory"}`),
	}); err != nil {
		t.Fatal(err)
	}
	cfg, _, err := p.GetConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Providers) != 2 {
		t.Fatalf("providers = %+v", cfg.Providers)
	}
	// Pool removal refused while in use, then allowed.
	if err := p.RemovePool(ctx, "MyPoolY"); err == nil {
		t.Fatal("removed pool in use by xstream")
	}
	if err := p.StopProvider(ctx, "myProviderB"); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveXstream(ctx, "MyES1"); err != nil {
		t.Fatal(err)
	}
	if err := p.RemovePool(ctx, "MyPoolY"); err != nil {
		t.Fatal(err)
	}
}

func TestStartProviderUnknownModule(t *testing.T) {
	f := mercury.NewFabric()
	srv := newServer(t, f, "um", "{}")
	err := srv.StartProvider(bedrock.ProviderConfig{Name: "x", Type: "nonexistent"})
	if !errors.Is(err, bedrock.ErrUnknownModule) {
		t.Fatalf("err = %v", err)
	}
	// Registered but not loaded in this process:
	err = srv.StartProvider(bedrock.ProviderConfig{Name: "x", Type: "yokan"})
	if !errors.Is(err, bedrock.ErrModuleNotLoaded) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateProviderRejected(t *testing.T) {
	f := mercury.NewFabric()
	srv := newServer(t, f, "dup", listing3JSON)
	err := srv.StartProvider(bedrock.ProviderConfig{Name: "myProviderA", Type: "yokan", ProviderID: 9})
	if !errors.Is(err, bedrock.ErrProviderExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	f := mercury.NewFabric()
	cls, _ := f.NewClass("cv")
	for _, bad := range []string{
		`{"providers":[{"name":"a","type":"yokan","provider_id":1},{"name":"a","type":"yokan","provider_id":2}]}`,
		`{"providers":[{"name":"a","type":"yokan","provider_id":1},{"name":"b","type":"yokan","provider_id":1}]}`,
		`{"providers":[{"name":"","type":"yokan"}]}`,
		`{not json`,
	} {
		if _, err := bedrock.NewServer(cls, []byte(bad)); err == nil {
			t.Errorf("config accepted: %s", bad)
		}
	}
}

func TestLocalDependencyResolutionOrder(t *testing.T) {
	// Providers listed out of order: B depends on A but appears first.
	cfg := `{
	  "libraries": {"yokan": "x", "poesie": "y"},
	  "providers": [
	    { "name": "needsKV", "type": "poesie", "provider_id": 2,
	      "dependencies": {"kv": "theKV"} },
	    { "name": "theKV", "type": "yokan", "provider_id": 1,
	      "config": {"type":"map"} }
	  ]
	}`
	f := mercury.NewFabric()
	srv := newServer(t, f, "depord", cfg)
	if got := srv.Providers(); len(got) != 2 {
		t.Fatalf("providers = %v", got)
	}
}

func TestMissingDependencyFailsBootstrap(t *testing.T) {
	cfg := `{
	  "libraries": {"poesie": "y"},
	  "providers": [
	    { "name": "needsKV", "type": "poesie", "provider_id": 2,
	      "dependencies": {"kv": "ghost"} }
	  ]
	}`
	f := mercury.NewFabric()
	cls, _ := f.NewClass("depmiss")
	if _, err := bedrock.NewServer(cls, []byte(cfg)); err == nil {
		t.Fatal("bootstrap with missing dependency succeeded")
	}
}

func TestStopPinnedProviderRefused(t *testing.T) {
	cfg := `{
	  "libraries": {"yokan": "x", "poesie": "y"},
	  "providers": [
	    { "name": "theKV", "type": "yokan", "provider_id": 1, "config": {"type":"map"} },
	    { "name": "user", "type": "poesie", "provider_id": 2,
	      "dependencies": {"kv": "theKV"} }
	  ]
	}`
	f := mercury.NewFabric()
	srv := newServer(t, f, "pin", cfg)
	if err := srv.StopProvider("theKV"); !errors.Is(err, bedrock.ErrProviderPinned) {
		t.Fatalf("err = %v", err)
	}
	// Stopping the dependent releases the pin.
	if err := srv.StopProvider("user"); err != nil {
		t.Fatal(err)
	}
	if err := srv.StopProvider("theKV"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCreateDestroyConsistency reproduces the paper's §5
// consistency scenario: client c1 creates provider p1 on node n1
// depending on provider p2 on node n2, while client c2 concurrently
// destroys p2. Exactly one of the two outcomes must hold: both p1 and
// p2 exist (with the dependency pinned), or p2 was destroyed and p1
// was never created.
func TestConcurrentCreateDestroyConsistency(t *testing.T) {
	for round := 0; round < 20; round++ {
		f := mercury.NewFabric()
		n2cfg := `{
		  "libraries": {"yokan": "x"},
		  "providers": [
		    { "name": "p2", "type": "yokan", "provider_id": 7, "config": {"type":"map"} }
		  ]
		}`
		n1 := newServer(t, f, fmt.Sprintf("n1-%d", round), `{"libraries": {"poesie": "y"}}`)
		n2 := newServer(t, f, fmt.Sprintf("n2-%d", round), n2cfg)
		c1 := newClientInst(t, f, fmt.Sprintf("c1-%d", round))
		c2 := newClientInst(t, f, fmt.Sprintf("c2-%d", round))
		ctx := bctx(t)

		sh1 := bedrock.NewClient(c1).MakeServiceHandle(n1.Addr())
		sh2 := bedrock.NewClient(c2).MakeServiceHandle(n2.Addr())

		var wg sync.WaitGroup
		var createErr, destroyErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			createErr = sh1.StartProvider(ctx, bedrock.ProviderConfig{
				Name:       "p1",
				Type:       "poesie",
				ProviderID: 3,
				Dependencies: map[string]string{
					"kv": "yokan:7@" + n2.Addr(),
				},
			})
		}()
		go func() {
			defer wg.Done()
			destroyErr = sh2.StopProvider(ctx, "p2")
		}()
		wg.Wait()

		p1Exists := len(n1.Providers()) == 1
		p2Exists := len(n2.Providers()) == 1
		switch {
		case createErr == nil && destroyErr != nil:
			if !p1Exists || !p2Exists {
				t.Fatalf("round %d: create won but p1=%v p2=%v", round, p1Exists, p2Exists)
			}
		case createErr != nil && destroyErr == nil:
			if p1Exists || p2Exists {
				t.Fatalf("round %d: destroy won but p1=%v p2=%v", round, p1Exists, p2Exists)
			}
		default:
			t.Fatalf("round %d: inconsistent outcome create=%v destroy=%v", round, createErr, destroyErr)
		}
	}
}

func TestMigrateProviderBetweenProcesses(t *testing.T) {
	f := mercury.NewFabric()
	srcRoot := t.TempDir()
	dstRoot := t.TempDir()
	srcCfg := fmt.Sprintf(`{
	  "libraries": {"yokan": "x"},
	  "remi_root": %q,
	  "providers": [
	    { "name": "kvstore", "type": "yokan", "provider_id": 5,
	      "config": {"type":"log", "path": %q, "no_sync": true} }
	  ]
	}`, srcRoot+"/remi", filepath.Join(srcRoot, "db.log"))
	dstCfg := fmt.Sprintf(`{"libraries": {"yokan": "x"}, "remi_root": %q}`, dstRoot)

	src := newServer(t, f, "mig-src", srcCfg)
	dst := newServer(t, f, "mig-dst", dstCfg)
	cli := newClientInst(t, f, "mig-cli")
	ctx := bctx(t)

	// Fill the database.
	h := yokan.NewClient(cli).Handle(src.Addr(), 5)
	for i := 0; i < 50; i++ {
		if err := h.Put(ctx, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Migrate via the bedrock API, as a move.
	sh := bedrock.NewClient(cli).MakeServiceHandle(src.Addr())
	if err := sh.MigrateProvider(ctx, "kvstore", dst.Addr(), dst.RemiProviderID(), "auto"); err != nil {
		t.Fatal(err)
	}

	// The source no longer serves it nor keeps its file; the destination
	// does, with the same provider ID and data.
	if len(src.Providers()) != 0 {
		t.Fatalf("source still has %v", src.Providers())
	}
	if _, err := os.Stat(filepath.Join(srcRoot, "db.log")); !os.IsNotExist(err) {
		t.Fatalf("source file survived the move: %v", err)
	}
	if got := dst.Providers(); len(got) != 1 || got[0] != "kvstore" {
		t.Fatalf("dest providers = %v", got)
	}
	h2 := yokan.NewClient(cli).Handle(dst.Addr(), 5)
	if n, err := h2.Count(ctx); err != nil || n != 50 {
		t.Fatalf("count = %d, %v", n, err)
	}
	v, err := h2.Get(ctx, []byte("k13"))
	if err != nil || string(v) != "v13" {
		t.Fatalf("get = %q, %v", v, err)
	}
}

func TestMigrateInMemoryProviderFails(t *testing.T) {
	f := mercury.NewFabric()
	srv := newServer(t, f, "mig-mem", listing3JSON) // map backend: no files
	cli := newClientInst(t, f, "mig-mem-cli")
	sh := bedrock.NewClient(cli).MakeServiceHandle(srv.Addr())
	err := sh.MigrateProvider(bctx(t), "myProviderA", "sm://nowhere", 0, "auto")
	if err == nil {
		t.Fatal("migrating an in-memory provider succeeded")
	}
}

func TestCheckpointRestoreViaBedrock(t *testing.T) {
	f := mercury.NewFabric()
	dir := t.TempDir()
	srv1 := newServer(t, f, "ck-1", listing3JSON)
	cli := newClientInst(t, f, "ck-cli")
	ctx := bctx(t)
	h := yokan.NewClient(cli).Handle(srv1.Addr(), 1)
	for i := 0; i < 10; i++ {
		if err := h.Put(ctx, []byte(fmt.Sprintf("c%d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	sh1 := bedrock.NewClient(cli).MakeServiceHandle(srv1.Addr())
	if err := sh1.CheckpointProvider(ctx, "myProviderA", dir); err != nil {
		t.Fatal(err)
	}
	// "Another node can be provisioned and restarted with the same
	// components restoring their respective checkpoint" (§7 Obs. 9).
	srv2 := newServer(t, f, "ck-2", listing3JSON)
	sh2 := bedrock.NewClient(cli).MakeServiceHandle(srv2.Addr())
	if err := sh2.RestoreProvider(ctx, "myProviderA", dir); err != nil {
		t.Fatal(err)
	}
	h2 := yokan.NewClient(cli).Handle(srv2.Addr(), 1)
	if n, _ := h2.Count(ctx); n != 10 {
		t.Fatalf("restored count = %d", n)
	}
}

func TestGetConfigReflectsRuntimeChanges(t *testing.T) {
	f := mercury.NewFabric()
	srv := newServer(t, f, "live", listing3JSON)
	cli := newClientInst(t, f, "live-cli")
	ctx := bctx(t)
	sh := bedrock.NewClient(cli).MakeServiceHandle(srv.Addr())
	if err := sh.AddPool(ctx, `{"name":"late","type":"fifo_wait"}`); err != nil {
		t.Fatal(err)
	}
	_, raw, err := sh.GetConfig(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"late"`) {
		t.Fatalf("config missing late pool: %s", raw)
	}
}

func TestRemoteShutdown(t *testing.T) {
	f := mercury.NewFabric()
	srv := newServer(t, f, "shut", listing3JSON)
	cli := newClientInst(t, f, "shut-cli")
	sh := bedrock.NewClient(cli).MakeServiceHandle(srv.Addr())
	if err := sh.Shutdown(bctx(t)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("server never shut down")
	}
}

func TestQueryConfigCountPools(t *testing.T) {
	f := mercury.NewFabric()
	srv := newServer(t, f, "qp", listing3JSON)
	cli := newClientInst(t, f, "qp-cli")
	sh := bedrock.NewClient(cli).MakeServiceHandle(srv.Addr())
	out, err := sh.QueryConfig(bctx(t), `return count($__config__.margo.argobots.pools);`)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "1" {
		t.Fatalf("pool count = %s", out)
	}
}

func TestParseDependencySpec(t *testing.T) {
	typ, id, addr, remote := bedrock.ParseDependencySpec("yokan:3@sm://node2")
	if !remote || typ != "yokan" || id != 3 || addr != "sm://node2" {
		t.Fatalf("parsed %q %d %q %v", typ, id, addr, remote)
	}
	typ, id, addr, remote = bedrock.ParseDependencySpec("yokan:12@tcp://127.0.0.1:9000")
	if !remote || id != 12 || addr != "tcp://127.0.0.1:9000" {
		t.Fatalf("tcp parse: %q %d %q %v", typ, id, addr, remote)
	}
	if _, _, _, remote := bedrock.ParseDependencySpec("localName"); remote {
		t.Fatal("local name parsed as remote")
	}
	if _, _, _, remote := bedrock.ParseDependencySpec("bad:xx@addr"); remote {
		t.Fatal("bad id parsed as remote")
	}
}
