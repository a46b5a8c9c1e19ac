package modules

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"mochi/internal/bedrock"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/pufferscale"
	"mochi/internal/testutil"
	"mochi/internal/yokan/router"
)

// xkvServerConfig builds a bedrock process description hosting one
// xkv provider. Every member of the keyspace gets the identical
// bootstrap block, so all of them derive the same epoch-1 map without
// coordination.
func xkvServerConfig(owners []string) string {
	b, _ := json.Marshal(owners)
	return fmt.Sprintf(`{
  "libraries": { "xkv": "libxkv.so" },
  "providers": [
    { "name": "keyspace",
      "type": "xkv",
      "provider_id": 40,
      "config": {
        "backend": {"type": "map"},
        "bootstrap": {"shards": 8, "owners": %s}
      } }
  ]
}`, b)
}

// TestXkvModuleBedrockReshard spins up three bedrock processes
// hosting one sharded keyspace (two owners, one spare), routes
// traffic through a client, then moves one shard to the spare via the
// remote reshard RPC and verifies the keyspace is intact under the
// bumped epoch. Every process shows its node's migration pool in its
// live configuration, and shutting the deployment down leaves no
// goroutine behind (the pool's xstream, a commanded reshard).
func TestXkvModuleBedrockReshard(t *testing.T) {
	RegisterBuiltins()
	before := testutil.GoroutineCount()
	t.Run("keyspace", xkvBedrockReshard)
	testutil.WaitGoroutinesSettle(t, before, 2)
}

func xkvBedrockReshard(t *testing.T) {
	f := mercury.NewFabric()
	names := []string{"xkv-bed-0", "xkv-bed-1", "xkv-bed-2"}
	owners := []string{"sm://xkv-bed-0", "sm://xkv-bed-1"}
	cfg := xkvServerConfig(owners)
	for _, name := range names {
		cls, err := f.NewClass(name)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := bedrock.NewServer(cls, []byte(cfg))
		if err != nil {
			t.Fatalf("server %s: %v", name, err)
		}
		t.Cleanup(srv.Shutdown)
		if _, ok := srv.LookupProvider("keyspace"); !ok {
			t.Fatalf("server %s did not start the xkv provider", name)
		}
	}

	cls, err := f.NewClass("xkv-bed-client")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Finalize)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)

	for _, name := range names {
		_, raw, err := bedrock.NewClient(inst).MakeServiceHandle("sm://" + name).GetConfig(ctx)
		if err != nil {
			t.Fatalf("config of %s: %v", name, err)
		}
		for _, want := range []string{`"xkv-40-migration"`, `"xkv-40-migration-es"`} {
			if !strings.Contains(string(raw), want) {
				t.Fatalf("%s's live configuration lacks %s: %s", name, want, raw)
			}
		}
	}

	r, err := router.Bootstrap(ctx, inst, owners, 40)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if err := r.Put(ctx, []byte(k), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}

	// Move shard 0 from its owner to the spare through the same RPC
	// path a pufferscale.Controller uses.
	m := r.Map()
	spare := router.Owner{Addr: "sm://xkv-bed-2", Provider: 40}
	mv := pufferscale.Move{ResourceID: "0", From: m.Owners[0].String(), To: spare.String()}
	if err := router.Migrator(inst)(ctx, mv); err != nil {
		t.Fatalf("remote reshard: %v", err)
	}

	// A stale router must follow the redirect and still see every key.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		v, err := r.Get(ctx, []byte(k))
		if err != nil {
			t.Fatalf("get %s after reshard: %v", k, err)
		}
		if want := fmt.Sprintf("val-%d", i); string(v) != want {
			t.Fatalf("key %s: got %q want %q", k, v, want)
		}
	}
	if err := r.Refresh(ctx); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if got := r.Map(); got.Owners[0] != spare || got.Versions[0] != m.Versions[0]+1 {
		t.Fatalf("shard 0 owned by %v at version %d, want spare %v at %d", got.Owners[0], got.Versions[0], spare, m.Versions[0]+1)
	}
}
