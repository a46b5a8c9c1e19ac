package bedrock_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mochi/internal/bedrock"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/yokan"
)

// TestTCPDeployment runs the full bedrock stack over real TCP sockets
// — the cmd/bedrock deployment path — including a provider migration
// between two TCP processes.
func TestTCPDeployment(t *testing.T) {
	srcRoot := t.TempDir()
	dstRoot := t.TempDir()

	srcCls, err := mercury.NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srcCfg := fmt.Sprintf(`{
	  "libraries": {"yokan": "x"},
	  "remi_root": %q,
	  "providers": [
	    {"name": "db", "type": "yokan", "provider_id": 3,
	     "config": {"type": "log", "path": %q, "no_sync": true}}
	  ]
	}`, filepath.Join(srcRoot, "remi"), filepath.Join(srcRoot, "db.log"))
	src, err := bedrock.NewServer(srcCls, []byte(srcCfg))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Shutdown()

	dstCls, err := mercury.NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := bedrock.NewServer(dstCls, []byte(fmt.Sprintf(
		`{"libraries": {"yokan": "x"}, "remi_root": %q}`, dstRoot)))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Shutdown()

	cliCls, err := mercury.NewTCPClass("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(cliCls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Finalize()
	ctx := bctx(t)

	// KV traffic over TCP.
	h := yokan.NewClient(cli).Handle(src.Addr(), 3)
	for i := 0; i < 20; i++ {
		if err := h.Put(ctx, []byte(fmt.Sprintf("t%02d", i)), []byte("tcp")); err != nil {
			t.Fatal(err)
		}
	}

	// Jx9 query over TCP (the cmd/bedrock-query path).
	sh := bedrock.NewClient(cli).MakeServiceHandle(src.Addr())
	out, err := sh.QueryConfig(ctx, `return count($__config__.providers);`)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "1" {
		t.Fatalf("query = %s", out)
	}

	// Migrate the provider between the two TCP processes.
	if err := sh.MigrateProvider(ctx, "db", dst.Addr(), dst.RemiProviderID(), "chunked"); err != nil {
		t.Fatal(err)
	}
	h2 := yokan.NewClient(cli).Handle(dst.Addr(), 3)
	if n, err := h2.Count(ctx); err != nil || n != 20 {
		t.Fatalf("migrated count = %d, %v", n, err)
	}
	if _, err := os.Stat(filepath.Join(srcRoot, "db.log")); !os.IsNotExist(err) {
		t.Fatalf("source file survived the move: %v", err)
	}

	// Remote shutdown (the daemon's exit path).
	if err := sh.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-src.Done():
	case <-ctx.Done():
		t.Fatal("server never shut down")
	}
}
