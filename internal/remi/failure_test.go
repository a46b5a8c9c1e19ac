package remi

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"mochi/internal/margo"
)

// TestMigrationDestinationDiesMidTransfer: killing the destination
// while chunks are in flight must surface an error to the source —
// never a silent partial success.
func TestMigrationDestinationDiesMidTransfer(t *testing.T) {
	env := newMigEnv(t)
	files := map[string][]byte{"big.dat": bytes.Repeat([]byte("x"), 1<<20)}
	fs := writeSourceFiles(t, "x", files)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Kill the destination once the chunk stream is under way.
	var chunks atomic.Int32
	env.dst.AddHook(&margo.Hook{OnHandlerStart: func(info margo.RPCInfo, _ time.Duration) {
		if info.Name == rpcChunk && chunks.Add(1) == 8 {
			env.fabric.Kill(env.dst.Addr())
		}
	}})
	_, err := env.client.Migrate(ctx, env.dst.Addr(), 4, fs, Options{
		Method:    MethodChunked,
		ChunkSize: 4 << 10, // many chunks so the kill lands mid-flight
		Pipeline:  2,
	})
	if err == nil {
		t.Fatal("migration reported success despite dead destination")
	}
	// Source files are intact (no RemoveSource happened).
	fs2, err := BuildFileSet("x", fs.Root, []string{fs.Root + "/big.dat"}, nil)
	if err != nil || fs2.TotalBytes() != 1<<20 {
		t.Fatalf("source damaged: %v", err)
	}
}

// TestMigrationChecksumFailureRejectsFileset: a fileset whose declared
// checksums do not match the data is rejected at finalize and the
// callback never fires.
func TestMigrationChecksumFailureRejectsFileset(t *testing.T) {
	env := newMigEnv(t)
	fired := false
	env.prov.OnMigrated(func(context.Context, *FileSet) { fired = true })
	files := map[string][]byte{"f.dat": []byte("correct content")}
	fs := writeSourceFiles(t, "x", files)
	fs.Files[0].CRC++ // corrupt the declared checksum
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := env.client.Migrate(ctx, env.dst.Addr(), 4, fs, Options{Method: MethodChunked}); err == nil {
		t.Fatal("corrupted fileset accepted")
	}
	if _, err := env.client.Migrate(ctx, env.dst.Addr(), 4, fs, Options{Method: MethodBulk}); err == nil {
		t.Fatal("corrupted fileset accepted via bulk")
	}
	if fired {
		t.Fatal("migration callback fired for rejected fileset")
	}
}
