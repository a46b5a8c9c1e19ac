package remi

import (
	"bytes"
	"context"
	"hash/crc32"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mochi/internal/clock"
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
	// Source files are intact.
	fs2, err := BuildFileSet("x", fs.Root, []string{fs.Root + "/big.dat"}, nil)
	if err != nil || fs2.TotalBytes() != 1<<20 {
		t.Fatalf("source damaged: %v", err)
	}
}

// TestMigrationChecksumFailureRejectsFileset: a fileset one of whose
// declared checksums does not match its data is rejected, by either
// method, the callback never fires, and no file of it is left under a
// final name — nor by a chunked transfer that never ends.
func TestMigrationChecksumFailureRejectsFileset(t *testing.T) {
	env := newMigEnv(t)
	fired := false
	env.prov.OnMigrated(func(context.Context, *FileSet) { fired = true })
	fs := writeSourceFiles(t, "x", map[string][]byte{"a.dat": []byte("first file"), "f.dat": []byte("correct content")})
	fs.Files[len(fs.Files)-1].CRC++ // corrupt the last declared checksum
	for _, m := range []Method{MethodChunked, MethodBulk} {
		if _, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: m}); err == nil {
			t.Fatalf("%v: corrupted fileset accepted", m)
		}
		assertEmpty(t, env.root)
	}
	if fired {
		t.Fatal("migration callback fired for rejected fileset")
	}

	xfer, err := env.client.begin(mctx(t), env.dst.Addr(), 4, &beginArgs{
		Method: uint8(MethodChunked), Files: []wireFile{{RelPath: "a.dat", Size: 8}, {RelPath: "f.dat", Size: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := sendChunk(t, env, xfer, segment{FileIdx: 0, Data: []byte("half")}); r.Status != 0 {
		t.Fatalf("chunk rejected: %s", r.Err)
	}
	assertEmpty(t, env.root)
}

// assertEmpty fails unless dir holds no entry at all.
func assertEmpty(t *testing.T, dir string) {
	t.Helper()
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("%s holds %v (%v), want nothing", dir, names, err)
	}
}

// sendChunk sends one chunk RPC carrying seg and returns its reply.
func sendChunk(t *testing.T, env *migEnv, xfer uint64, seg segment) statusReply {
	t.Helper()
	out, err := env.src.ForwardProvider(mctx(t), env.dst.Addr(), rpcChunk, 4,
		mustMarshal(&chunkArgs{XferID: xfer, Segments: []segment{seg}}))
	if err != nil {
		t.Fatal(err)
	}
	var r statusReply
	if err := unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestNegativeSizeRejected: a Begin declaring a negative size is
// refused as an invalid fileset, promptly, by either method.
func TestNegativeSizeRejected(t *testing.T) {
	env := newMigEnv(t)
	for _, m := range []Method{MethodBulk, MethodChunked} {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		_, err := env.client.begin(ctx, env.dst.Addr(), 4, &beginArgs{
			Method: uint8(m), Files: []wireFile{{RelPath: "neg.dat", Size: -1}},
		})
		cancel()
		if err == nil || !strings.Contains(err.Error(), ErrBadFileSet.Error()) {
			t.Fatalf("%v: begin with size -1: %v, want %v", m, err, ErrBadFileSet)
		}
	}
	assertEmpty(t, env.root)
}

// TestChunkOutOfRangeRejected: a segment naming a file the transfer
// does not have, a negative offset, or bytes past the declared size is
// refused as an invalid fileset; the transfer itself stays usable.
func TestChunkOutOfRangeRejected(t *testing.T) {
	env := newMigEnv(t)
	data := []byte("abcd")
	xfer, err := env.client.begin(mctx(t), env.dst.Addr(), 4, &beginArgs{
		Method: uint8(MethodChunked), Files: []wireFile{{RelPath: "f.dat", Size: 4, CRC: crc32.ChecksumIEEE(data)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range []segment{
		{FileIdx: 1, Data: []byte("x")},
		{Offset: -1, Data: []byte("x")},
		{Offset: 2, Data: []byte("xyz")},
		{Offset: math.MaxInt64, Data: []byte("x")},
	} {
		if r := sendChunk(t, env, xfer, seg); r.Status == 0 || !strings.Contains(r.Err, ErrBadFileSet.Error()) {
			t.Fatalf("segment file %d offset %d: status %d %q, want %v", seg.FileIdx, seg.Offset, r.Status, r.Err, ErrBadFileSet)
		}
	}
	if r := sendChunk(t, env, xfer, segment{Data: data}); r.Status != 0 {
		t.Fatalf("in-range chunk rejected: %s", r.Err)
	}
	var r statusReply
	if err := env.src.Call(mctx(t), env.dst.Addr(), rpcEnd, 4, &endArgs{XferID: xfer}, &r); err != nil || r.Status != 0 {
		t.Fatalf("end: %v %q", err, r.Err)
	}
	verifyArrived(t, env.root, map[string][]byte{"f.dat": data})
}

// TestIdleChunkedTransfersAreReaped: a chunked transfer that no Begin
// or Chunk has touched for longer than pullTimeout is dropped by the
// next Begin, so its receive buffer does not wait for Close, even
// though all its bytes had arrived; one whose last chunk is recent
// survives and lands.
func TestIdleChunkedTransfersAreReaped(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	env := newMigEnvAt(t, sim)
	data := []byte("abcd")
	begin := func() uint64 {
		t.Helper()
		xfer, err := env.client.begin(mctx(t), env.dst.Addr(), 4, &beginArgs{
			Method: uint8(MethodChunked), Files: []wireFile{{RelPath: "f.dat", Size: 4, CRC: crc32.ChecksumIEEE(data)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return xfer
	}
	chunk := func(xfer uint64, from, to int) {
		t.Helper()
		if r := sendChunk(t, env, xfer, segment{Offset: int64(from), Data: data[from:to]}); r.Status != 0 {
			t.Fatalf("chunk: %s", r.Err)
		}
	}
	end := func(xfer uint64) statusReply {
		t.Helper()
		var r statusReply
		if err := env.src.Call(mctx(t), env.dst.Addr(), rpcEnd, 4, &endArgs{XferID: xfer}, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	idle, live := begin(), begin()
	chunk(idle, 0, 4)
	chunk(live, 0, 2)
	sim.Advance(6 * time.Second)
	chunk(live, 2, 4)
	sim.Advance(5 * time.Second)
	begin()
	if r := end(idle); r.Status == 0 || !strings.Contains(r.Err, ErrNoTransfer.Error()) {
		t.Fatalf("end of a transfer idle for 11s: status %d %q, want %v", r.Status, r.Err, ErrNoTransfer)
	}
	if r := end(live); r.Status != 0 {
		t.Fatalf("end of a transfer last touched 5s ago: %s", r.Err)
	}
	verifyArrived(t, env.root, map[string][]byte{"f.dat": data})
}

// TestLandedFilesAreDurable: by either method, n landed files cost the
// provider 2n fsyncs — each file's and its directory's — plus one per
// directory the landing had to create (sub and sub/deeper, each synced
// into its parent; none when a second landing finds them), and leave no
// temporary file behind.
func TestLandedFilesAreDurable(t *testing.T) {
	files := map[string][]byte{"a.dat": []byte("a"), "sub/b.dat": []byte("bb"), "sub/deeper/c.dat": {}}
	for _, m := range []Method{MethodBulk, MethodChunked} {
		env := newMigEnv(t)
		fs := writeSourceFiles(t, "x", files)
		for i, created := range []int{2, 0} {
			before := env.prov.disk.Syncs()
			if _, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: m}); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			verifyArrived(t, env.root, files)
			if got, want := env.prov.disk.Syncs()-before, uint64(2*len(files)+created); got != want {
				t.Fatalf("%v, landing %d: %d fsyncs, want %d", m, i+1, got, want)
			}
		}
		filepath.WalkDir(env.root, func(path string, _ iofs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".tmp") {
				t.Errorf("%v: %s left behind", m, path)
			}
			return err
		})
	}
}
