package remi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mochi/internal/clock"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

type migEnv struct {
	fabric *mercury.Fabric
	src    *margo.Instance
	dst    *margo.Instance
	prov   *Provider
	client *Client
	root   string // destination root
}

func newMigEnv(t *testing.T) *migEnv { return newMigEnvAt(t, clock.New()) }

// newMigEnvAt is newMigEnv with the destination on clk.
func newMigEnvAt(t *testing.T, clk clock.Clock) *migEnv {
	t.Helper()
	f := mercury.NewFabric()
	scls, _ := f.NewClass("remi-src")
	dcls, _ := f.NewClass("remi-dst")
	src, err := margo.New(scls, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := margo.NewWithClock(dcls, nil, clk)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	prov, err := NewProvider(dst, 4, nil, root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		prov.Close()
		src.Finalize()
		dst.Finalize()
	})
	return &migEnv{fabric: f, src: src, dst: dst, prov: prov, client: NewClient(src), root: root}
}

// writeSourceFiles creates files under a fresh source root and builds
// the fileset.
func writeSourceFiles(t *testing.T, class string, files map[string][]byte) *FileSet {
	t.Helper()
	root := t.TempDir()
	var paths []string
	for rel, data := range files {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	fs, err := BuildFileSet(class, root, paths, map[string]string{"origin": "test"})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func mctx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func verifyArrived(t *testing.T, root string, files map[string][]byte) {
	t.Helper()
	for rel, want := range files {
		got, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatalf("missing %s: %v", rel, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupted: %d vs %d bytes", rel, len(got), len(want))
		}
	}
}

func testFiles(big bool) map[string][]byte {
	files := map[string][]byte{}
	if big {
		data := make([]byte, 1<<20)
		for i := range data {
			data[i] = byte(i * 7)
		}
		files["db/large.log"] = data
		return files
	}
	for i := 0; i < 16; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 1000+i)
		files[fmt.Sprintf("db/small-%02d.dat", i)] = data
	}
	return files
}

func TestMigrateBulkLargeFile(t *testing.T) {
	env := newMigEnv(t)
	files := testFiles(true)
	fs := writeSourceFiles(t, "yokan", files)
	stats, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: MethodBulk})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Method != MethodBulk || stats.Files != 1 || stats.Bytes != 1<<20 {
		t.Fatalf("stats = %+v", stats)
	}
	verifyArrived(t, env.root, files)
}

// smallFiles is n files of size bytes each.
func smallFiles(n, size int) map[string][]byte {
	files := map[string][]byte{}
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("db/f%04d.dat", i)] = bytes.Repeat([]byte{byte(i)}, size)
	}
	return files
}

// Small files share chunks and large ones are split, so a chunked
// migration sends exactly ⌈total/ChunkSize⌉ chunk RPCs.
func TestMigrateChunkedManySmallFiles(t *testing.T) {
	for _, tc := range []struct {
		files map[string][]byte
		chunk int
	}{
		{testFiles(false), 512},
		{smallFiles(256, 4<<10), 64 << 10},
	} {
		env := newMigEnv(t)
		fs := writeSourceFiles(t, "yokan", tc.files)
		stats, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: MethodChunked, ChunkSize: tc.chunk, Pipeline: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := int((fs.TotalBytes() + int64(tc.chunk) - 1) / int64(tc.chunk))
		if stats.Method != MethodChunked || stats.Files != len(tc.files) || stats.Chunks != want {
			t.Fatalf("stats = %+v, want %d chunks", stats, want)
		}
		verifyArrived(t, env.root, tc.files)
	}
}

func TestMigrateAutoSelectsByMeanSize(t *testing.T) {
	env := newMigEnv(t)
	small := writeSourceFiles(t, "a", testFiles(false))
	stats, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, small, Options{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Method != MethodChunked {
		t.Fatalf("small files migrated via %v", stats.Method)
	}
	big := writeSourceFiles(t, "b", testFiles(true))
	stats, err = env.client.Migrate(mctx(t), env.dst.Addr(), 4, big, Options{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Method != MethodBulk {
		t.Fatalf("large file migrated via %v", stats.Method)
	}
}

func TestMigrateEmptyFileSet(t *testing.T) {
	env := newMigEnv(t)
	fs := &FileSet{Class: "none", Root: t.TempDir()}
	for _, m := range []Method{MethodBulk, MethodChunked} {
		if _, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: m}); err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
	}
}

func TestMigrateZeroLengthFile(t *testing.T) {
	env := newMigEnv(t)
	files := map[string][]byte{"empty.dat": {}}
	fs := writeSourceFiles(t, "x", files)
	if _, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: MethodChunked}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(env.root, "empty.dat"))
	if err != nil || fi.Size() != 0 {
		t.Fatalf("empty file: %v %v", fi, err)
	}
}

func TestMigratedCallbackFires(t *testing.T) {
	env := newMigEnv(t)
	got := make(chan *FileSet, 1)
	env.prov.OnMigrated(func(_ context.Context, fs *FileSet) { got <- fs })
	files := testFiles(false)
	fs := writeSourceFiles(t, "yokan", files)
	if _, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: MethodChunked}); err != nil {
		t.Fatal(err)
	}
	select {
	case arrived := <-got:
		if arrived.Class != "yokan" || arrived.Metadata["origin"] != "test" {
			t.Fatalf("callback fileset = %+v", arrived)
		}
		if arrived.Root != env.root {
			t.Fatalf("root = %s", arrived.Root)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("callback never fired")
	}
}

func TestPathEscapeRejected(t *testing.T) {
	env := newMigEnv(t)
	fs := &FileSet{
		Class: "evil",
		Root:  t.TempDir(),
		Files: []FileInfo{{RelPath: "../../etc/owned", Size: 1}},
	}
	// Craft the escape directly at the wire level via chunked begin.
	_, err := env.client.migrateChunked(mctx(t), env.dst.Addr(), 4, fs, Options{}.withDefaults())
	if err == nil {
		t.Fatal("path escape accepted")
	}
}

func TestBuildFileSetRejectsOutsideRoot(t *testing.T) {
	root := t.TempDir()
	other := t.TempDir()
	p := filepath.Join(other, "outside.dat")
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFileSet("c", root, []string{p}, nil); err == nil {
		t.Fatal("file outside root accepted")
	}
}

func TestMigrateToUnknownProviderFails(t *testing.T) {
	env := newMigEnv(t)
	fs := writeSourceFiles(t, "x", map[string][]byte{"f": []byte("1")})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := env.client.Migrate(ctx, env.dst.Addr(), 99, fs, Options{Method: MethodBulk}); err == nil {
		t.Fatal("migration to missing provider succeeded")
	}
}

func TestChunkForUnknownTransferRejected(t *testing.T) {
	env := newMigEnv(t)
	if r := sendChunk(t, env, 12345, segment{Data: []byte("x")}); r.Status == 0 {
		t.Fatal("chunk for unknown transfer accepted")
	}
}

func TestSubdirectoriesPreserved(t *testing.T) {
	env := newMigEnv(t)
	files := map[string][]byte{
		"a/b/c/deep.dat": []byte("deep"),
		"top.dat":        []byte("top"),
	}
	fs := writeSourceFiles(t, "x", files)
	if _, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: MethodBulk}); err != nil {
		t.Fatal(err)
	}
	verifyArrived(t, env.root, files)
}

func TestMigrationStatsBytes(t *testing.T) {
	env := newMigEnv(t)
	files := testFiles(false)
	var want int64
	for _, d := range files {
		want += int64(len(d))
	}
	fs := writeSourceFiles(t, "x", files)
	stats, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: MethodChunked})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != want {
		t.Fatalf("bytes = %d, want %d", stats.Bytes, want)
	}
}

// Under an HPC cost model, bulk must beat chunked for one large file
// and chunked must beat bulk for many small files, where one bulk pull
// per file costs more than a few packed chunks: the paper's Observation 4
// rationale, and the trade-off Mercury draws between eager RPCs and
// bulk transfers.
func TestMethodTradeoffShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	run := func(files map[string][]byte, m Method) time.Duration {
		f := mercury.NewFabric()
		// Per-message costs an order of magnitude above a loaded host's
		// scheduling jitter, so that the model decides the outcome. An RPC
		// is two RPC messages (2 ms), a bulk pull two bulk messages
		// (0.8 ms); 64 KiB chunks go one at a time. One 1 MiB file: chunked 18 RPCs = 36 ms,
		// bulk one RPC and one pull = 2.8 ms. 256 files of 4 KiB: chunked
		// the same 36 ms, bulk 2 ms + 256 pulls = 207 ms. The host's
		// timers overshoot every modeled message, so the logged gaps are
		// narrower than the model's. Both legs land every file through
		// durable.Disk.Replace, without the fsyncs: on a loaded host they
		// are the same for both methods and vary by more than the gap
		// (TestLandedFilesAreDurable pins landing durability).
		f.SetModel(&mercury.HPCModel{
			RPCOverhead:  time.Millisecond,
			BulkOverhead: 400 * time.Microsecond,
			BytesPerSec:  2e9,
			EagerLimit:   4096,
		})
		scls, _ := f.NewClass("shape-src")
		dcls, _ := f.NewClass("shape-dst")
		src, _ := margo.New(scls, nil)
		defer src.Finalize()
		dst, _ := margo.New(dcls, nil)
		defer dst.Finalize()
		root := t.TempDir()
		prov, err := NewProvider(dst, 4, nil, root)
		if err != nil {
			t.Fatal(err)
		}
		defer prov.Close()
		prov.disk.NoSync = true
		fs := writeSourceFiles(t, "x", files)
		stats, err := NewClient(src).Migrate(mctx(t), dst.Addr(), 4, fs, Options{Method: m, ChunkSize: 64 * 1024, Pipeline: 1})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Duration
	}
	big := testFiles(true) // one 1MB file
	bulkBig := run(big, MethodBulk)
	chunkBig := run(big, MethodChunked)
	t.Logf("one large file: bulk %v, chunked %v", bulkBig, chunkBig)
	if bulkBig >= chunkBig {
		t.Errorf("large file: bulk (%v) not faster than chunked (%v)", bulkBig, chunkBig)
	}
	small := smallFiles(256, 4<<10)
	bulkSmall := run(small, MethodBulk)
	chunkSmall := run(small, MethodChunked)
	t.Logf("256 small files: bulk %v, chunked %v", bulkSmall, chunkSmall)
	if chunkSmall >= bulkSmall {
		t.Errorf("small files: chunked (%v) not faster than bulk (%v)", chunkSmall, bulkSmall)
	}
}

func mustMarshal(m codec.Message) []byte { return codec.Marshal(m) }

// TestBeginArgsEncodingIsDeterministic: the same begin message is the
// same bytes every time — a retried begin equals its first attempt —
// whatever order the runtime walks the metadata map in.
func TestBeginArgsEncodingIsDeterministic(t *testing.T) {
	a := &beginArgs{Class: "yokan", Meta: map[string]string{}}
	for i := 0; i < 8; i++ {
		a.Meta[fmt.Sprintf("key-%d", i)] = fmt.Sprintf("value-%d", i)
	}
	first := mustMarshal(a)
	for i := 0; i < 64; i++ {
		if again := mustMarshal(a); !bytes.Equal(first, again) {
			t.Fatalf("attempt %d encodes differently:\n%x\n%x", i, first, again)
		}
	}
	var back beginArgs
	if err := unmarshal(first, &back); err != nil || !reflect.DeepEqual(back.Meta, a.Meta) {
		t.Fatalf("metadata did not survive: %v, %v", back.Meta, err)
	}
}

func unmarshal(b []byte, m codec.Message) error { return codec.Unmarshal(b, m) }

// TestInMemoryFileSetTouchesNoDisk: a fileset built from bytes moves
// by bulk, arrives as bytes, and neither side reads or writes a file;
// the callback sees exactly the source's bytes, and only while it
// runs — the provider receives the next fileset into the same memory.
func TestInMemoryFileSetTouchesNoDisk(t *testing.T) {
	env := newMigEnv(t)
	type arrival struct {
		root, name string
		data       []byte // copied during the callback
		held       []byte // retained past it
	}
	got := make(chan arrival, 2)
	env.prov.OnMigrated(func(_ context.Context, fs *FileSet) {
		f := fs.Files[0]
		got <- arrival{fs.Root, f.RelPath, append([]byte(nil), f.Data...), f.Data}
	})
	send := func(fill byte) []byte {
		data := bytes.Repeat([]byte{fill}, 300<<10)
		fs := &FileSet{Class: "mem", Metadata: map[string]string{"k": "v"}}
		fs.AddBytes("shard.snap", data)
		if !fs.InMemory() {
			t.Fatal("a fileset without a root is not in-memory")
		}
		// MethodAuto must not pick chunks: an in-memory fileset moves by
		// bulk only.
		stats, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: MethodAuto})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Method != MethodBulk || stats.Bytes != int64(len(data)) {
			t.Fatalf("stats = %+v", stats)
		}
		return data
	}
	first := send(1)
	a := <-got
	if a.root != "" || a.name != "shard.snap" || !bytes.Equal(a.data, first) {
		t.Fatalf("first arrival: root %q name %q, %d bytes", a.root, a.name, len(a.data))
	}
	second := send(2)
	b := <-got
	if !bytes.Equal(b.data, second) {
		t.Fatal("second arrival differs from its source")
	}
	if &a.held[0] != &b.held[0] {
		t.Fatal("the second fileset was not received into the first one's buffer")
	}
	if entries, err := os.ReadDir(env.root); err != nil || len(entries) != 0 {
		t.Fatalf("destination root holds %d entries (%v), want none", len(entries), err)
	}
	if n := env.prov.disk.Syncs(); n != 0 {
		t.Fatalf("in-memory filesets cost %d fsyncs, want none", n)
	}

	fs := &FileSet{Class: "mem"}
	fs.AddBytes("x", []byte("abc"))
	if _, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: MethodChunked}); !errors.Is(err, ErrBadFileSet) {
		t.Fatalf("chunked in-memory migration: %v, want ErrBadFileSet", err)
	}
	fs.Files[0].Data = nil
	if _, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{}); !errors.Is(err, ErrBadFileSet) {
		t.Fatalf("in-memory entry without data: %v, want ErrBadFileSet", err)
	}
}

// TestFileSetIsSnapshotOfItsFiles: BuildFileSet reads each file once
// and migrates what it read — a file rewritten (or removed) afterwards
// cannot make the bytes that arrive disagree with the checksum — and
// the callback gets the verified bytes as well as the files.
func TestFileSetIsSnapshotOfItsFiles(t *testing.T) {
	for _, m := range []Method{MethodBulk, MethodChunked} {
		env := newMigEnv(t)
		var data []byte
		env.prov.OnMigrated(func(_ context.Context, fs *FileSet) {
			data = append([]byte(nil), fs.Files[0].Data...)
		})
		files := map[string][]byte{"db.log": bytes.Repeat([]byte("built"), 1000)}
		fs := writeSourceFiles(t, "x", files)
		if err := os.Remove(filepath.Join(fs.Root, "db.log")); err != nil {
			t.Fatal(err)
		}
		if _, err := env.client.Migrate(mctx(t), env.dst.Addr(), 4, fs, Options{Method: m}); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		verifyArrived(t, env.root, files)
		if !bytes.Equal(data, files["db.log"]) {
			t.Fatalf("%v: callback saw %d bytes, want the file's %d", m, len(data), len(files["db.log"]))
		}
	}
}

// TestNoDirectFileWrites: the destination writes files and makes
// directories only through durable.Disk, so no non-test file of the
// package creates, writes or fsyncs a file, or creates a directory,
// itself.
func TestNoDirectFileWrites(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"os.Create": true, "os.WriteFile": true, "os.OpenFile": true, "os.Mkdir": true, "os.MkdirAll": true}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if x, ok := sel.X.(*ast.Ident); ok {
				name = x.Name + "." + name
			}
			if banned[name] || sel.Sel.Name == "Sync" {
				t.Errorf("%s: %s writes a file outside durable.Disk", fset.Position(call.Pos()), name)
			}
			return true
		})
	}
}
