package yokan

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

// backends under test; the log backend gets a fresh temp file per test.
func openBackends(t *testing.T) map[string]Database {
	t.Helper()
	out := map[string]Database{}
	for _, typ := range []string{"map", "skiplist", "btree", "log"} {
		cfg := Config{Type: typ, NoSync: true}
		if typ == "log" {
			cfg.Path = filepath.Join(t.TempDir(), "db.log")
		}
		db, err := Open(cfg)
		if err != nil {
			t.Fatalf("open %s: %v", typ, err)
		}
		t.Cleanup(func() { db.Close() })
		out[typ] = db
	}
	return out
}

func TestPutGetEraseAllBackends(t *testing.T) {
	for typ, db := range openBackends(t) {
		t.Run(typ, func(t *testing.T) {
			if err := db.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			v, err := db.Get([]byte("k"))
			if err != nil || string(v) != "v" {
				t.Fatalf("get = %q, %v", v, err)
			}
			// Overwrite.
			if err := db.Put([]byte("k"), []byte("v2")); err != nil {
				t.Fatal(err)
			}
			v, _ = db.Get([]byte("k"))
			if string(v) != "v2" {
				t.Fatalf("overwrite lost: %q", v)
			}
			if n, _ := db.Count(); n != 1 {
				t.Fatalf("count = %d", n)
			}
			if err := db.Erase([]byte("k")); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Get([]byte("k")); err != ErrKeyNotFound {
				t.Fatalf("get after erase: %v", err)
			}
			if err := db.Erase([]byte("k")); err != ErrKeyNotFound {
				t.Fatalf("double erase: %v", err)
			}
		})
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	for typ, db := range openBackends(t) {
		if err := db.Put(nil, []byte("v")); err != ErrEmptyKey {
			t.Errorf("%s: err = %v", typ, err)
		}
	}
}

func TestExistsAndCount(t *testing.T) {
	for typ, db := range openBackends(t) {
		t.Run(typ, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			ok, err := db.Exists([]byte("k05"))
			if err != nil || !ok {
				t.Fatalf("exists = %v, %v", ok, err)
			}
			ok, _ = db.Exists([]byte("nope"))
			if ok {
				t.Fatal("ghost key exists")
			}
			if n, _ := db.Count(); n != 10 {
				t.Fatalf("count = %d", n)
			}
		})
	}
}

func TestListKeysOrderedWithPrefixAndPagination(t *testing.T) {
	for typ, db := range openBackends(t) {
		t.Run(typ, func(t *testing.T) {
			for _, k := range []string{"b2", "a1", "a3", "b1", "a2", "c1"} {
				if err := db.Put([]byte(k), []byte("v-"+k)); err != nil {
					t.Fatal(err)
				}
			}
			keys, err := db.ListKeys(nil, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sort.SliceIsSorted(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 }) {
				t.Fatalf("keys not sorted: %q", keys)
			}
			if len(keys) != 6 {
				t.Fatalf("len = %d", len(keys))
			}
			// Prefix filter.
			keys, _ = db.ListKeys(nil, []byte("a"), 0)
			if len(keys) != 3 || string(keys[0]) != "a1" || string(keys[2]) != "a3" {
				t.Fatalf("prefix scan = %q", keys)
			}
			// Pagination: strictly-greater-than semantics.
			keys, _ = db.ListKeys([]byte("a3"), nil, 2)
			if len(keys) != 2 || string(keys[0]) != "b1" || string(keys[1]) != "b2" {
				t.Fatalf("page = %q", keys)
			}
			// KeyValues carry the right values.
			kvs, _ := db.ListKeyValues(nil, []byte("c"), 0)
			if len(kvs) != 1 || string(kvs[0].Value) != "v-c1" {
				t.Fatalf("kvs = %v", kvs)
			}
		})
	}
}

func TestValueIsolation(t *testing.T) {
	for typ, db := range openBackends(t) {
		t.Run(typ, func(t *testing.T) {
			v := []byte("mutable")
			if err := db.Put([]byte("k"), v); err != nil {
				t.Fatal(err)
			}
			v[0] = 'X' // caller mutates after Put
			got, _ := db.Get([]byte("k"))
			if string(got) != "mutable" {
				t.Fatalf("db observed caller mutation: %q", got)
			}
			got[0] = 'Y' // caller mutates the returned slice
			got2, _ := db.Get([]byte("k"))
			if string(got2) != "mutable" {
				t.Fatalf("returned slice aliased storage: %q", got2)
			}
		})
	}
}

func TestClosedDatabaseErrors(t *testing.T) {
	for typ, db := range openBackends(t) {
		db.Close()
		if err := db.Put([]byte("k"), nil); err != ErrClosed {
			t.Errorf("%s put after close: %v", typ, err)
		}
		if _, err := db.Get([]byte("k")); err != ErrClosed {
			t.Errorf("%s get after close: %v", typ, err)
		}
	}
}

func TestOpenBadConfig(t *testing.T) {
	if _, err := Open(Config{Type: "rocksdb"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := Open(Config{Type: "log"}); err == nil {
		t.Fatal("log without path accepted")
	}
	for _, raw := range []string{`{bad json`, `{"type":"map"} trailing`, `{"type":7}`} {
		if _, err := OpenJSON([]byte(raw)); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("OpenJSON(%s) = %v, want ErrBadConfig", raw, err)
		}
	}
	db, err := OpenJSON([]byte(`{"type":"skiplist"}`))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
}

func TestLogPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.log")
	db, err := Open(Config{Type: "log", Path: path, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Erase some, overwrite some.
	for i := 0; i < 50; i += 2 {
		if err := db.Erase([]byte(fmt.Sprintf("key-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Put([]byte("key-099"), []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(Config{Type: "log", Path: path, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n, _ := db2.Count(); n != 75 {
		t.Fatalf("count after reopen = %d, want 75", n)
	}
	if _, err := db2.Get([]byte("key-000")); err != ErrKeyNotFound {
		t.Fatalf("erased key resurrected: %v", err)
	}
	v, err := db2.Get([]byte("key-099"))
	if err != nil || string(v) != "rewritten" {
		t.Fatalf("get = %q, %v", v, err)
	}
}

func TestLogTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.log")
	db, err := Open(Config{Type: "log", Path: path, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	// Simulate a crash mid-write: truncate the file into a record.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Config{Type: "log", Path: path, NoSync: true})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer db2.Close()
	n, _ := db2.Count()
	if n != 9 {
		t.Fatalf("count = %d, want 9 (lost only the torn record)", n)
	}
	// The log must be writable again after truncation.
	if err := db2.Put([]byte("new"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestLogCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.log")
	db, err := Open(Config{Type: "log", Path: path, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ld := db.(*logDB)
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("k%02d", i%10)) // heavy overwriting
		if err := db.Put(key, bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.Stat(path)
	if ld.Garbage() == 0 {
		t.Fatal("no garbage recorded despite overwrites")
	}
	if err := ld.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink: %d -> %d", before.Size(), after.Size())
	}
	if ld.Garbage() != 0 {
		t.Fatal("garbage not reset")
	}
	// Data survives compaction and the log stays usable.
	if n, _ := db.Count(); n != 10 {
		t.Fatalf("count = %d", n)
	}
	if err := db.Put([]byte("post"), []byte("compact")); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, err := Open(Config{Type: "log", Path: path, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n, _ := db2.Count(); n != 11 {
		t.Fatalf("count after reopen = %d", n)
	}
}

// TestLogCompactFailureKeepsTheLog: a compaction whose rename fails —
// the log's name is a non-empty directory now — reports it, leaves no
// temporary file, and the database still takes writes.
func TestLogCompactFailureKeepsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.log")
	db, err := Open(Config{Type: "log", Path: path, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := db.(*logDB).Compact(); err == nil {
		t.Fatal("compaction renamed its log over a directory")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the failed compaction left its temporary file: %v", err)
	}
	if err := db.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatalf("put after a failed compaction: %v", err)
	}
}

// TestLogFlushSyncsEvenWithNoSync: Flush is an explicit durability point
// (the provider's Flush RPC, a migration's source) and fsyncs the log
// though NoSync skips the fsync of every write.
func TestLogFlushSyncsEvenWithNoSync(t *testing.T) {
	db, err := openLogDB(filepath.Join(t.TempDir(), "flush.log"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n := db.disk.Syncs(); n != 0 {
		t.Fatalf("a NoSync put issued %d fsyncs", n)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := db.disk.Syncs(); n != 1 {
		t.Fatalf("Flush issued %d fsyncs, want 1", n)
	}
}

func TestLogFilesAndDestroy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "destroy.log")
	db, err := Open(Config{Type: "log", Path: path, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	files := db.Files()
	if len(files) != 1 || files[0] != path {
		t.Fatalf("files = %v", files)
	}
	if err := db.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("backing file survived Destroy")
	}
}

// Property: after any sequence of puts and erases, every backend
// agrees with a reference Go map.
func TestQuickBackendsMatchReference(t *testing.T) {
	type op struct {
		Erase bool
		Key   uint8 // small key space to force collisions
		Value uint16
	}
	for _, typ := range []string{"map", "skiplist", "btree", "log"} {
		typ := typ
		t.Run(typ, func(t *testing.T) {
			f := func(ops []op) bool {
				cfg := Config{Type: typ, NoSync: true}
				if typ == "log" {
					cfg.Path = filepath.Join(t.TempDir(), fmt.Sprintf("q%p.log", &ops))
				}
				db, err := Open(cfg)
				if err != nil {
					return false
				}
				defer db.Close()
				ref := map[string]string{}
				for _, o := range ops {
					k := fmt.Sprintf("key-%d", o.Key%16)
					if o.Erase {
						delete(ref, k)
						if err := db.Erase([]byte(k)); err != nil && err != ErrKeyNotFound {
							return false
						}
					} else {
						v := fmt.Sprintf("v%d", o.Value)
						ref[k] = v
						if err := db.Put([]byte(k), []byte(v)); err != nil {
							return false
						}
					}
				}
				if n, _ := db.Count(); n != len(ref) {
					return false
				}
				for k, v := range ref {
					got, err := db.Get([]byte(k))
					if err != nil || string(got) != v {
						return false
					}
				}
				keys, _ := db.ListKeys(nil, nil, 0)
				return len(keys) == len(ref)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: skip-list iteration is always sorted and complete.
func TestQuickSkiplistOrdering(t *testing.T) {
	f := func(keys []uint16) bool {
		db := newSkipDB()
		uniq := map[string]bool{}
		for _, k := range keys {
			s := fmt.Sprintf("%05d", k)
			uniq[s] = true
			if err := db.Put([]byte(s), []byte("v")); err != nil {
				return false
			}
		}
		got, err := db.ListKeys(nil, nil, 0)
		if err != nil || len(got) != len(uniq) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1], got[i]) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// benchBackends runs bench on each backend, opened with n 100-byte
// values under the keys %016d.
func benchBackends(b *testing.B, n int, bench func(b *testing.B, db Database)) {
	for _, typ := range []string{"map", "skiplist", "btree", "log"} {
		b.Run(typ, func(b *testing.B) {
			cfg := Config{Type: typ, NoSync: true}
			if typ == "log" {
				cfg.Path = filepath.Join(b.TempDir(), "bench.log")
			}
			db, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < n; i++ {
				if err := db.Put([]byte(fmt.Sprintf("%016d", i)), make([]byte, 100)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			bench(b, db)
		})
	}
}

func BenchmarkBackendPut(b *testing.B) {
	benchBackends(b, 0, func(b *testing.B, db Database) {
		key := make([]byte, 16)
		val := make([]byte, 100)
		for i := 0; i < b.N; i++ {
			copy(key, fmt.Sprintf("%016d", i))
			if err := db.Put(key, val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBackendGet(b *testing.B) {
	const n = 10000
	benchBackends(b, n, func(b *testing.B, db Database) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Get([]byte(fmt.Sprintf("%016d", i%n))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBackendScan reads one 512-key ListKeys page per op, walking
// 10k keys and starting over: the map backend sorts its keys for every
// page, the ordered backends seek and walk.
func BenchmarkBackendScan(b *testing.B) {
	benchBackends(b, 10000, func(b *testing.B, db Database) {
		var from []byte
		for i := 0; i < b.N; i++ {
			page, err := db.ListKeys(from, nil, 512)
			if err != nil {
				b.Fatal(err)
			}
			from = nil
			if len(page) == 512 {
				from = page[len(page)-1]
			}
		}
	})
}

// TestScanBoundedAndTolerant: Scan visits every pair of a quiescent
// database on every backend, and tolerates the database changing
// underneath it — on the map backend, between the key collection and
// the value fetches: an erased key is skipped, an overwritten one shows
// its new value, a created one is not visited.
func TestScanBoundedAndTolerant(t *testing.T) {
	const keys = 2*scanPage + 17 // the generic path pages
	for _, backend := range []string{"map", "skiplist", "btree"} {
		for _, stripes := range []int{1, 4} {
			db, err := Open(Config{Type: backend, Shards: stripes})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for i := 0; i < keys; i++ {
				k, v := fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%d", i)
				want[k] = v
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			got := map[string]string{}
			if err := Scan(db, func(k, v []byte) { got[string(k)] = string(v) }); err != nil {
				t.Fatal(err)
			}
			if len(got) != keys || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s/%d: scan saw %d of %d pairs", backend, stripes, len(got), keys)
			}
			db.Close()
		}
	}

	db := newMapDB()
	for _, k := range []string{"erased", "overwritten", "kept"} {
		if err := db.Put([]byte(k), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	testHookScan = func() {
		_ = db.Erase([]byte("erased"))
		_ = db.Put([]byte("overwritten"), []byte("new"))
		_ = db.Put([]byte("created"), []byte("new"))
	}
	defer func() { testHookScan = nil }()
	got := map[string]string{}
	if err := db.Scan(func(k, v []byte) { got[string(k)] = string(v) }); err != nil {
		t.Fatal(err)
	}
	if want := map[string]string{"overwritten": "new", "kept": "old"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan across concurrent changes saw %v, want %v", got, want)
	}
	db.Close()
	if err := db.Scan(func(k, v []byte) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("scan of a closed database: %v", err)
	}
}
