package yokan

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestShardedListsMatchUnsharded is the striping correctness contract:
// for every ordered backend and every (fromKey, prefix, max) window —
// including prefixes that span shard boundaries — the merged sharded
// scan must be byte-identical to an unsharded database holding the
// same pairs.
func TestShardedListsMatchUnsharded(t *testing.T) {
	for _, typ := range []string{"map", "skiplist", "btree"} {
		t.Run(typ, func(t *testing.T) {
			ref, err := Open(Config{Type: typ, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			sh, err := Open(Config{Type: typ, Shards: 5})
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			if _, ok := sh.(*shardedDB); !ok {
				t.Fatalf("Shards:5 opened %T, want *shardedDB", sh)
			}

			rng := rand.New(rand.NewSource(42))
			var keys [][]byte
			for i := 0; i < 120; i++ {
				k := []byte(fmt.Sprintf("%c/%03d", 'a'+i%4, rng.Intn(500)))
				v := make([]byte, 1+rng.Intn(32))
				rng.Read(v)
				if err := ref.Put(k, v); err != nil {
					t.Fatal(err)
				}
				if err := sh.Put(k, v); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
			}
			// Binary keys too, so the merge is tested beyond ASCII.
			for i := 0; i < 30; i++ {
				k := make([]byte, 1+rng.Intn(12))
				rng.Read(k)
				if len(k) == 0 {
					continue
				}
				if err := ref.Put(k, k); err != nil {
					t.Fatal(err)
				}
				if err := sh.Put(k, k); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
			}

			windows := []struct {
				from, prefix []byte
				max          int
			}{
				{nil, nil, 0},
				{nil, nil, 7},
				{nil, []byte("a/"), 0}, // prefix confined to sorted range, spans all shards
				{nil, []byte("b/"), 5},
				{[]byte("b/"), nil, 0}, // resume point between prefixes
				{[]byte("a/250"), []byte("a/"), 0},
				{keys[3], nil, 11}, // resume from an existing key
				{keys[10], keys[10][:1], 0},
				{[]byte{0x00}, nil, 13},
				{nil, keys[len(keys)-1][:1], 0},
			}
			for wi, w := range windows {
				wantK, err := ref.ListKeys(w.from, w.prefix, w.max)
				if err != nil {
					t.Fatal(err)
				}
				gotK, err := sh.ListKeys(w.from, w.prefix, w.max)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotK, wantK) {
					t.Fatalf("window %d (from=%q prefix=%q max=%d): ListKeys diverged\n got %q\nwant %q",
						wi, w.from, w.prefix, w.max, gotK, wantK)
				}
				wantKV, err := ref.ListKeyValues(w.from, w.prefix, w.max)
				if err != nil {
					t.Fatal(err)
				}
				gotKV, err := sh.ListKeyValues(w.from, w.prefix, w.max)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotKV, wantKV) {
					t.Fatalf("window %d: ListKeyValues diverged (%d vs %d pairs)",
						wi, len(gotKV), len(wantKV))
				}
			}

			rn, _ := ref.Count()
			sn, _ := sh.Count()
			if rn != sn {
				t.Fatalf("count: sharded %d, unsharded %d", sn, rn)
			}
		})
	}
}

// TestShardedBatchOps pins the BatchWriter/BatchReader semantics on the
// sharded backends: within-batch order per key (later duplicate wins),
// missing keys reported through found[], and results aligned with the
// request regardless of which shard served each key.
func TestShardedBatchOps(t *testing.T) {
	for _, typ := range []string{"map", "skiplist", "btree"} {
		t.Run(typ, func(t *testing.T) {
			db, err := Open(Config{Type: typ, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			bw, ok := db.(BatchWriter)
			if !ok {
				t.Fatalf("%T does not implement BatchWriter", db)
			}
			br, ok := db.(BatchReader)
			if !ok {
				t.Fatalf("%T does not implement BatchReader", db)
			}

			pairs := make([]KeyValue, 0, 40)
			for i := 0; i < 20; i++ {
				pairs = append(pairs, KeyValue{
					Key:   []byte(fmt.Sprintf("bk%02d", i)),
					Value: []byte(fmt.Sprintf("old%02d", i)),
				})
			}
			// Duplicate every key with a newer value in the same batch:
			// per-shard submission order must make the later one win.
			for i := 0; i < 20; i++ {
				pairs = append(pairs, KeyValue{
					Key:   []byte(fmt.Sprintf("bk%02d", i)),
					Value: []byte(fmt.Sprintf("new%02d", i)),
				})
			}
			if err := bw.PutMulti(pairs); err != nil {
				t.Fatal(err)
			}

			keys := [][]byte{[]byte("bk00"), []byte("missing"), []byte("bk19"), []byte("bk07")}
			values, found, err := br.GetMulti(keys)
			if err != nil {
				t.Fatal(err)
			}
			wantFound := []bool{true, false, true, true}
			wantVals := [][]byte{[]byte("new00"), nil, []byte("new19"), []byte("new07")}
			for i := range keys {
				if found[i] != wantFound[i] || !bytes.Equal(values[i], wantVals[i]) {
					t.Fatalf("GetMulti[%d] (%q) = %q/%v, want %q/%v",
						i, keys[i], values[i], found[i], wantVals[i], wantFound[i])
				}
			}

			// Empty batches are no-ops, not errors.
			if err := bw.PutMulti(nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := br.GetMulti(nil); err != nil {
				t.Fatal(err)
			}

			// An invalid pair fails the batch without corrupting others.
			err = bw.PutMulti([]KeyValue{
				{Key: []byte("ok"), Value: []byte("v")},
				{Key: nil, Value: []byte("v")},
			})
			if err != ErrEmptyKey {
				t.Fatalf("PutMulti with empty key: %v", err)
			}
		})
	}
}

// TestShardConfigValidation pins the config surface: Shards<0 is
// rejected, Shards:0 picks the core-scaled default, and JSON configs
// carrying a key the engine does not know — a typo, or an option that
// no longer exists — are rejected with ErrBadConfig naming the key.
func TestShardConfigValidation(t *testing.T) {
	if _, err := Open(Config{Type: "map", Shards: -1}); err == nil {
		t.Fatal("Shards:-1 accepted")
	}
	db, err := Open(Config{Type: "map"})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	path := filepath.Join(t.TempDir(), "x.log")
	for _, key := range []string{"batch_window", "direct_commit", "shard"} {
		raw := fmt.Sprintf(`{"type":"log","path":%q,"no_sync":true,%q:"1ms"}`, path, key)
		_, err := OpenJSON([]byte(raw))
		if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Fatalf("unknown key %q: got %v, want ErrBadConfig naming it", key, err)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Fatalf("rejected config %s still created the log file", raw)
		}
	}
	// The same document without the stray key opens.
	db, err = OpenJSON([]byte(fmt.Sprintf(`{"type":"log","path":%q,"no_sync":true,"shards":4}`, path)))
	if err != nil {
		t.Fatal(err)
	}
	db.Destroy()
}
