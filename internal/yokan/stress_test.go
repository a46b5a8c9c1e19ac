package yokan

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// TestConcurrentStressAllBackends hammers every backend with 32
// goroutines of mixed Put/Get/Erase/Exists/List traffic and checks the
// result against a per-goroutine reference model. Key ranges are
// disjoint per goroutine (but deliberately interleave across shards),
// so each goroutine's model is authoritative for its own keys even
// while the database is shared; prefix-scoped lists mid-flight must
// match the model exactly, and the final full scan must equal the
// merged models in byte order. Run under -race this doubles as the
// striping/group-commit race gate.
func TestConcurrentStressAllBackends(t *testing.T) {
	configs := []Config{
		{Type: "map", Shards: 8},
		{Type: "skiplist", Shards: 8},
		{Type: "btree", Shards: 8},
		// The log backend exercises group commit instead of striping:
		// it syncs, so while one batch's fsync is in flight the other
		// writers pile into the next one (with no_sync it would take
		// the serial path and never form a batch).
		{Type: "log"},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Type, func(t *testing.T) {
			t.Parallel()
			if cfg.Type == "log" {
				cfg.Path = filepath.Join(t.TempDir(), "stress.log")
			}
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			runStress(t, db)
		})
	}
}

func runStress(t *testing.T, db Database) {
	const (
		workers = 32
		keysPer = 16
		ops     = 300
	)
	models := make([]map[string][]byte, workers)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		g := g
		model := map[string][]byte{}
		models[g] = model
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			prefix := fmt.Sprintf("g%02d-", g)
			key := func(i int) []byte { return []byte(fmt.Sprintf("%sk%02d", prefix, i)) }
			fail := func(format string, args ...any) {
				select {
				case errCh <- fmt.Errorf("worker %d: %s", g, fmt.Sprintf(format, args...)):
				default:
				}
			}
			for op := 0; op < ops; op++ {
				k := key(rng.Intn(keysPer))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4:
					v := make([]byte, 1+rng.Intn(64))
					rng.Read(v)
					if err := db.Put(k, v); err != nil {
						fail("put %q: %v", k, err)
						return
					}
					model[string(k)] = v
				case 5, 6:
					want, ok := model[string(k)]
					got, err := db.Get(k)
					if ok {
						if err != nil || !bytes.Equal(got, want) {
							fail("get %q = %q, %v; want %q", k, got, err, want)
							return
						}
					} else if err != ErrKeyNotFound {
						fail("get absent %q: %v", k, err)
						return
					}
				case 7:
					_, ok := model[string(k)]
					err := db.Erase(k)
					if ok && err != nil {
						fail("erase %q: %v", k, err)
						return
					}
					if !ok && err != ErrKeyNotFound {
						fail("erase absent %q: %v", k, err)
						return
					}
					delete(model, string(k))
				case 8:
					got, err := db.Exists(k)
					if err != nil {
						fail("exists %q: %v", k, err)
						return
					}
					_, want := model[string(k)]
					if got != want {
						fail("exists %q = %v, want %v", k, got, want)
						return
					}
				case 9:
					// No other goroutine writes this prefix, so the
					// prefix-scoped scan must match the model exactly —
					// even while the rest of the key space churns.
					got, err := db.ListKeys(nil, []byte(prefix), 0)
					if err != nil {
						fail("list %q: %v", prefix, err)
						return
					}
					want := make([]string, 0, len(model))
					for mk := range model {
						want = append(want, mk)
					}
					sort.Strings(want)
					if len(got) != len(want) {
						fail("list %q: %d keys, want %d", prefix, len(got), len(want))
						return
					}
					for i := range got {
						if string(got[i]) != want[i] {
							fail("list %q[%d] = %q, want %q", prefix, i, got[i], want[i])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiesced: the full scan must equal the union of the models, in
	// byte order, with matching values.
	merged := map[string][]byte{}
	for _, m := range models {
		for k, v := range m {
			merged[k] = v
		}
	}
	wantKeys := make([]string, 0, len(merged))
	for k := range merged {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)

	if n, err := db.Count(); err != nil || n != len(merged) {
		t.Fatalf("count = %d, %v; want %d", n, err, len(merged))
	}
	gotKeys, err := db.ListKeys(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("final scan: %d keys, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range gotKeys {
		if string(gotKeys[i]) != wantKeys[i] {
			t.Fatalf("final scan[%d] = %q, want %q", i, gotKeys[i], wantKeys[i])
		}
	}
	kvs, err := db.ListKeyValues(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range kvs {
		if !bytes.Equal(kv.Value, merged[string(kv.Key)]) {
			t.Fatalf("final value %q = %q, want %q", kv.Key, kv.Value, merged[string(kv.Key)])
		}
	}
}
