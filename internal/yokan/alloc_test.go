package yokan

import (
	"context"
	"fmt"
	"testing"

	"mochi/internal/testutil"
)

// The multi-op pins are differential in batch size: a whole RPC has a
// fixed allocation cost (handle, args struct, reply slices, fabric
// payload buffers) that does not scale with the number of keys, so the
// per-key cost is (allocs(K=64) - allocs(K=8)) / 56. Server-side
// argument decodes alias the request buffer and the in-memory backends
// overwrite values in place, so a steady-state PutMulti adds no
// allocations per key; GetMulti pays exactly one per found key (the
// value copy handed out by the backend, which becomes the reply
// payload) plus the aliased client-side reply slots.

const (
	smallBatch = 8
	largeBatch = 64
)

func multiPairs(n, valLen int) []KeyValue {
	pairs := make([]KeyValue, n)
	for i := range pairs {
		pairs[i] = KeyValue{
			Key:   []byte(fmt.Sprintf("alloc-key-%04d", i)),
			Value: make([]byte, valLen),
		}
	}
	return pairs
}

func measureMultiAllocs(t *testing.T, svc *testService, batch int, get bool) float64 {
	t.Helper()
	ctx := tctx(t)
	pairs := multiPairs(batch, 32)
	keys := make([][]byte, len(pairs))
	for i, kv := range pairs {
		keys[i] = kv.Key
	}
	// Warm up: populate every key so puts hit the in-place overwrite
	// path and gets find every key, and let the codec/fabric pools fill.
	for i := 0; i < 20; i++ {
		if err := svc.handle.PutMulti(ctx, pairs); err != nil {
			t.Fatal(err)
		}
		if _, _, err := svc.handle.GetMulti(ctx, keys); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(200, func() {
		if get {
			values, found, err := svc.handle.GetMulti(ctx, keys)
			if err != nil {
				t.Fatal(err)
			}
			if len(values) != batch || !found[0] {
				t.Fatalf("bad reply: %d values, found[0]=%v", len(values), found[0])
			}
		} else {
			if err := svc.handle.PutMulti(ctx, pairs); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// perKeyAllocs returns the marginal allocations per additional key in a
// multi-op batch over the sm transport.
func perKeyAllocs(t *testing.T, get bool) float64 {
	t.Helper()
	svc := newTestService(t, Config{Type: "map", Shards: 4})
	small := measureMultiAllocs(t, svc, smallBatch, get)
	large := measureMultiAllocs(t, svc, largeBatch, get)
	per := (large - small) / float64(largeBatch-smallBatch)
	t.Logf("allocs/op: K=%d %.1f, K=%d %.1f → %.3f per key", smallBatch, small, largeBatch, large, per)
	return per
}

func TestPutMultiAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	// Steady-state overwrites alias the decode buffer and reuse stored
	// value buffers: no per-key allocations at all. The 0.5 headroom
	// absorbs AllocsPerRun jitter (GC timing, map growth).
	if per := perKeyAllocs(t, false); per > 0.5 {
		t.Fatalf("PutMulti allocates %.3f per key; pin is 0.5 (decode aliasing or in-place overwrite regressed)", per)
	}
}

func TestGetMultiAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	// One allocation per key is the value copy the backend hands out —
	// it is the reply payload, so it is the permitted floor. Anything
	// past ~1.5 means a second per-key copy crept in somewhere.
	if per := perKeyAllocs(t, true); per > 1.5 {
		t.Fatalf("GetMulti allocates %.3f per key; pin is 1.5 (one value copy per key is the budget)", per)
	}
}

func benchMulti(b *testing.B, cfg Config, batch int, get bool) {
	svc := newTestService(b, cfg)
	ctx := context.Background()
	pairs := multiPairs(batch, 32)
	keys := make([][]byte, len(pairs))
	for i, kv := range pairs {
		keys[i] = kv.Key
	}
	if err := svc.handle.PutMulti(ctx, pairs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if get {
			if _, _, err := svc.handle.GetMulti(ctx, keys); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := svc.handle.PutMulti(ctx, pairs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMultiPut(b *testing.B) {
	benchMulti(b, Config{Type: "map", Shards: 4}, 64, false)
}

func BenchmarkMultiGet(b *testing.B) {
	benchMulti(b, Config{Type: "map", Shards: 4}, 64, true)
}
