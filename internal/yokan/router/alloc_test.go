package router

import (
	"math"
	"testing"
	"time"

	"mochi/internal/testutil"
)

// TestRouterOpAllocsPinned pins the whole-path allocation count of the
// routed Get and Put (client frame, forward, dispatch, handler, reply)
// over the sm transport. The budgets are what the hand-written
// encode/forward/decode plumbing cost before the margo binding replaced
// it, measured on the parent commit: the binding may not add an
// allocation per RPC.
func TestRouterOpAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	c := newCluster(t, clusterConfig{nodes: 1, shards: 4})
	r := c.router()
	ctx := tctx(t, 30*time.Second)
	key, val := []byte("alloc-key"), make([]byte, 64)
	for i := 0; i < 50; i++ { // fill the codec/fabric pools
		if err := r.Put(ctx, key, val); err != nil {
			t.Fatal(err)
		}
	}
	// Best of three, a margin for scheduler noise.
	put, get := math.Inf(1), math.Inf(1)
	for i := 0; i < 3; i++ {
		put = min(put, testing.AllocsPerRun(500, func() {
			if err := r.Put(ctx, key, val); err != nil {
				t.Fatal(err)
			}
		}))
		get = min(get, testing.AllocsPerRun(500, func() {
			if _, err := r.Get(ctx, key); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("allocs/op: put %.1f, get %.1f", put, get)
	if put > putAllocBudget || get > getAllocBudget {
		t.Fatalf("routed op allocates put %.1f (pin %d), get %.1f (pin %d)", put, putAllocBudget, get, getAllocBudget)
	}
}

const (
	putAllocBudget = 11
	getAllocBudget = 12
)
