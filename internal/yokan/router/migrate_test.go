package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/remi"
	"mochi/internal/testutil"
	"mochi/internal/trace"
	"mochi/internal/yokan"
)

// keyOnShard returns a key of the given prefix that routes to shard.
func keyOnShard(m *Map, shard uint32, prefix string) []byte {
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("%s-%d", prefix, i))
		if m.ShardOf(k) == shard {
			return k
		}
	}
}

// shardOwnedBy returns a shard the map assigns to owner.
func shardOwnedBy(t *testing.T, m *Map, owner Owner) uint32 {
	t.Helper()
	for s, o := range m.Owners {
		if o == owner {
			return uint32(s)
		}
	}
	t.Fatalf("%v owns no shard", owner)
	return 0
}

// TestDataPathServesWhileMergeParked is the head-of-line test: with
// the destination's snapshot receive parked on its migration xstream,
// Put and Get to the migrating shard (whose writes the source logs),
// to another shard on the source and to a shard the destination owns
// all complete. When the REMI provider shared the RPC execution stream
// the calls to the destination could not, and timed out.
func TestDataPathServesWhileMergeParked(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 8})
	ctx := tctx(t, 20*time.Second)
	src, dst := c.nodes[0], c.nodes[1]
	moving := shardOwnedBy(t, c.initial, src.Self())
	var other uint32
	for s, o := range c.initial.Owners {
		if o == src.Self() && uint32(s) != moving {
			other = uint32(s)
		}
	}
	keys := [][]byte{
		keyOnShard(c.initial, moving, "moving"),
		keyOnShard(c.initial, other, "source"),
		keyOnShard(c.initial, shardOwnedBy(t, c.initial, dst.Self()), "dest"),
	}
	r := c.router()
	for _, k := range keys {
		if err := r.Put(ctx, k, []byte("before")); err != nil {
			t.Fatal(err)
		}
	}

	parked, release := make(chan struct{}), make(chan struct{})
	testHookMerge = func() { close(parked); <-release }
	t.Cleanup(func() { testHookMerge = nil })
	flipped := make(chan error, 1)
	go func() { flipped <- src.Reshard(ctx, moving, dst.Self()) }()
	select {
	case <-parked:
	case err := <-flipped:
		t.Fatalf("reshard ended before its snapshot arrived: %v", err)
	}

	octx, cancel := context.WithTimeout(ctx, 5*time.Second)
	for _, k := range keys {
		if err := r.Put(octx, k, []byte("during")); err != nil {
			t.Fatalf("put %s with the merge parked: %v", k, err)
		}
		if v, err := r.Get(octx, k); err != nil || string(v) != "during" {
			t.Fatalf("get %s with the merge parked: %q, %v", k, v, err)
		}
	}
	cancel()
	if src.Stats().DualWrites == 0 {
		t.Fatal("the put to the migrating shard was not logged")
	}

	close(release)
	if err := <-flipped; err != nil {
		t.Fatalf("reshard: %v", err)
	}
	for _, k := range keys {
		if v, err := r.Get(ctx, k); err != nil || string(v) != "during" {
			t.Fatalf("get %s after the flip: %q, %v", k, v, err)
		}
	}
}

// TestUnreachableDestinationDoesNotStallWrites: a write to a moving
// shard is acked by the source alone, so a destination cut off in the
// middle of the move costs the writer nothing; the flip, which needs the
// destination, fails instead, and the source keeps the write.
func TestUnreachableDestinationDoesNotStallWrites(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4, ownerNodes: 1})
	ctx := tctx(t, 20*time.Second)
	src, dst := c.nodes[0], c.nodes[1]
	r := c.router()
	key := keyOnShard(c.initial, 0, "k")
	if err := r.Put(ctx, key, []byte("before")); err != nil {
		t.Fatal(err)
	}

	inWindow, release := make(chan struct{}), make(chan struct{})
	testHookDualWindow = func() { close(inWindow); <-release }
	t.Cleanup(func() { testHookDualWindow = nil })
	fctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	flipped := make(chan error, 1)
	go func() { flipped <- src.Reshard(fctx, 0, dst.Self()) }()
	select {
	case <-inWindow:
	case err := <-flipped:
		t.Fatalf("reshard ended before its window: %v", err)
	}

	c.fabric.Partition([]string{dst.Self().Addr})
	start := time.Now()
	err := r.Put(ctx, key, []byte("during"))
	if took := time.Since(start); err != nil || took > 500*time.Millisecond {
		t.Fatalf("put to the moving shard with the destination cut off: %v after %v", err, took)
	}
	close(release)
	if err := <-flipped; err == nil {
		t.Fatal("the flip committed to an unreachable destination")
	}
	c.fabric.Heal()
	if v, err := r.Get(ctx, key); err != nil || string(v) != "during" {
		t.Fatalf("get after the failed flip: %q, %v", v, err)
	}
}

// fourRPCXstreams gives a node one RPC pool drained by four xstreams,
// so its data handlers run concurrently (margo's default is one).
const fourRPCXstreams = `{
  "argobots": {
    "pools": [{"name": "rpc", "type": "fifo_wait", "access": "mpmc"}],
    "xstreams": [
      {"name": "es0", "scheduler": {"type": "basic_wait", "pools": ["rpc"]}},
      {"name": "es1", "scheduler": {"type": "basic_wait", "pools": ["rpc"]}},
      {"name": "es2", "scheduler": {"type": "basic_wait", "pools": ["rpc"]}},
      {"name": "es3", "scheduler": {"type": "basic_wait", "pools": ["rpc"]}}
    ]
  },
  "rpc_pool": "rpc",
  "progress_pool": "rpc"
}`

// TestSameKeyWritesAgreeAcrossFlip pins "log order is apply order":
// with each node's handlers on four xstreams, eight writers race puts
// to one key inside the window, and the value the source serves before
// each flip is the one the destination serves after it.
func TestSameKeyWritesAgreeAcrossFlip(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 1, ownerNodes: 1, margo: fourRPCXstreams})
	ctx := tctx(t, 60*time.Second)
	r := c.router()
	key := []byte("contended")
	inWindow, release := make(chan struct{}), make(chan struct{})
	testHookDualWindow = func() { inWindow <- struct{}{}; <-release }
	t.Cleanup(func() { testHookDualWindow = nil })

	for flip := 0; flip < 20; flip++ {
		src, dst := c.nodes[flip%2], c.nodes[(flip+1)%2]
		flipped := make(chan error, 1)
		go func() { flipped <- src.Reshard(ctx, 0, dst.Self()) }()
		select {
		case <-inWindow:
		case err := <-flipped:
			t.Fatalf("flip %d ended before its window: %v", flip, err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if err := r.Put(ctx, key, []byte(fmt.Sprintf("f%d-w%d-%d", flip, w, i))); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatalf("flip %d: put: %v", flip, err)
		}
		before, err := r.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		release <- struct{}{}
		if err := <-flipped; err != nil {
			t.Fatalf("flip %d: %v", flip, err)
		}
		after, err := r.Get(ctx, key)
		if err != nil || string(after) != string(before) {
			t.Fatalf("flip %d: the source served %q, the destination serves %q (%v)", flip, before, after, err)
		}
	}
}

// TestCommandedReshardLeavesNodeServing: a reshard commanded over RPC
// (the balancer's path) runs on neither the source's RPC execution
// stream — a Get to the source completes while the flip is parked in
// the window before its flip — nor its migration stream: two nodes
// commanded toward each other, both held in their windows until both
// are there, each still receive the other's snapshot and finish.
func TestCommandedReshardLeavesNodeServing(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 8})
	ctx := tctx(t, 20*time.Second)
	a, b := c.nodes[0], c.nodes[1]
	sa, sb := shardOwnedBy(t, c.initial, a.Self()), shardOwnedBy(t, c.initial, b.Self())
	r := c.router()
	ka, kb := keyOnShard(c.initial, sa, "a"), keyOnShard(c.initial, sb, "b")
	for _, k := range [][]byte{ka, kb} {
		if err := r.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	var both sync.WaitGroup
	both.Add(2)
	inWindow, gate := make(chan struct{}), make(chan struct{})
	go func() { both.Wait(); close(inWindow) }()
	testHookDualWindow = func() { both.Done(); <-gate }
	t.Cleanup(func() { testHookDualWindow = nil })

	reshard := Migrator(c.client)
	errs := make(chan error, 2)
	go func() { errs <- reshard(ctx, move(sa, a.Self(), b.Self())) }()
	go func() { errs <- reshard(ctx, move(sb, b.Self(), a.Self())) }()
	select {
	case <-inWindow:
	case err := <-errs:
		t.Fatalf("a commanded reshard ended before both reached their windows: %v", err)
	}
	octx, cancel := context.WithTimeout(ctx, 5*time.Second)
	for _, k := range [][]byte{ka, kb} {
		if v, err := r.Get(octx, k); err != nil || string(v) != "v" {
			t.Fatalf("get %s with both commanded reshards parked: %q, %v", k, v, err)
		}
	}
	cancel()
	// Both snapshots have crossed; both flips commit at once.
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("commanded reshard: %v", err)
		}
	}
	for _, nd := range c.nodes {
		if m := nd.CurrentMap(); m.Owners[sa] != b.Self() || m.Owners[sb] != a.Self() {
			t.Fatalf("%v: shards did not swap: %v", nd.Self(), m.Owners)
		}
	}
	for _, k := range [][]byte{ka, kb} {
		if v, err := r.Get(ctx, k); err != nil || string(v) != "v" {
			t.Fatalf("get %s after the swap: %q, %v", k, v, err)
		}
	}
}

// slowLinks delays every message between two addresses, both ways.
type slowLinks struct {
	a, b string
	d    time.Duration
}

func (l slowLinks) Delay(src, dst string, _ mercury.OpClass, _ int) time.Duration {
	if src == l.a && dst == l.b || src == l.b && dst == l.a {
		return l.d
	}
	return 0
}

// TestConcurrentFlipsOfDisjointShards: nodes 0 and 1 each move one of
// their shards to the spare, both flips held in their windows until
// both are there and released together, so both derive their new map
// from the same one: what the two sources tell each other arrives late.
// Each map bumps only its own shard's version, so the two merge in any
// order: every node ends knowing both flips, and every key is readable
// through the test's router and through a fresh one.
func TestConcurrentFlipsOfDisjointShards(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 3, shards: 8, ownerNodes: 2})
	ctx := tctx(t, 20*time.Second)
	c.fabric.SetModel(slowLinks{c.nodes[0].Self().Addr, c.nodes[1].Self().Addr, 100 * time.Millisecond})
	spare := c.nodes[2].Self()
	s0, s1 := shardOwnedBy(t, c.initial, c.nodes[0].Self()), shardOwnedBy(t, c.initial, c.nodes[1].Self())
	r := c.router()
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		if err := r.Put(ctx, keys[i], keys[i]); err != nil {
			t.Fatal(err)
		}
	}

	var both sync.WaitGroup
	both.Add(2)
	inWindow, gate := make(chan struct{}), make(chan struct{})
	go func() { both.Wait(); close(inWindow) }()
	testHookDualWindow = func() { both.Done(); <-gate }
	t.Cleanup(func() { testHookDualWindow = nil })
	errs := make(chan error, 2)
	go func() { errs <- c.nodes[0].Reshard(ctx, s0, spare) }()
	go func() { errs <- c.nodes[1].Reshard(ctx, s1, spare) }()
	select {
	case <-inWindow:
	case err := <-errs:
		t.Fatalf("a flip ended before both reached their windows: %v", err)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("reshard: %v", err)
		}
	}

	for _, rr := range []*Router{r, c.router()} {
		for _, k := range keys {
			if v, err := rr.Get(ctx, k); err != nil || string(v) != string(k) {
				t.Fatalf("get %s after both flips: %q, %v", k, v, err)
			}
		}
	}
	for _, nd := range c.nodes {
		if m := nd.CurrentMap(); m.Owners[s0] != spare || m.Owners[s1] != spare {
			t.Fatalf("%v: shards %d and %d owned by %v and %v, want both on the spare", nd.Self(), s0, s1, m.Owners[s0], m.Owners[s1])
		}
	}
}

// loseFlip runs a flip of shard 0 from node 0 to node 1 whose promote
// and abort are both lost: node 1 is cut off inside the window. The
// source keeps the shard; node 1 keeps a staging area with the snapshot
// merged, which no abort will ever tear down.
func loseFlip(t *testing.T, c *cluster) {
	t.Helper()
	inWindow, release := make(chan struct{}), make(chan struct{})
	testHookDualWindow = func() { close(inWindow); <-release }
	defer func() { testHookDualWindow = nil }()
	fctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	flipped := make(chan error, 1)
	go func() { flipped <- c.nodes[0].Reshard(fctx, 0, c.nodes[1].Self()) }()
	select {
	case <-inWindow:
	case err := <-flipped:
		t.Fatalf("reshard ended before its window: %v", err)
	}
	c.fabric.Partition([]string{c.nodes[1].Self().Addr})
	close(release)
	if err := <-flipped; err == nil {
		t.Fatal("the flip committed to a cut-off destination")
	}
	c.fabric.Heal()
}

// TestRestartedSourceGetsAFreshMigration: a source restarted at the
// same address starts its next move under a fresh migration ID, so the
// destination's staging area from before the restart — holding the
// shard as it was then — is replaced, not taken for this move's.
func TestRestartedSourceGetsAFreshMigration(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4, ownerNodes: 1, backend: yokan.Config{Type: "log"}})
	ctx := tctx(t, 20*time.Second)
	r := c.router()
	key := keyOnShard(c.initial, 0, "k")
	if err := r.Put(ctx, key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	loseFlip(t, c)
	if err := r.Put(ctx, key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	c.restart(t, 0)
	if err := c.nodes[0].Reshard(ctx, 0, c.nodes[1].Self()); err != nil {
		t.Fatalf("reshard after the restart: %v", err)
	}
	if v, err := c.router().Get(ctx, key); err != nil || string(v) != "new" {
		t.Fatalf("get after the flip: %q, %v; want the acked \"new\"", v, err)
	}
}

// TestLostAbortDoesNotBarTheDestination: a staging area whose abort was
// lost belongs to a dead attempt, so the next move of the shard to the
// same destination replaces it and commits.
func TestLostAbortDoesNotBarTheDestination(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4, ownerNodes: 1})
	ctx := tctx(t, 20*time.Second)
	r := c.router()
	key := keyOnShard(c.initial, 0, "k")
	if err := r.Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	loseFlip(t, c)
	if err := c.nodes[0].Reshard(ctx, 0, c.nodes[1].Self()); err != nil {
		t.Fatalf("reshard after a lost abort: %v", err)
	}
	if v, err := r.Get(ctx, key); err != nil || string(v) != "v" {
		t.Fatalf("get after the flip: %q, %v", v, err)
	}
}

// arrival is the REMI fileset a flip of shard under migration mig
// delivers, carrying snap.
func arrival(shard uint32, mig uint64, snap []byte) *remi.FileSet {
	fs := &remi.FileSet{Class: snapshotClass, Metadata: map[string]string{
		metaShard: fmt.Sprint(shard),
		metaMig:   fmt.Sprint(mig),
	}}
	fs.AddBytes("shard.snap", snap)
	return fs
}

// TestAbortAndArrivalInterleave: an abort of a dead attempt and the
// arrival of a fresh attempt's snapshot race on the log backend, where
// both staging areas of the shard have the same file. Whatever the
// order, the fresh area holds its snapshot and nothing of the dead
// attempt, and its file stays on disk.
func TestAbortAndArrivalInterleave(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4, ownerNodes: 1, backend: yokan.Config{Type: "log"}})
	dst := c.nodes[1]
	ctx := context.Background()
	snap := codec.NewEncoder(nil)
	logPut(snap, []byte("fresh"), []byte("v"))
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 1000; i++ {
		dead, live := rng.Uint64(), rng.Uint64()
		dst.receiveSnapshot(ctx, arrival(0, dead, nil))
		if err := dst.incoming[0].db.Put([]byte("stale"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		yieldsA, yieldsR := rng.Intn(4), rng.Intn(4)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < yieldsA; j++ {
				runtime.Gosched()
			}
			dst.handleAbort(ctx, nil, &abortArgs{Shard: 0, MigID: dead})
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < yieldsR; j++ {
				runtime.Gosched()
			}
			dst.receiveSnapshot(ctx, arrival(0, live, snap.Bytes()))
		}()
		wg.Wait()
		inc := dst.incoming[0]
		if inc == nil || inc.migID != live || !inc.merged {
			t.Fatalf("round %d: no merged staging area under the live ID", i)
		}
		if ok, _ := inc.db.Exists([]byte("stale")); ok {
			t.Fatalf("round %d: the live staging area holds the dead attempt's key", i)
		}
		if ok, _ := inc.db.Exists([]byte("fresh")); !ok {
			t.Fatalf("round %d: the live staging area lacks its snapshot", i)
		}
		if files := filesUnder(t, dst.dir); len(files) != 1 {
			t.Fatalf("round %d: files under the node: %v; want the live area's log", i, files)
		}
		dst.handleAbort(ctx, nil, &abortArgs{Shard: 0, MigID: live})
	}
}

// filesUnder lists the regular files below dir (which may not exist).
func filesUnder(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // absent directory: nothing leaked there
		}
		if !d.IsDir() {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAbortedMigrationsLeaveNoFiles: neither a flip that aborts on the
// source (dead destination, after the snapshot was cut) nor a snapshot
// that reaches a destination after its migration was aborted leaves a
// file behind. The snapshot lives in memory on both sides, and an
// arrival that comes too late finds the source's region freed.
func TestAbortedMigrationsLeaveNoFiles(t *testing.T) {
	ctx := tctx(t, 30*time.Second)
	fill := func(r *Router) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if err := r.Put(ctx, []byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("v"), 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(r *Router) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if _, err := r.Get(ctx, []byte(fmt.Sprintf("k%d", i))); err != nil {
				t.Fatalf("get after aborted flip: %v", err)
			}
		}
	}

	// The destination's REMI provider goes away, so Migrate fails after
	// the cut.
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4, ownerNodes: 1})
	fill(c.router())
	c.nodes[1].remiP.Close()
	if err := c.nodes[0].Reshard(ctx, 0, c.nodes[1].Self()); err == nil {
		t.Fatal("reshard succeeded without a REMI provider at the destination")
	}
	for _, nd := range c.nodes {
		if left := filesUnder(t, nd.dir); len(left) != 0 {
			t.Fatalf("files left behind under %s: %v", nd.dir, left)
		}
	}
	check(c.router())

	// The snapshot reaches the destination only after the source gave
	// up and sent its abort: a blocking ULT parks the destination's
	// migration xstream, with the REMI begin and the abort queued behind
	// it, until the reshard has failed.
	c = newCluster(t, clusterConfig{nodes: 2, shards: 4, ownerNodes: 1, backend: yokan.Config{Type: "log"}})
	src, dst := c.nodes[0], c.nodes[1]
	r := c.router()
	fill(r)
	release := make(chan struct{})
	parked, err := dst.migPool.Push(func() { <-release })
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	err = src.Reshard(sctx, 0, dst.Self())
	cancel()
	if err == nil {
		t.Fatal("reshard committed through a parked destination")
	}
	close(release)
	parked.Join()
	barrier, err := dst.migPool.Push(func() {})
	if err != nil {
		t.Fatal(err)
	}
	barrier.Join()
	if begins, ok := dst.inst.Stats().FindByName("remi_begin"); !ok || len(begins.Target) == 0 {
		t.Fatal("the late snapshot never reached the destination's REMI handler")
	}
	dst.mu.Lock()
	left := len(dst.incoming)
	dst.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d staging areas outlived their abort", left)
	}
	if files := filesUnder(t, dst.dir); len(files) != 0 {
		t.Fatalf("files left behind under %s: %v", dst.dir, files)
	}
	if err := src.Reshard(ctx, 0, dst.Self()); err != nil {
		t.Fatalf("reshard after the late arrival: %v", err)
	}
	check(r)
}

// TestArrivalForAnOwnedShardKeepsNoState: a snapshot of a shard the
// destination already has resident opens no staging area, so the
// source's promote finds no such migration and the source keeps
// serving the shard.
func TestArrivalForAnOwnedShardKeepsNoState(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4, ownerNodes: 1})
	ctx := tctx(t, 20*time.Second)
	src, dst := c.nodes[0], c.nodes[1]
	r := c.router()
	key := keyOnShard(c.initial, 0, "k")
	if err := r.Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	db, err := dst.openShardDB(0)
	if err != nil {
		t.Fatal(err)
	}
	dst.mu.Lock()
	dst.shards[0] = &shard{id: 0, db: db}
	dst.mu.Unlock()

	err = src.Reshard(ctx, 0, dst.Self())
	if err == nil || !strings.Contains(err.Error(), "no such migration") {
		t.Fatalf("reshard onto an owner: %v; want the promote to find no such migration", err)
	}
	dst.mu.Lock()
	inc := dst.incoming[0]
	dst.mu.Unlock()
	if inc != nil {
		t.Fatal("the arrival opened a staging area for a shard the destination owns")
	}
	if src.lookupShard(0) == nil || src.Stats().Reshards != 0 {
		t.Fatal("the source gave up the shard")
	}
	if err := r.Put(ctx, key, []byte("w")); err != nil {
		t.Fatal(err)
	}
	if v, err := r.Get(ctx, key); err != nil || string(v) != "w" {
		t.Fatalf("get from the source after the failed flip: %q, %v", v, err)
	}
}

// TestFlipAsksTheDestinationTwice: one flip costs the destination two
// RPCs of the migration protocol, the REMI begin its snapshot arrives
// by and the promote, plus the map the source gossips afterwards. The
// destination's Listing-1 record holds those three rows and no other.
func TestFlipAsksTheDestinationTwice(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4, ownerNodes: 1})
	ctx := tctx(t, 20*time.Second)
	src, dst := c.nodes[0], c.nodes[1]
	if err := src.Reshard(ctx, 0, dst.Self()); err != nil {
		t.Fatal(err)
	}
	var served []string
	for _, st := range dst.inst.Stats().RPCs {
		if len(st.Target) > 0 {
			served = append(served, st.Name)
		}
	}
	slices.Sort(served)
	if want := []string{"remi_begin", RPCInstallMap, RPCMigratePromote}; !slices.Equal(served, want) {
		t.Fatalf("the destination served %v for one flip, want %v", served, want)
	}
}

// TestNewNodeRefusesTheLastProviderIDs: a node's REMI provider is at
// ProviderID+1, which for the two highest IDs is mercury.AnyProvider or
// wraps to 0.
func TestNewNodeRefusesTheLastProviderIDs(t *testing.T) {
	cls, err := mercury.NewFabric().NewClass("xkv-ids")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	for _, id := range []uint16{65534, 65535} {
		n, err := NewNode(inst, Options{ProviderID: id, Dir: t.TempDir()})
		if err == nil {
			n.Close()
			t.Fatalf("provider ID %d accepted", id)
		}
		if !strings.Contains(err.Error(), fmt.Sprint(id)) {
			t.Fatalf("provider ID %d refused with %q, which does not name it", id, err)
		}
	}
}

// TestNodeLifecycleOwnsMigrationPool: NewNode adds a pool and an
// xstream named after its provider (two nodes on one instance do not
// collide), both show in the instance's live configuration, and Close
// removes them and leaves no goroutine behind.
func TestNodeLifecycleOwnsMigrationPool(t *testing.T) {
	f := mercury.NewFabric()
	cls, err := f.NewClass("xkv-lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	topology := func() (pools, xstreams []string) {
		raw, err := inst.GetConfig()
		if err != nil {
			t.Fatal(err)
		}
		var cfg margo.Config
		if err := json.Unmarshal(raw, &cfg); err != nil {
			t.Fatal(err)
		}
		for _, p := range cfg.Argobots.Pools {
			pools = append(pools, p.Name)
		}
		for _, x := range cfg.Argobots.Xstreams {
			xstreams = append(xstreams, x.Name)
		}
		return pools, xstreams
	}
	poolsBefore, xsBefore := topology()
	before := testutil.GoroutineCount()

	var nodes []*Node
	for _, id := range []uint16{20, 30} {
		n, err := NewNode(inst, Options{ProviderID: id, Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		nodes = append(nodes, n)
	}
	pools, xs := topology()
	contains := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"xkv-20-migration", "xkv-30-migration"} {
		if !contains(pools, want) || !contains(xs, want+"-es") {
			t.Fatalf("%q and its xstream not in the live configuration: %v %v", want, pools, xs)
		}
	}
	if _, err := NewNode(inst, Options{ProviderID: 20, Dir: t.TempDir()}); err == nil {
		t.Fatal("a second node with the same provider ID was accepted")
	}
	if p, _ := topology(); len(p) != len(pools) {
		t.Fatalf("a rejected NewNode left its pool behind: %v", p)
	}

	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if p, x := topology(); fmt.Sprint(p, x) != fmt.Sprint(poolsBefore, xsBefore) {
		t.Fatalf("Close left topology %v %v, want %v %v", p, x, poolsBefore, xsBefore)
	}
	testutil.WaitGoroutinesSettle(t, before, 2)
}

// TestClusterClosesLeakFree: a cluster that resharded — through the
// library call and through the commanded RPC — and closed leaves no
// goroutine behind.
func TestClusterClosesLeakFree(t *testing.T) {
	before := testutil.GoroutineCount()
	t.Run("cluster", func(t *testing.T) {
		c := newCluster(t, clusterConfig{nodes: 3, shards: 8, ownerNodes: 2})
		ctx := tctx(t, 20*time.Second)
		r := c.router()
		for i := 0; i < 300; i++ {
			if err := r.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		s := shardOwnedBy(t, c.initial, c.nodes[0].Self())
		if err := c.nodes[0].Reshard(ctx, s, c.nodes[2].Self()); err != nil {
			t.Fatal(err)
		}
		if err := Migrator(c.client)(ctx, move(s, c.nodes[2].Self(), c.nodes[0].Self())); err != nil {
			t.Fatal(err)
		}
	})
	testutil.WaitGoroutinesSettle(t, before, 2)
}

func newStaging(t *testing.T) *staging {
	t.Helper()
	db, err := yokan.Open(yokan.Config{Type: "map", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return &staging{db: db}
}

func dbContents(t *testing.T, db yokan.Database) map[string]string {
	t.Helper()
	kvs, err := db.ListKeyValues(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, kv := range kvs {
		out[string(kv.Key)] = string(kv.Value)
	}
	return out
}

// write puts key=val (or erases key, when val is empty) on a shard the
// way a data RPC does: under the shard's read lock, through put or
// erase, which log it while the shard moves.
func write(n *Node, sh *shard, key, val string) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if val == "" {
		return n.erase(context.Background(), sh, &opArgs{Keys: [][]byte{[]byte(key)}}, nil)
	}
	return n.put(context.Background(), sh, &opArgs{Pairs: []yokan.KeyValue{{Key: []byte(key), Value: []byte(val)}}}, nil)
}

// land is the destination's side of a flip: the snapshot merged into an
// empty staging area in batches of the sizes batch returns, then the
// log replayed on top. It returns what the destination then holds.
func land(t *testing.T, snap, log []byte, batch func() int) map[string]string {
	t.Helper()
	inc := newStaging(t)
	d := codec.NewDecoder(snap)
	for done := false; !done; {
		var err error
		if done, err = mergeBatch(inc, d, batch()); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}
	if done, err := replay(inc.db, codec.NewDecoder(log), math.MaxInt); !done || err != nil {
		t.Fatalf("replay: done=%v, %v", done, err)
	}
	return dbContents(t, inc.db)
}

// TestSnapshotThenLogReproducesSource: whatever way four writers'
// puts and erases on 40 overlapping keys interleave with an unlocked
// cut, the snapshot merged in random batch sizes and the log replayed
// on top reproduce the source. Seeded: a failure prints the seed that
// replays the writers' operations.
func TestSnapshotThenLogReproducesSource(t *testing.T) {
	const keyspace, writers, opsEach = 40, 4, 50
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src, err := yokan.Open(yokan.Config{Type: "map", Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keyspace; i++ {
			if rng.Intn(2) == 0 {
				if err := src.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("old")); err != nil {
					t.Fatal(err)
				}
			}
		}
		n, sh := &Node{}, &shard{db: src, log: codec.NewEncoder(nil)}
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wrng := rand.New(rand.NewSource(seed*writers + int64(w)))
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < opsEach; i++ {
					key, val := fmt.Sprintf("k%02d", wrng.Intn(keyspace)), ""
					if wrng.Intn(3) > 0 {
						val = fmt.Sprintf("w%d-%d", w, i)
					}
					if err := write(n, sh, key, val); err != nil && !yokan.IsNotFound(err) {
						errs <- err
						return
					}
					runtime.Gosched()
				}
			}(w)
		}
		close(start)
		snap, err := cutSnapshot(src, nil)
		wg.Wait()
		close(errs)
		if err == nil {
			err = <-errs
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sh.mu.Lock() // the flip's drain
		log := sh.log.Bytes()
		sh.mu.Unlock()
		got := land(t, snap, log, func() int { return 1 + rng.Intn(7) })
		if want := dbContents(t, src); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: destination differs from source:\n got %v\nwant %v", seed, got, want)
		}
		src.Close()
	}
}

// mutateMidScan is a shard database that changes while a snapshot cut
// is under way: after the first page of the scan has been read.
type mutateMidScan struct {
	yokan.Database
	mutate func()
}

func (m *mutateMidScan) ListKeyValues(from, prefix []byte, max int) ([]yokan.KeyValue, error) {
	page, err := m.Database.ListKeyValues(from, prefix, max)
	if from == nil {
		m.mutate()
	}
	return page, err
}

// TestUnlockedCutUnderDualWrite covers what can happen to a key while
// the cut runs without a lock — erased, overwritten, created, ahead of
// the scan or behind it — each change made through the data path of a
// moving shard, which logs it: the cut must not fail, and snapshot plus
// log must reproduce the source.
func TestUnlockedCutUnderDualWrite(t *testing.T) {
	src, err := yokan.Open(yokan.Config{Type: "skiplist", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	const keys = 600 // several scan pages
	for i := 0; i < keys; i++ {
		if err := src.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	n, sh := &Node{}, &shard{db: src, log: codec.NewEncoder(nil)}
	change := func(key, val string) {
		if err := write(n, sh, key, val); err != nil {
			t.Fatal(err)
		}
	}
	db := &mutateMidScan{Database: src, mutate: func() {
		change("k0003", "")     // erased behind the scan: in the snapshot, erased by the log
		change("k0005", "new")  // overwritten behind the scan: the snapshot has the old value
		change("k0500", "")     // erased ahead of the scan: skipped
		change("k0501", "new")  // overwritten ahead of the scan
		change("k0000a", "new") // created behind the scan: only in the log
		change("k0599a", "new") // created ahead of the scan
	}}
	snap, err := cutSnapshot(db, nil)
	if err != nil {
		t.Fatalf("cut across concurrent changes: %v", err)
	}
	want, got := dbContents(t, src), land(t, snap, sh.log.Bytes(), func() int { return 64 })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("destination differs from source:\n got %v\nwant %v", got, want)
	}
	if len(got) != keys || got["k0005"] != "new" || got["k0000a"] != "new" {
		t.Fatalf("concurrent changes lost (%d keys)", len(got))
	}
}

// TestMergeRejectsCorruptSnapshot: a truncated snapshot fails the
// merge and leaves the staging area unmerged, so promote refuses.
func TestMergeRejectsCorruptSnapshot(t *testing.T) {
	e := codec.NewEncoder(nil)
	logPut(e, []byte("k"), []byte("value"))
	inc := newStaging(t)
	if done, err := mergeBatch(inc, codec.NewDecoder(e.Bytes()[:e.Len()-2]), mergeBatchKeys); err == nil || done || inc.merged {
		t.Fatalf("truncated snapshot merged: done=%v err=%v", done, err)
	}
}

// tcpPair starts two router nodes over TCP loopback with every shard
// on the first, plus a client instance.
func tcpPair(t *testing.T, shards int) (nodes [2]*Node, client *margo.Instance, m *Map) {
	t.Helper()
	newInst := func() *margo.Instance {
		cls, err := mercury.NewTCPClass("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Finalize)
		return inst
	}
	for i := range nodes {
		n, err := NewNode(newInst(), Options{ProviderID: testProviderID, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	m, err := NewMap(shards, []Owner{nodes[0].Self()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := n.Adopt(m); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, newInst(), m
}

// TestReshardAllocBytesPinned pins the per-byte budget of a flip: over
// TCP loopback, ping-ponging a 4096 x 1 KiB shard between two nodes
// allocates at most 4x the shard's payload per flip (it was 16x: a
// doubling encoder, three reads of a snapshot file, frame scratch
// growth and two payload copies in the transport). What is left is the
// destination's receive buffer, the values the destination database
// stores, and the key listing.
func TestReshardAllocBytesPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	nodes, client, m := tcpPair(t, 1)
	ctx := tctx(t, 60*time.Second)
	r := NewRouter(client, m)
	const keys, valLen = 4096, 1024
	value := make([]byte, valLen)
	payload := 0
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("key-%016d", i))
		if err := r.Put(ctx, k, value); err != nil {
			t.Fatal(err)
		}
		payload += len(k) + valLen
	}
	flip := func(i int) {
		src, dst := nodes[i%2], nodes[(i+1)%2]
		if err := src.Reshard(ctx, 0, dst.Self()); err != nil {
			t.Fatalf("flip %d: %v", i, err)
		}
	}
	const warm, flips = 4, 20
	for i := 0; i < warm; i++ {
		flip(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+flips; i++ {
		flip(i)
	}
	runtime.ReadMemStats(&after)
	perFlip := float64(after.TotalAlloc-before.TotalAlloc) / flips
	t.Logf("%.2fx payload allocated per flip (%.0f of %d bytes)", perFlip/float64(payload), perFlip, payload)
	if perFlip > 4*float64(payload) {
		t.Fatalf("a flip allocates %.2fx its %d-byte payload, pinned at <= 4x", perFlip/float64(payload), payload)
	}
	if got, err := r.Count(ctx); err != nil || got != keys {
		t.Fatalf("count after %d flips: %d, %v", warm+flips, got, err)
	}
}

// TestReshardPhasesTraced: a flip under a head-sampled context records
// its phases as children of the caller's span — snapshot, transfer
// and promote on the source, merge under the destination's REMI
// handler — with the RPCs of a phase nested below it; an unsampled
// flip records none, and deciding that allocates nothing.
func TestReshardPhasesTraced(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 2, ownerNodes: 1})
	ctx := tctx(t, 20*time.Second)
	src, dst := c.nodes[0], c.nodes[1]
	r := c.router()
	for i := 0; i < 100; i++ {
		if err := r.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	phases := func(tr *trace.Tracer) map[string]trace.Span {
		out := map[string]trace.Span{}
		for _, s := range tr.Spans() {
			if s.Kind == trace.KindPhase {
				out[s.Name] = s
			}
		}
		return out
	}

	if err := src.Reshard(ctx, 0, dst.Self()); err != nil {
		t.Fatal(err)
	}
	if got := len(phases(src.inst.Tracer())) + len(phases(dst.inst.Tracer())); got != 0 {
		t.Fatalf("an unsampled flip recorded %d phase spans", got)
	}
	unsampled := trace.NewContext(ctx, trace.SpanContext{TraceID: 7, Parent: 8})
	if avg := testing.AllocsPerRun(100, func() {
		_, sp := src.phase(unsampled, "snapshot")
		sp.End(src.inst.Clock().Now(), false)
	}); avg != 0 {
		t.Fatalf("an unsampled phase allocates %.1f times, want 0", avg)
	}

	const traceID, root = trace.ID(0xABCD), trace.ID(0x1234)
	sampled := trace.NewContext(ctx, trace.SpanContext{TraceID: traceID, Parent: root, Flags: trace.FlagSampled})
	if err := src.Reshard(sampled, 1, dst.Self()); err != nil {
		t.Fatal(err)
	}
	onSrc, onDst := phases(src.inst.Tracer()), phases(dst.inst.Tracer())
	for _, name := range []string{"snapshot", "transfer", "promote"} {
		s, ok := onSrc[name]
		if !ok || s.TraceID != traceID || s.Parent != root {
			t.Fatalf("source phase %q: %+v (recorded: %v)", name, s, onSrc)
		}
	}
	merge, ok := onDst["merge"]
	if !ok || merge.TraceID != traceID {
		t.Fatalf("destination recorded no merge phase in the flip's trace: %v", onDst)
	}
	// The merge hangs below the REMI handler span, which hangs (via
	// server and client spans) below the source's transfer phase.
	parents := map[trace.ID]trace.ID{}
	for _, tr := range []*trace.Tracer{src.inst.Tracer(), dst.inst.Tracer()} {
		for _, s := range tr.Spans() {
			if s.TraceID == traceID {
				parents[s.SpanID] = s.Parent
			}
		}
	}
	under := func(id, ancestor trace.ID) bool {
		for i := 0; id != 0 && i < 16; i++ {
			if id == ancestor {
				return true
			}
			id = parents[id]
		}
		return false
	}
	if !under(merge.Parent, onSrc["transfer"].SpanID) {
		t.Fatal("the merge phase is not a descendant of the transfer phase")
	}
}

// TestCommandedReshardIsTailSampled: a flip commanded over xkv_reshard,
// the balancer's path, with head sampling off and the source's tail
// threshold below the flip's duration, records the source's phases as
// children of the xkv_reshard server span — which the kept handle ends
// at the reply — each inside its interval.
func TestCommandedReshardIsTailSampled(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 2, ownerNodes: 1})
	ctx := tctx(t, 20*time.Second)
	src, dst := c.nodes[0], c.nodes[1]
	tr := src.inst.Tracer()
	tr.SetSlowThreshold(time.Nanosecond)
	if err := Migrator(c.client)(ctx, move(0, src.Self(), dst.Self())); err != nil {
		t.Fatal(err)
	}
	var server trace.Span
	phases := map[string]trace.Span{}
	// The server span ends at the reply, unless the handler that kept
	// the handle has not yet returned: then just after.
	for server.SpanID == 0 && ctx.Err() == nil {
		runtime.Gosched()
		for _, s := range tr.Spans() {
			switch {
			case s.Kind == trace.KindServer && s.Name == RPCReshard:
				server = s
			case s.Kind == trace.KindPhase:
				phases[s.Name] = s
			}
		}
	}
	if !server.Tail {
		t.Fatalf("no tail-sampled %s server span: %+v", RPCReshard, server)
	}
	for _, name := range []string{"snapshot", "transfer", "promote"} {
		s, ok := phases[name]
		if !ok || s.Parent != server.SpanID || s.TraceID != server.TraceID ||
			s.Start < server.Start || s.Start+s.Duration > server.Start+server.Duration {
			t.Fatalf("phase %q: %+v, want a child inside %+v", name, s, server)
		}
	}
}
