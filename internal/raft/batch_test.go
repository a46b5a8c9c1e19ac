package raft

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/testutil"
)

// ApplyBatch implements BatchFSM for the test kvFSM: the node hands a
// whole committed run over in one call.
func (f *kvFSM) ApplyBatch(cmds []Command) [][]byte {
	f.mu.Lock()
	f.batchSizes = append(f.batchSizes, len(cmds))
	f.mu.Unlock()
	out := make([][]byte, len(cmds))
	for i, c := range cmds {
		out[i] = f.Apply(c.Index, c.Data)
	}
	return out
}

// Read implements ReaderFSM for the test kvFSM: "get k" queries.
func (f *kvFSM) Read(query []byte) []byte {
	parts := bytes.SplitN(query, []byte(" "), 2)
	if len(parts) == 2 && string(parts[0]) == "get" {
		f.mu.Lock()
		defer f.mu.Unlock()
		return []byte(f.m[string(parts[1])])
	}
	return nil
}

func (f *kvFSM) maxBatch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	max := 0
	for _, n := range f.batchSizes {
		if n > max {
			max = n
		}
	}
	return max
}

// singleNode builds a one-member group on its own fabric with the
// given store, returning the node once it leads.
func singleNode(t *testing.T, store Store, fsm FSM, cfg Config) *Node {
	t.Helper()
	node, _ := singleNodeOnFabric(t, store, fsm, cfg)
	return node
}

// singleNodeOnFabric is singleNode for tests that add clients.
func singleNodeOnFabric(t *testing.T, store Store, fsm FSM, cfg Config) (*Node, *mercury.Fabric) {
	t.Helper()
	fabric := mercury.NewFabric()
	cls, err := fabric.NewClass("raft-single")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(inst, "g", []string{inst.Addr()}, store, fsm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Stop()
		inst.Finalize()
	})
	await(t, "the single node to lead", []*Node{node}, node.IsLeader)
	return node, fabric
}

// gatedStore wraps a Store, records the size of every Append, and can
// park one Append (the next after arm) until the test releases it. A
// test that arms it must release it before its node is stopped: Stop
// joins the writer.
type gatedStore struct {
	Store
	mu      sync.Mutex
	sizes   []int
	hold    chan struct{} // non-nil: the next Append parks on it
	entered chan struct{} // closed when that Append has parked
}

func (s *gatedStore) arm() (entered <-chan struct{}, release func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sizes = nil
	s.hold, s.entered = make(chan struct{}), make(chan struct{})
	hold := s.hold
	var once sync.Once
	return s.entered, func() { once.Do(func() { close(hold) }) }
}

func (s *gatedStore) Append(entries []LogEntry) error {
	s.mu.Lock()
	hold := s.hold
	s.hold = nil
	s.sizes = append(s.sizes, len(entries))
	s.mu.Unlock()
	if hold != nil {
		close(s.entered)
		<-hold
	}
	return s.Store.Append(entries)
}

func (s *gatedStore) appendSizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.sizes...)
}

// queuedWrites is how many Persists wait for the writer.
func (n *Node) queuedWrites() int {
	n.drv.Lock()
	defer n.drv.Unlock()
	return len(n.queue)
}

// TestApplyGroupCommitBatches proves the group-commit claim at the
// store level, with no timing involved: one proposal's store.Append is
// parked on a hook, N more proposals are appended by the core meanwhile
// and queue at the writer, and when the hook releases the N must reach
// the sync-enabled FileStore as one Append — one fsync — and the FSM as
// one ApplyBatch run.
func TestApplyGroupCommitBatches(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), false) // sync enabled
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	gs := &gatedStore{Store: fs}
	fsm := newKVFSM()
	node := singleNode(t, gs, fsm, fastRaftCfg())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// Settle: the election no-op is applied, so nothing but this test's
	// proposals is in the pipeline.
	if _, err := node.Apply(ctx, []byte("set warm up")); err != nil {
		t.Fatal(err)
	}

	const ops = 48 // below maxBatchEntries: all of them fit one batch
	entered, release := gs.arm()
	var wg sync.WaitGroup
	errs := make(chan error, ops+1)
	propose := func(cmd string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := node.Apply(ctx, []byte(cmd)); err != nil {
				errs <- err
			}
		}()
	}
	propose("set gate open")
	<-entered // the gate proposal holds the writer inside Append
	for i := 0; i < ops; i++ {
		propose(fmt.Sprintf("set k%d v%d", i, i))
	}
	t.Cleanup(release) // idempotent; a writer still parked would keep Stop waiting
	await(t, "every proposal to queue at the writer", []*Node{node}, func() bool { return node.queuedWrites() >= ops })
	base := fs.Syncs()
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if sizes := gs.appendSizes(); len(sizes) != 2 || sizes[0] != 1 || sizes[1] != ops {
		t.Fatalf("store.Append sizes = %v, want [1 %d]: the %d queued proposals must share one append", sizes, ops, ops)
	}
	if syncs := fs.Syncs() - base; syncs != 2 {
		t.Fatalf("%d fsyncs for the gate entry plus %d batched proposals, want 2", syncs, ops)
	}
	if fsm.get("k47") != "v47" {
		t.Fatal("command not applied")
	}
	if fsm.maxBatch() != ops {
		t.Fatalf("largest ApplyBatch run = %d, want %d: the batch commits at once and must apply at once", fsm.maxBatch(), ops)
	}
}

// failingStore wraps a Store and fails Append on demand.
type failingStore struct {
	Store
	fail atomic.Bool
}

func (s *failingStore) Append(entries []LogEntry) error {
	if s.fail.Load() {
		return errors.New("injected disk failure")
	}
	return s.Store.Append(entries)
}

// TestAppendLocalSurfacesStoreError: a persistent-store write failure
// on the leader must surface the store error to the caller and step the
// leader down — not return a generic "append failed" while staying
// leader.
func TestAppendLocalSurfacesStoreError(t *testing.T) {
	fs := &failingStore{Store: NewMemoryStore()}
	node := singleNode(t, fs, newKVFSM(), fastRaftCfg())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := node.Apply(ctx, []byte("set a 1")); err != nil {
		t.Fatal(err)
	}

	fs.fail.Store(true)
	_, err := node.Apply(ctx, []byte("set b 2"))
	if err == nil {
		t.Fatal("Apply succeeded with a failing store")
	}
	if !strings.Contains(err.Error(), "injected disk failure") {
		t.Fatalf("store error swallowed: %v", err)
	}
	if node.IsLeader() {
		t.Fatal("leader kept leading after a persistent-store append failure")
	}

	// Once the store recovers, the node wins its next election and
	// accepts commands again.
	fs.fail.Store(false)
	await(t, "the node to win its next election", []*Node{node}, node.IsLeader)
	if _, err := node.Apply(ctx, []byte("set c 3")); err != nil {
		t.Fatalf("apply after store recovery: %v", err)
	}
}

// TestReadIndexServesReads: linearizable reads answer from the FSM
// without growing the log, and only the leader serves them.
func TestReadIndexServesReads(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := c.apply(ctx, []byte("set ri v1")); err != nil {
		t.Fatal(err)
	}

	leader = c.waitLeader()
	before := c.stores[leader.ID()].LastIndex()
	for i := 0; i < 10; i++ {
		out, err := leader.Read(ctx, []byte("get ri"))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != "v1" {
			t.Fatalf("read = %q", out)
		}
	}
	if after := c.stores[leader.ID()].LastIndex(); after != before {
		t.Fatalf("log grew from %d to %d across reads; ReadIndex must not append", before, after)
	}

	// Followers refuse and point at the leader.
	for _, n := range c.nodes {
		if n.ID() == leader.ID() {
			continue
		}
		if _, err := n.Read(ctx, []byte("get ri")); err == nil {
			t.Fatal("follower served a ReadIndex get")
		}
		break
	}

	// A write observed through Read immediately after Apply returns.
	if _, err := leader.Apply(ctx, []byte("set ri v2")); err == nil {
		out, err := leader.Read(ctx, []byte("get ri"))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != "v2" {
			t.Fatalf("stale read %q after acknowledged write", out)
		}
	}
}

// plainFSM deliberately does not implement ReaderFSM.
type plainFSM struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (f *plainFSM) Apply(_ uint64, cmd []byte) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = map[string][]byte{}
	}
	f.m[string(cmd)] = cmd
	return cmd
}
func (f *plainFSM) Snapshot() ([]byte, error) { return nil, nil }
func (f *plainFSM) Restore([]byte) error      { return nil }

// TestReadRequiresReaderFSM: a group whose FSM lacks Read reports
// ErrNoReader instead of hanging or panicking.
func TestReadRequiresReaderFSM(t *testing.T) {
	node := singleNode(t, NewMemoryStore(), &plainFSM{}, fastRaftCfg())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := node.Read(ctx, []byte("q")); !errors.Is(err, ErrNoReader) {
		t.Fatalf("err = %v, want ErrNoReader", err)
	}
}

// TestClientReadFollowsLeader: the client Read RPC forwards to the
// leader via hints, like Apply.
func TestClientReadFollowsLeader(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	c.waitLeader()
	cls, _ := c.fabric.NewClass("raft-read-client")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	client := NewClient(inst, "g", c.addrs)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := client.Apply(ctx, []byte("set cr v")); err != nil {
		t.Fatal(err)
	}
	out, err := client.Read(ctx, []byte("get cr"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "v" {
		t.Fatalf("client read = %q", out)
	}
}

// TestApplyBatchedAllocsPinned pins the per-proposal allocation budget
// of the batched hot path (single-node MemoryStore, so no RPC or disk
// in the loop): proposal + batch bookkeeping + waiter wakeup + FSM
// apply. The pin has headroom for scheduler jitter; blowing past it
// means a per-entry copy or per-wakeup slice crept into the path.
func TestApplyBatchedAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	node := singleNode(t, NewMemoryStore(), newKVFSM(), fastRaftCfg())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := []byte("set pin v")
	if _, err := node.Apply(ctx, cmd); err != nil {
		t.Fatal(err)
	}
	per := testing.AllocsPerRun(200, func() {
		if _, err := node.Apply(ctx, cmd); err != nil {
			t.Fatal(err)
		}
	})
	// Serial applies are worst-case: every proposal is its own batch,
	// so the whole batch overhead lands on one op. Measured ~30;
	// pinned at 48 for headroom.
	if per > 48 {
		t.Fatalf("Apply allocates %.1f per op; pin is 48 (batch bookkeeping regressed)", per)
	}
}
