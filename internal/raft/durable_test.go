package raft

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/testutil"
	"mochi/internal/trace"
)

// The tests in this file hold a member's disk write open (gatedStore)
// and check that nothing else waits with it.

// within fails the test if f has not returned after d: what f calls
// must not be waiting for the disk.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v while a store write was in progress", what, d)
	}
}

// TestSetStateIsDurable: a vote that is not on the disk when the reply
// leaves can be given twice after a power loss. On a store opened with
// fsync on, SetState syncs the file it wrote and the directory it
// renamed it in.
func TestSetStateIsDurable(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	before := fs.Syncs()
	if err := fs.SetState(3, "sm://alice"); err != nil {
		t.Fatal(err)
	}
	if got := fs.Syncs() - before; got != 2 {
		t.Fatalf("SetState issued %d fsyncs, want 2: the file, then its directory entry", got)
	}
	ns, err := NewFileStore(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	if err := ns.SetState(3, "sm://alice"); err != nil || ns.Syncs() != 0 {
		t.Fatalf("nosync store: %v, %d fsyncs", err, ns.Syncs())
	}
}

// TestNewFileStoreSyncsNewDirectories: a store whose directory a crash
// can take back loses the votes and entries it acknowledged. Opening
// one two new levels deep syncs each new directory into its parent —
// two fsyncs, and the log file itself none until the first append.
func TestNewFileStoreSyncsNewDirectories(t *testing.T) {
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "a", "b"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if got := fs.Syncs(); got != 2 {
		t.Fatalf("opening a store two new levels deep issued %d fsyncs, want 2", got)
	}
}

// TestLeaderServesWhileItsDiskIsBusy: with the leader's Append held
// open, a read on it completes and its status can be asked — the disk
// wait is not under the node's lock.
func TestLeaderServesWhileItsDiskIsBusy(t *testing.T) {
	gs := &gatedStore{Store: NewMemoryStore()}
	node := singleNode(t, gs, newKVFSM(), fastRaftCfg())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := node.Apply(ctx, []byte("set k old")); err != nil {
		t.Fatal(err)
	}
	entered, release := gs.arm()
	defer release()
	applied := make(chan error, 1)
	go func() {
		_, err := node.Apply(ctx, []byte("set k new"))
		applied <- err
	}()
	<-entered
	within(t, 5*time.Second, "Node.Read", func() {
		if out, err := node.Read(ctx, []byte("get k")); err != nil || string(out) != "old" {
			t.Errorf("read during the write: %q, %v", out, err)
		}
	})
	within(t, 5*time.Second, "Node.IsLeader and Node.Status", func() {
		if !node.IsLeader() || node.Status().Role != Leader {
			t.Error("the leader lost its role by writing to its disk")
		}
	})
	select {
	case err := <-applied:
		t.Fatalf("Apply returned (%v) before its entry was durable", err)
	default:
	}
	release()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if out, err := node.Read(ctx, []byte("get k")); err != nil || string(out) != "new" {
		t.Fatalf("read after the write: %q, %v", out, err)
	}
}

// TestFollowerAnswersWhileItsDiskIsBusy: a follower whose Append is held
// open still acknowledges a ReadIndex probe and answers a vote request;
// the AppendEntries that caused the write is answered when the write is
// done, and not before.
func TestFollowerAnswersWhileItsDiskIsBusy(t *testing.T) {
	h := newHandDriven(t)
	gs := &gatedStore{Store: NewMemoryStore()}
	h.start(gs, newKVFSM())
	leader := h.peer.Addr()

	entered, release := gs.arm()
	defer release()
	appended := make(chan error, 1)
	go func() {
		var ack appendEntriesReply
		err := h.call(rpcAppendEntries, &appendEntriesArgs{Group: "hand", Term: 1, Leader: leader,
			Entries: []LogEntry{{Index: 1, Term: 1, Type: EntryCommand, Data: []byte("set a 1")}}}, &ack)
		if err == nil && !ack.Success {
			err = fmt.Errorf("append refused: %+v", ack)
		}
		appended <- err
	}()
	<-entered
	within(t, 5*time.Second, "a ReadIndex probe", func() {
		var ack appendEntriesReply
		if err := h.call(rpcAppendEntries, &appendEntriesArgs{Group: "hand", Term: 1, Leader: leader}, &ack); err != nil || !ack.Success || ack.Term != 1 {
			t.Errorf("probe: %+v, %v", ack, err)
		}
	})
	within(t, 5*time.Second, "a vote request", func() {
		var vote requestVoteReply
		// The leader's own successor, or the follower would not listen so
		// soon after hearing from the leader. Its log is shorter than the
		// follower's, entry in flight included: denied, in the new term.
		if err := h.call(rpcRequestVote, &requestVoteArgs{Group: "hand", Term: 2, Candidate: "sm://absent", Transfer: true}, &vote); err != nil || vote.Granted || vote.Term != 2 {
			t.Errorf("vote: %+v, %v", vote, err)
		}
	})
	select {
	case err := <-appended:
		t.Fatalf("AppendEntries was answered (%v) before its entries were durable", err)
	default:
	}
	release()
	// The write is done, but the term moved on meanwhile: the held
	// reply may no longer say yes.
	if err := <-appended; err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("held reply after a term change: %v, want a refusal carrying the new term", err)
	}
}

// rawApply sends one raft_apply RPC and returns the reply as is.
func rawApply(ctx context.Context, from *margo.Instance, to, cmd string) (applyReply, error) {
	var reply applyReply
	err := from.Call(ctx, to, rpcApply, mercury.AnyProvider, &applyArgs{Group: "g", Cmd: []byte(cmd)}, &reply)
	return reply, err
}

func clientInstance(t *testing.T, fabric *mercury.Fabric, name string) *margo.Instance {
	t.Helper()
	cls, err := fabric.NewClass(name)
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

// TestClientReadDuringAnotherClientsApply: over RPC, on the default
// one-pool, one-execution-stream instance, a client's Read completes
// while another client's Apply is waiting for its commit — the Apply
// handler has returned and left its handle to whoever resolves it.
func TestClientReadDuringAnotherClientsApply(t *testing.T) {
	gs := &gatedStore{Store: NewMemoryStore()}
	node, fabric := singleNodeOnFabric(t, gs, newKVFSM(), fastRaftCfg())
	writer := NewClient(clientInstance(t, fabric, "writer"), "g", []string{node.ID()})
	reader := NewClient(clientInstance(t, fabric, "reader"), "g", []string{node.ID()})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := writer.Apply(ctx, []byte("set k old")); err != nil {
		t.Fatal(err)
	}
	entered, release := gs.arm()
	defer release()
	applied := make(chan error, 1)
	go func() {
		_, err := writer.Apply(ctx, []byte("set k new"))
		applied <- err
	}()
	<-entered
	within(t, 5*time.Second, "Client.Read", func() {
		if out, err := reader.Read(ctx, []byte("get k")); err != nil || string(out) != "old" {
			t.Errorf("read during another client's apply: %q, %v", out, err)
		}
	})
	release()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
}

// TestStopAnswersEveryKeptHandle: Stop with requests outstanding — RPCs
// whose handlers have long returned — answers each of them, once, with
// ErrStopped.
func TestStopAnswersEveryKeptHandle(t *testing.T) {
	gs := &gatedStore{Store: NewMemoryStore()}
	node, fabric := singleNodeOnFabric(t, gs, newKVFSM(), fastRaftCfg())
	client := clientInstance(t, fabric, "raw")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if r, err := rawApply(ctx, client, node.ID(), "set warm up"); err != nil || !r.OK {
		t.Fatalf("warm-up: %+v, %v", r, err)
	}
	entered, release := gs.arm()
	defer release()
	const kept = 8
	var answers atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < kept; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := rawApply(ctx, client, node.ID(), fmt.Sprintf("set k%d v", i))
			if err != nil || r.OK || !strings.HasPrefix(r.Err, ErrStopped.Error()) {
				t.Errorf("request %d: %+v, %v; want a reply saying the node stopped", i, r, err)
			}
			answers.Add(1)
		}()
	}
	<-entered
	await(t, "every request to reach the log", []*Node{node}, func() bool {
		node.drv.Lock()
		defer node.drv.Unlock()
		return node.core.outstanding() == kept
	})
	stopped := make(chan struct{})
	go func() {
		node.Stop() // returns once the writer is out of the store
		close(stopped)
	}()
	wg.Wait() // every handle was answered although the disk never was
	if answers.Load() != kept {
		t.Fatalf("%d answers for %d requests", answers.Load(), kept)
	}
	release()
	<-stopped
	if r, err := rawApply(ctx, client, node.ID(), "set late v"); err == nil && r.OK {
		t.Fatal("a stopped node took a command")
	}
}

// lockFreeStore fails the test if the node's lock is held while the
// store writes.
type lockFreeStore struct {
	Store
	t     *testing.T
	node  atomic.Pointer[Node]
	calls [3]atomic.Int32 // Append, TruncateFrom, SaveSnapshot
}

func (s *lockFreeStore) check(call int, name string) {
	s.calls[call].Add(1)
	n := s.node.Load()
	// Another goroutine may hold the lock for a moment (a test reading
	// Status, the timer loop); a caller that held it across this call
	// would hold it for as long as the check waits.
	for start := time.Now(); !n.drv.TryLock(); runtime.Gosched() {
		if time.Since(start) > time.Second {
			s.t.Errorf("Store.%s was called with the node's lock held", name)
			return
		}
	}
	n.drv.Unlock()
}

func (s *lockFreeStore) Append(entries []LogEntry) error {
	s.check(0, "Append")
	return s.Store.Append(entries)
}

func (s *lockFreeStore) TruncateFrom(index uint64) error {
	s.check(1, "TruncateFrom")
	return s.Store.TruncateFrom(index)
}

func (s *lockFreeStore) SaveSnapshot(index, term uint64, data []byte) error {
	s.check(2, "SaveSnapshot")
	return s.Store.SaveSnapshot(index, term, data)
}

// TestStoreWritesHappenOutsideTheLock drives a follower through an
// append, a conflicting overwrite, a snapshot install and a local
// compaction: every store write they cause finds the node's lock free.
func TestStoreWritesHappenOutsideTheLock(t *testing.T) {
	h := newHandDriven(t)
	fs, err := NewFileStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	store := &lockFreeStore{Store: fs, t: t}
	n := h.start(store, newKVFSM())
	store.node.Store(n)
	send := func(a *appendEntriesArgs) {
		t.Helper()
		var ack appendEntriesReply
		if err := h.call(rpcAppendEntries, a, &ack); err != nil || !ack.Success {
			t.Fatalf("append %+v: %+v, %v", a, ack, err)
		}
	}
	send(&appendEntriesArgs{Group: "hand", Term: 1, Leader: h.peer.Addr(), Entries: []LogEntry{
		{Index: 1, Term: 1, Type: EntryCommand, Data: []byte("set a 1")},
		{Index: 2, Term: 1, Type: EntryCommand, Data: []byte("set a 2")},
	}})
	send(&appendEntriesArgs{Group: "hand", Term: 2, Leader: h.peer.Addr(), PrevLogIndex: 1, PrevLogTerm: 1, LeaderCommit: 2,
		Entries: []LogEntry{{Index: 2, Term: 2, Type: EntryCommand, Data: []byte("set a two")}}})
	await(t, "index 2 to be applied", []*Node{n}, func() bool { return n.Status().LastApplied >= 2 })
	if err := n.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	donor := newKVFSM()
	donor.Apply(10, []byte("set a 10"))
	state, _ := donor.Snapshot()
	var ack appendEntriesReply
	if err := h.call(rpcInstallSnapshot, &installSnapshotArgs{
		Group: "hand", Term: 2, Leader: h.peer.Addr(), LastIndex: 10, LastTerm: 2,
		Data: codec.Marshal(&snapshotEnvelope{Peers: h.peers, FSM: state}),
	}, &ack); err != nil || !ack.Success {
		t.Fatalf("install: %+v, %v", ack, err)
	}
	for i, name := range []string{"Append", "TruncateFrom", "SaveSnapshot"} {
		if store.calls[i].Load() == 0 {
			t.Errorf("the scenario never called Store.%s", name)
		}
	}
	if fs.FirstIndex() != 11 || fs.LastIndex() != 10 {
		t.Fatalf("store ends at first %d last %d, want the snapshot at 10 and nothing after", fs.FirstIndex(), fs.LastIndex())
	}
}

// TestFileStoreAppendAllocsPinned: the writer's hot path — frame the
// entries, write, sync, extend the in-memory image — allocates nothing
// per append (the image's amortized growth aside).
func TestFileStoreAppendAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	fs, err := NewFileStore(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	batch := []LogEntry{{Term: 1, Type: EntryCommand, Data: make([]byte, 128)}, {Term: 1, Type: EntryCommand, Data: make([]byte, 128)}}
	next := uint64(1)
	per := testing.AllocsPerRun(500, func() {
		batch[0].Index, batch[1].Index = next, next+1
		next += 2
		if err := fs.Append(batch); err != nil {
			t.Fatal(err)
		}
	})
	if per != 0 {
		t.Fatalf("FileStore.Append allocates %.0f per call, want 0", per)
	}
}

// TestSampledRequestRecordsItsOwnSpan: the handler of an RPC-borne Apply
// or Read returns long before the request is answered, and the handle
// it keeps carries margo's server span to the reply. On a sampled
// request that server span is the request's root on the leader, with a
// child per phase inside it — a read has its round child only when a
// round was run for it — and a fast unsampled request records no phase.
func TestSampledRequestRecordsItsOwnSpan(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	inst := clientInstance(t, c.fabric, "traced-client")
	client := NewClient(inst, "g", []string{leader.ID()})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tr := c.insts[leader.ID()].Tracer()
	if _, err := client.Apply(ctx, []byte("set k v")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Read(ctx, []byte("get k")); err != nil {
		t.Fatal(err)
	}
	if got := spansOf(tr, trace.KindPhase); len(got) != 0 {
		t.Fatalf("unsampled requests recorded %v", got)
	}

	inst.Tracer().SetSampleRate(1)
	if _, err := client.Apply(ctx, []byte("set k w")); err != nil {
		t.Fatal(err)
	}
	if out, err := client.Read(ctx, []byte("get k")); err != nil || string(out) != "w" {
		t.Fatalf("read: %q, %v", out, err)
	}
	if got := spansOf(tr, trace.KindPhase); len(got["round"]) != 0 {
		t.Fatalf("a read served under the lease recorded a round: %v", got["round"])
	}
	// The same leader without its lease, as after a transfer: a round.
	leader.drv.Lock()
	leader.core.transferred = true
	leader.drv.Unlock()
	if out, err := client.Read(ctx, []byte("get k")); err != nil || string(out) != "w" {
		t.Fatalf("read: %q, %v", out, err)
	}
	var servers map[string][]trace.Span
	await(t, "the server spans", []*Node{leader}, func() bool {
		servers = spansOf(tr, trace.KindServer)
		return len(servers[rpcApply]) == 1 && len(servers[rpcRead]) == 2
	})
	got := spansOf(tr, trace.KindPhase)
	for _, want := range []struct{ rpc, child string }{{rpcApply, "replicate"}, {rpcRead, "round"}} {
		s := servers[want.rpc][len(servers[want.rpc])-1]
		if !hasChildInside(s, got[want.child]) {
			t.Errorf("%s has no %q child inside it: %v", want.rpc, want.child, got[want.child])
		}
	}
}

// TestSlowPutIsTailSampled: with head sampling off and the leader's
// tail threshold below a Put's commit time, one Put over RPC leaves
// its raft_apply server span, tail-flagged, covering the request from
// its arrival through its reply, with its persist and replicate phases
// inside it in the same trace.
func TestSlowPutIsTailSampled(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	client := NewClient(clientInstance(t, c.fabric, "tail-client"), "g", []string{leader.ID()})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tr := c.insts[leader.ID()].Tracer()
	tr.SetSlowThreshold(time.Nanosecond)
	if _, err := client.Apply(ctx, []byte("set k v")); err != nil {
		t.Fatal(err)
	}
	var server trace.Span
	await(t, "the raft_apply server span", []*Node{leader}, func() bool {
		ss := spansOf(tr, trace.KindServer)[rpcApply]
		if len(ss) == 1 {
			server = ss[0]
		}
		return len(ss) == 1
	})
	if !server.Tail {
		t.Fatalf("server span not tail-flagged: %+v", server)
	}
	phases := spansOf(tr, trace.KindPhase)
	for _, name := range []string{"persist", "replicate"} {
		if !hasChildInside(server, phases[name]) {
			t.Fatalf("no %s phase inside %+v: %v", name, server, phases)
		}
	}
	// The handler returned with the handle kept, long before the commit
	// the server span waited for.
	for _, h := range spansOf(tr, trace.KindHandler)["handler"] {
		if h.Parent == server.SpanID && h.Start+h.Duration >= phases["replicate"][0].Start+phases["replicate"][0].Duration {
			t.Fatalf("the handler %+v outlasted the replication %+v", h, phases["replicate"][0])
		}
	}
}

// spansOf indexes the spans of kind that tr holds by name.
func spansOf(tr *trace.Tracer, kind trace.Kind) map[string][]trace.Span {
	byName := map[string][]trace.Span{}
	for _, s := range tr.Spans() {
		if s.Kind == kind {
			byName[s.Name] = append(byName[s.Name], s)
		}
	}
	return byName
}

// hasChildInside reports whether one of kids is a child of parent, in
// its trace, whose interval lies inside parent's.
func hasChildInside(parent trace.Span, kids []trace.Span) bool {
	for _, k := range kids {
		if k.Parent == parent.SpanID && k.TraceID == parent.TraceID &&
			k.Start >= parent.Start && k.Start+k.Duration <= parent.Start+parent.Duration {
			return true
		}
	}
	return false
}
