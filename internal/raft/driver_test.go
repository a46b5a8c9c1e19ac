package raft

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mochi/internal/clock"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/testutil"
)

// TestCoreIsPure keeps core.go a pure state machine: it may import
// only what cannot reach a clock, a lock, a goroutine or the network
// (time for Time and Duration values, math/rand for the injected
// *rand.Rand), and must not start a goroutine.
func TestCoreIsPure(t *testing.T) {
	testutil.CheckPure(t, "core.go", "encoding/json", "fmt", "math/rand", "sort", "time", "mochi/internal/codec")
}

// quietCfg keeps the protocol's own timers out of a test that drives a
// member by hand.
func quietCfg() Config {
	return Config{ElectionTimeoutMin: time.Hour, ElectionTimeoutMax: 2 * time.Hour, HeartbeatInterval: time.Hour}
}

// handDriven is one real member plus a bare instance that plays its
// peers by sending protocol RPCs.
type handDriven struct {
	t      *testing.T
	fabric *mercury.Fabric
	member *margo.Instance
	peer   *margo.Instance
	peers  []string
}

func newHandDriven(t *testing.T) *handDriven {
	t.Helper()
	h := &handDriven{t: t, fabric: mercury.NewFabric()}
	for i, inst := range []**margo.Instance{&h.member, &h.peer} {
		cls, err := h.fabric.NewClass(fmt.Sprintf("hand-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if *inst, err = margo.New(cls, nil); err != nil {
			t.Fatal(err)
		}
		t.Cleanup((*inst).Finalize)
	}
	h.peers = []string{h.member.Addr(), h.peer.Addr(), "sm://absent"}
	return h
}

func (h *handDriven) start(store Store, fsm FSM) *Node {
	h.t.Helper()
	n, err := NewNode(h.member, "hand", h.peers, store, fsm, quietCfg())
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(n.Stop)
	return n
}

// call sends one protocol RPC to the member and decodes the reply; an
// RPC-level error is returned as is.
func (h *handDriven) call(rpc string, args codec.Message, reply codec.Message) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := h.peer.Forward(ctx, h.member.Addr(), rpc, codec.Marshal(args))
	if err != nil {
		return err
	}
	return codec.Unmarshal(out, reply)
}

// TestVoteNotGrantedWhenPersistFails drives the satellite bug end to
// end over the wire: a member whose meta write fails must not tell the
// candidate it has its vote. Before the fix it replied Granted, and
// after a restart — the store never recorded the vote — granted the
// same term again to somebody else.
func TestVoteNotGrantedWhenPersistFails(t *testing.T) {
	h := newHandDriven(t)
	store := &stateFailStore{MemoryStore: NewMemoryStore()}
	n := h.start(store, newKVFSM())

	store.fail = true
	var first requestVoteReply
	err := h.call(rpcRequestVote, &requestVoteArgs{Group: "hand", Term: 5, Candidate: h.peer.Addr()}, &first)
	if err == nil && first.Granted {
		t.Fatal("vote granted although it could not be persisted")
	}
	if err == nil && first.Term == 5 {
		t.Fatal("reply carries term 5, which the member could not record")
	}
	if st := n.Status(); st.Term != 0 {
		t.Fatalf("member moved to term %d in memory only", st.Term)
	}

	// Restart on what the disk holds: no promise was made, so another
	// candidate of term 5 may have the vote.
	n.Stop()
	store.fail = false
	h.start(store, newKVFSM())
	var second requestVoteReply
	if err := h.call(rpcRequestVote, &requestVoteArgs{Group: "hand", Term: 5, Candidate: "sm://absent"}, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Granted {
		t.Fatal("a member that promised nothing refused its vote")
	}
}

// gatedFSM wraps the test kvFSM, notices overlapping calls, can park
// one ApplyBatch, and knows the index its state was last restored to.
type gatedFSM struct {
	*kvFSM
	active     atomic.Int32
	overlapped atomic.Bool
	floor      atomic.Uint64 // Restore moves it to nextFloor
	nextFloor  uint64
	belowFloor atomic.Uint64 // first index seen at or below floor

	mu      sync.Mutex
	hold    chan struct{}
	entered chan struct{}
}

func (f *gatedFSM) enter() func() {
	if f.active.Add(1) > 1 {
		f.overlapped.Store(true)
	}
	return func() { f.active.Add(-1) }
}

func (f *gatedFSM) arm() (entered <-chan struct{}, release func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hold, f.entered = make(chan struct{}), make(chan struct{})
	hold := f.hold
	return f.entered, func() { close(hold) }
}

func (f *gatedFSM) ApplyBatch(cmds []Command) [][]byte {
	defer f.enter()()
	f.mu.Lock()
	hold := f.hold
	f.hold = nil
	f.mu.Unlock()
	if hold != nil {
		close(f.entered)
		<-hold
	}
	for _, c := range cmds {
		if c.Index <= f.floor.Load() {
			f.belowFloor.CompareAndSwap(0, c.Index)
		}
	}
	return f.kvFSM.ApplyBatch(cmds)
}

func (f *gatedFSM) Restore(snap []byte) error {
	defer f.enter()()
	f.floor.Store(f.nextFloor)
	return f.kvFSM.Restore(snap)
}

func (f *gatedFSM) Snapshot() ([]byte, error) {
	defer f.enter()()
	return f.kvFSM.Snapshot()
}

// TestFSMHasOneCaller: Apply/ApplyBatch, Restore and Snapshot all run
// on the applier, one at a time, and a run fetched before a snapshot
// install is never applied on top of the restored state. The test parks
// the applier inside ApplyBatch, delivers an InstallSnapshot and calls
// TakeSnapshot meanwhile, then lets go.
func TestFSMHasOneCaller(t *testing.T) {
	h := newHandDriven(t)
	fsm := &gatedFSM{kvFSM: newKVFSM(), nextFloor: 10}
	n := h.start(NewMemoryStore(), fsm)
	leader := h.peer.Addr()

	entered, release := fsm.arm()
	var ack appendEntriesReply
	if err := h.call(rpcAppendEntries, &appendEntriesArgs{
		Group: "hand", Term: 1, Leader: leader, LeaderCommit: 3,
		Entries: []LogEntry{
			{Index: 1, Term: 1, Type: EntryCommand, Data: []byte("set a 1")},
			{Index: 2, Term: 1, Type: EntryCommand, Data: []byte("set a 2")},
			{Index: 3, Term: 1, Type: EntryCommand, Data: []byte("set a 3")},
		},
	}, &ack); err != nil || !ack.Success {
		t.Fatalf("append: %+v, %v", ack, err)
	}
	<-entered // the run 1..3 is inside the FSM

	donor := newKVFSM()
	donor.Apply(10, []byte("set a 10"))
	state, _ := donor.Snapshot()
	if err := h.call(rpcInstallSnapshot, &installSnapshotArgs{
		Group: "hand", Term: 1, Leader: leader, LastIndex: 10, LastTerm: 1,
		Data: codec.Marshal(&snapshotEnvelope{Peers: h.peers, FSM: state}),
	}, &ack); err != nil || !ack.Success {
		t.Fatalf("install: %+v, %v", ack, err)
	}
	snapDone := make(chan error, 1)
	go func() { snapDone <- n.TakeSnapshot() }()

	release()
	if err := <-snapDone; err != nil {
		t.Fatal(err)
	}
	if err := h.call(rpcAppendEntries, &appendEntriesArgs{
		Group: "hand", Term: 1, Leader: leader, PrevLogIndex: 10, PrevLogTerm: 1, LeaderCommit: 11,
		Entries: []LogEntry{{Index: 11, Term: 1, Type: EntryCommand, Data: []byte("set b 11")}},
	}, &ack); err != nil || !ack.Success {
		t.Fatalf("append after install: %+v, %v", ack, err)
	}
	await(t, "index 11 to be applied", []*Node{n}, func() bool { return n.Status().LastApplied >= 11 })
	if fsm.overlapped.Load() {
		t.Fatal("two FSM calls overlapped")
	}
	if idx := fsm.belowFloor.Load(); idx != 0 {
		t.Fatalf("FSM restored to 10 was then handed index %d", idx)
	}
	if fsm.get("a") != "10" || fsm.get("b") != "11" {
		t.Fatalf("a=%q b=%q, want the snapshot's a=10 and then b=11", fsm.get("a"), fsm.get("b"))
	}
}

// TestTruncatedConfigRevertsMembershipOverTheWire is the end-to-end
// twin of TestTruncatedConfigEntryRevertsMembership: a follower that
// appended "add a fourth member" and then has that entry overwritten by
// a new leader must be back to three peers.
func TestTruncatedConfigRevertsMembershipOverTheWire(t *testing.T) {
	h := newHandDriven(t)
	n := h.start(NewMemoryStore(), newKVFSM())
	four := append(append([]string(nil), h.peers...), "sm://fourth")
	var ack appendEntriesReply
	if err := h.call(rpcAppendEntries, &appendEntriesArgs{
		Group: "hand", Term: 1, Leader: h.peer.Addr(),
		Entries: []LogEntry{{Index: 1, Term: 1, Type: EntryCommand, Data: []byte("set a 1")}, configEntry(t, 2, 1, four...)},
	}, &ack); err != nil || !ack.Success {
		t.Fatalf("append: %+v, %v", ack, err)
	}
	if got := len(n.Status().Peers); got != 4 {
		t.Fatalf("%d peers after the config entry, want 4", got)
	}
	if err := h.call(rpcAppendEntries, &appendEntriesArgs{
		Group: "hand", Term: 2, Leader: "sm://absent", PrevLogIndex: 1, PrevLogTerm: 1,
		Entries: []LogEntry{{Index: 2, Term: 2, Type: EntryNoop}},
	}, &ack); err != nil || !ack.Success {
		t.Fatalf("overwrite: %+v, %v", ack, err)
	}
	if got := n.Status().Peers; len(got) != 3 {
		t.Fatalf("peers = %v after the config entry was truncated, want the original three", got)
	}
}

// TestClientConfigChangeFollowsLeaderHint: AddServer through a client
// whose only seed is a follower reaches the leader through the hint
// (it used to walk the seeds only, until the deadline), and a refusal
// that is not about leadership comes back as its sentinel.
func TestClientConfigChangeFollowsLeaderHint(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	var follower string
	for _, a := range c.addrs {
		if a != leader.ID() {
			follower = a
		}
	}
	cls, _ := c.fabric.NewClass("raft-joiner")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	joiner, err := NewNode(inst, "g", nil, NewMemoryStore(), newKVFSM(), fastRaftCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()

	client := NewClient(c.insts[follower], "g", []string{follower})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.AddServer(ctx, inst.Addr()); err != nil {
		t.Fatalf("AddServer through a follower seed: %v", err)
	}
	if err := client.AddServer(ctx, inst.Addr()); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("adding a member twice: %v, want ErrBadConfig", err)
	}
	if err := client.RemoveServer(ctx, "sm://nobody"); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("removing a stranger: %v, want ErrBadConfig", err)
	}
}

// TestNodeGoroutinesJoinedByStop: elections, reads and writes leave no
// goroutine behind — timer loop, writer, applier, senders — once the
// nodes are stopped and their instances finalized (the cluster's
// cleanup does both when the subtest ends). One member writes to a
// real file store, so its writer is stopped in the middle of real work.
func TestNodeGoroutinesJoinedByStop(t *testing.T) {
	before := testutil.GoroutineCount()
	t.Run("cluster", func(t *testing.T) {
		c := newRaftCluster(t, 3, fastRaftCfg())
		leader := c.waitLeader()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		fs, err := NewFileStore(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() }) // after the node's own cleanup has stopped it
		single := singleNode(t, fs, newKVFSM(), fastRaftCfg())
		go func() {
			for i := 0; single.ctx.Err() == nil; i++ {
				_, _ = single.Apply(ctx, []byte(fmt.Sprintf("set s%d v", i)))
			}
		}()
		for i := 0; i < 20; i++ {
			if _, err := c.apply(ctx, []byte(fmt.Sprintf("set g%d v", i))); err != nil {
				t.Fatal(err)
			}
			_, _ = leader.Read(ctx, []byte("get g0"))
		}
		// Crash the leader (a killed endpoint can still send, so stop it
		// as well) to force another election.
		c.fabric.Kill(leader.ID())
		leader.Stop()
		c.waitLeader(leader.ID())
	})
	testutil.WaitGoroutinesSettle(t, before, 2)
}

// raftRPCs is every name the group multiplexer installs on an instance.
var raftRPCs = []string{rpcRequestVote, rpcAppendEntries, rpcInstallSnapshot, rpcApply, rpcRead, rpcConfigChange, rpcStatus}

// TestHandlersFollowMemberLifetime: the per-instance multiplexer is
// installed all-or-nothing by the first member and removed by the last
// one to stop. Before, a failed install was remembered as done (the
// next NewNode "succeeded" on a half-registered instance) and nothing
// was ever removed, so every finalized instance stayed reachable.
func TestHandlersFollowMemberLifetime(t *testing.T) {
	h := newHandDriven(t)
	registered := func(name string) bool { return h.member.Class().Registered(name, mercury.AnyProvider) }
	newNode := func(group string) (*Node, error) {
		return NewNode(h.member, group, h.peers, NewMemoryStore(), newKVFSM(), quietCfg())
	}

	// A forced mid-install failure leaves nothing registered.
	if _, err := h.member.Register(rpcStatus, func(context.Context, *mercury.Handle) {}); err != nil {
		t.Fatal(err)
	}
	if n, err := newNode("a"); err == nil {
		n.Stop()
		t.Fatal("NewNode succeeded although one of its RPC names was taken")
	}
	for _, name := range raftRPCs[:len(raftRPCs)-1] {
		if registered(name) {
			t.Fatalf("failed install left %s registered", name)
		}
	}
	h.member.DeregisterProvider(rpcStatus, mercury.AnyProvider)

	// The failure is not remembered: the next member installs everything.
	a, err := newNode("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := newNode("b")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range raftRPCs {
		if !registered(name) {
			t.Fatalf("%s not registered with two members running", name)
		}
	}
	a.Stop()
	if !registered(rpcAppendEntries) {
		t.Fatal("handlers removed while a member is still running")
	}
	b.Stop()
	b.Stop()
	for _, name := range raftRPCs {
		if registered(name) {
			t.Fatalf("last Stop left %s registered", name)
		}
	}

	// A fresh member on the same instance works again.
	h.start(NewMemoryStore(), newKVFSM())
	var reply requestVoteReply
	if err := h.call(rpcRequestVote, &requestVoteArgs{Group: "hand", Term: 1, Candidate: h.peer.Addr()}, &reply); err != nil || !reply.Granted {
		t.Fatalf("vote request to a member started after a full teardown: %+v, %v", reply, err)
	}
}

// TestPlannedEventsCostRoundTripsNotTimers runs a group through its
// whole planned life — formed from nothing, asked before it has a
// leader, its leader removed, the next one stopped — with election
// timeouts no test could wait out. Whatever got it back into service
// each time was a message: the virgin members' first deadline, the
// request held until the election ended, TimeoutNow from a leader on its
// way out. The metrics say the same: no election without a winner, and
// nobody without a leader for anywhere near a timeout.
func TestPlannedEventsCostRoundTripsNotTimers(t *testing.T) {
	cfg := Config{ElectionTimeoutMin: 8 * time.Second, ElectionTimeoutMax: 16 * time.Second, HeartbeatInterval: 20 * time.Millisecond}
	began := time.Now()
	c := newRaftCluster(t, 5, cfg)
	cls, _ := c.fabric.NewClass("planned-client")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	client := NewClient(inst, "g", c.addrs)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.ElectionTimeoutMin)
	defer cancel()
	apply := func(cmd string) {
		t.Helper()
		if _, err := client.Apply(ctx, []byte(cmd)); err != nil {
			t.Fatalf("%s, %v after the group was started: %v", cmd, time.Since(began), err)
		}
	}

	apply("set formed yes") // nobody waited for a leader first
	first := c.waitLeader()
	if err := client.RemoveServer(ctx, first.ID()); err != nil {
		t.Fatal(err)
	}
	apply("set removed yes")
	second := c.waitLeader(first.ID())
	second.Stop()
	apply("set stopped yes")
	third := c.waitLeader(first.ID(), second.ID())
	if got := c.fsms[third.ID()].get("formed") + c.fsms[third.ID()].get("removed"); got != "yesyes" {
		t.Fatalf("the third leader's state machine lost something: %q", got)
	}
	if took := time.Since(began); took >= cfg.ElectionTimeoutMin {
		t.Fatalf("took %v: something waited for an election timeout", took)
	}

	outcomes := map[string]float64{}
	var episodes uint64
	var leaderless float64
	for _, inst := range c.insts {
		for _, f := range inst.Metrics().Snapshot() {
			for _, s := range f.Series {
				switch f.Name {
				case "mochi_raft_elections_total":
					outcomes[s.LabelValues[1]] += s.Value
				case "mochi_raft_leaderless_seconds":
					episodes += s.Hist.Count
					leaderless += s.Hist.Sum
				}
			}
		}
	}
	if outcomes["won"] != 3 || outcomes["no_winner"] != 0 {
		t.Fatalf("elections by outcome: %v, want 3 won and none without a winner", outcomes)
	}
	// Every member at start-up, and four, then three, at each handover.
	if episodes < 5+3+2 || leaderless >= cfg.ElectionTimeoutMin.Seconds() {
		t.Fatalf("%d leaderless episodes, %.3fs in all", episodes, leaderless)
	}
}

// TestCommitLatencyReadsTheNodesClock: the commit-latency histogram
// measures a proposal on the clock the node was given, like everything
// else the node times. On a simulated clock that stands still but for the
// seven milliseconds the leader's disk is made to take, the one proposal's
// one observation is seven milliseconds exactly; read off the wall clock it
// was however long the test happened to run.
func TestCommitLatencyReadsTheNodesClock(t *testing.T) {
	cls, err := mercury.NewFabric().NewClass("raft-sim-clock")
	if err != nil {
		t.Fatal(err)
	}
	sim := clock.NewSim(time.Unix(1000, 0))
	inst, err := margo.NewWithClock(cls, nil, sim)
	if err != nil {
		t.Fatal(err)
	}
	store := &gatedStore{Store: NewMemoryStore()}
	node, err := NewNode(inst, "g", []string{inst.Addr()}, store, newKVFSM(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Stop()
		inst.Finalize()
	})
	// A virgin member campaigns within a heartbeat interval of its clock.
	for limit := time.Now().Add(10 * time.Second); !node.IsLeader(); {
		if time.Now().After(limit) {
			t.Fatal("the single node never led")
		}
		sim.WaitForWaiters(1, time.Second) // the timer loop sleeps on the simulated clock
		sim.Advance(node.cfg.HeartbeatInterval)
	}
	entered, release := store.arm()
	defer release()
	applied := make(chan error, 1)
	go func() {
		_, err := node.Apply(context.Background(), []byte("set k v"))
		applied <- err
	}()
	<-entered
	sim.Advance(7 * time.Millisecond)
	release()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if n, sum := node.met.commitLatency.Count(), node.met.commitLatency.Sum(); n != 1 || sum != (7*time.Millisecond).Seconds() {
		t.Fatalf("%d observations summing to %v s, want one of exactly 0.007 s", n, sum)
	}
}
