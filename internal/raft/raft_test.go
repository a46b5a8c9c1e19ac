package raft

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// kvFSM is a simple replicated map: commands are "set k v" / "get k".
// It implements BatchFSM and ReaderFSM (see batch_test.go), so every
// test in this package exercises the batched apply and ReadIndex
// paths.
type kvFSM struct {
	mu sync.Mutex
	m  map[string]string
	// applied records the exact sequence of applied commands, to
	// verify the state machine safety property.
	applied []string
	// batchSizes records the length of every ApplyBatch run.
	batchSizes []int
}

func newKVFSM() *kvFSM { return &kvFSM{m: map[string]string{}} }

func (f *kvFSM) Apply(index uint64, cmd []byte) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applied = append(f.applied, string(cmd))
	parts := bytes.SplitN(cmd, []byte(" "), 3)
	switch string(parts[0]) {
	case "set":
		f.m[string(parts[1])] = string(parts[2])
		return []byte("ok")
	case "get":
		return []byte(f.m[string(parts[1])])
	}
	return nil
}

func (f *kvFSM) Snapshot() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := codec.NewEncoder(nil)
	e.Uvarint(uint64(len(f.m)))
	for k, v := range f.m {
		e.String(k)
		e.String(v)
	}
	return e.Bytes(), nil
}

func (f *kvFSM) Restore(snap []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := codec.NewDecoder(snap)
	n := d.Uvarint()
	f.m = make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := d.String()
		v := d.String()
		f.m[k] = v
	}
	return d.Finish()
}

func (f *kvFSM) get(k string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m[k]
}

func (f *kvFSM) appliedSeq() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.applied...)
}

func fastRaftCfg() Config {
	return Config{
		ElectionTimeoutMin: 50 * time.Millisecond,
		ElectionTimeoutMax: 100 * time.Millisecond,
		HeartbeatInterval:  15 * time.Millisecond,
	}
}

type raftCluster struct {
	t      *testing.T
	fabric *mercury.Fabric
	insts  map[string]*margo.Instance
	nodes  map[string]*Node
	fsms   map[string]*kvFSM
	stores map[string]Store
	addrs  []string
}

func newRaftCluster(t *testing.T, n int, cfg Config) *raftCluster {
	t.Helper()
	c := &raftCluster{
		t:      t,
		fabric: mercury.NewFabric(),
		insts:  map[string]*margo.Instance{},
		nodes:  map[string]*Node{},
		fsms:   map[string]*kvFSM{},
		stores: map[string]Store{},
	}
	for i := 0; i < n; i++ {
		cls, err := c.fabric.NewClass(fmt.Sprintf("raft-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.insts[inst.Addr()] = inst
		c.addrs = append(c.addrs, inst.Addr())
	}
	for _, addr := range c.addrs {
		fsm := newKVFSM()
		store := NewMemoryStore()
		node, err := NewNode(c.insts[addr], "g", c.addrs, store, fsm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[addr] = node
		c.fsms[addr] = fsm
		c.stores[addr] = store
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Stop()
		}
		for _, inst := range c.insts {
			inst.Finalize()
		}
	})
	return c
}

// await blocks until cond holds, looking again each time one of nodes
// has taken a step — a transition, a commit, an apply, a finished disk
// write — and fails the test after 20 seconds. Nothing in this package
// waits out a guess at how long an election takes.
func await(t testing.TB, what string, nodes []*Node, cond func() bool) {
	t.Helper()
	timeout := reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(time.After(20 * time.Second))}
	for {
		cases := []reflect.SelectCase{timeout}
		for _, n := range nodes {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(n.changed())})
		}
		if cond() { // after the channels were taken: no step is missed
			return
		}
		if i, _, _ := reflect.Select(cases); i == 0 {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// leaderAmong returns the node of nodes that leads and is named leader
// by a majority of total members, if there is one.
func leaderAmong(nodes []*Node, total int) *Node {
	for _, l := range nodes {
		if !l.IsLeader() {
			continue
		}
		agree := 0
		for _, n := range nodes {
			if n.Leader() == l.ID() {
				agree++
			}
		}
		if agree > total/2 {
			return l
		}
	}
	return nil
}

// all returns the cluster's nodes but those at the excluded addresses.
func (c *raftCluster) all(exclude ...string) []*Node {
	var nodes []*Node
	for addr, n := range c.nodes {
		skip := false
		for _, e := range exclude {
			skip = skip || e == addr
		}
		if !skip {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// waitLeader blocks until a live node is leader and a majority agrees
// on it.
func (c *raftCluster) waitLeader(exclude ...string) *Node {
	c.t.Helper()
	var leader *Node
	nodes := c.all(exclude...)
	await(c.t, "a leader", nodes, func() bool {
		leader = leaderAmong(nodes, len(c.addrs))
		return leader != nil
	})
	return leader
}

// apply submits a command through whichever node currently leads,
// retrying across leadership changes (elections can happen mid-test
// on a loaded host; real clients retry exactly like this).
func (c *raftCluster) apply(ctx context.Context, cmd []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		leader := c.waitLeader()
		out, err := leader.Apply(ctx, cmd)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if errors.Is(err, ErrNotLeader) || errors.Is(err, ErrNoLeader) || errors.Is(err, ErrTimeout) {
			continue // waitLeader waits for whoever leads next
		}
		return nil, err
	}
	return nil, fmt.Errorf("apply kept failing: %w", lastErr)
}

func TestSingleNodeCommits(t *testing.T) {
	c := newRaftCluster(t, 1, fastRaftCfg())
	leader := c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := leader.Apply(ctx, []byte("set x 1"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" {
		t.Fatalf("result = %q", out)
	}
	if c.fsms[leader.ID()].get("x") != "1" {
		t.Fatal("command not applied")
	}
}

func TestLeaderElection(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	// Exactly one leader.
	count := 0
	for _, n := range c.nodes {
		if n.IsLeader() {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d leaders", count)
	}
	if leader.Status().Term == 0 {
		t.Fatal("term never advanced")
	}
}

func TestReplicationToAllNodes(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, err := c.apply(ctx, []byte(fmt.Sprintf("set k%d v%d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	// All FSMs converge to the same state.
	await(t, "every FSM to apply k19", c.all(), func() bool {
		for _, fsm := range c.fsms {
			if fsm.get("k19") != "v19" {
				return false
			}
		}
		return true
	})
	for addr, fsm := range c.fsms {
		for i := 0; i < 20; i++ {
			if got := fsm.get(fmt.Sprintf("k%d", i)); got != fmt.Sprintf("v%d", i) {
				t.Fatalf("%s: k%d = %q", addr, i, got)
			}
		}
	}
}

// TestStateMachineSafety: all nodes apply the same commands in the
// same order.
func TestStateMachineSafety(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 30; i++ {
		if _, err := c.apply(ctx, []byte(fmt.Sprintf("set s %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	await(t, "every FSM to apply 30 commands", c.all(), func() bool {
		for _, fsm := range c.fsms {
			if len(fsm.appliedSeq()) < 30 {
				return false
			}
		}
		return true
	})
	ref := c.fsms[c.addrs[0]].appliedSeq()
	for addr, fsm := range c.fsms {
		seq := fsm.appliedSeq()
		if len(seq) != len(ref) {
			t.Fatalf("%s applied %d commands, ref %d", addr, len(seq), len(ref))
		}
		for i := range seq {
			if seq[i] != ref[i] {
				t.Fatalf("%s diverges at %d: %q vs %q", addr, i, seq[i], ref[i])
			}
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.apply(ctx, []byte("set before failover")); err != nil {
		t.Fatal(err)
	}
	leader = c.waitLeader() // re-sample: apply may have crossed an election
	old := leader.ID()
	c.fabric.Kill(old)
	c.nodes[old].Stop()

	newLeader := c.waitLeader(old)
	if newLeader.ID() == old {
		t.Fatal("dead node still leader")
	}
	if _, err := newLeader.Apply(ctx, []byte("set after failover")); err != nil {
		t.Fatal(err)
	}
	// The new leader must retain the pre-failover entry.
	if c.fsms[newLeader.ID()].get("before") != "failover" {
		t.Fatal("committed entry lost across failover")
	}
	if c.fsms[newLeader.ID()].get("after") != "failover" {
		t.Fatal("new entry not applied")
	}
	_ = leader
}

func TestApplyOnFollowerRejected(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, n := range c.nodes {
		if n.ID() == leader.ID() {
			continue
		}
		if _, err := n.Apply(ctx, []byte("set x 1")); err == nil {
			t.Fatal("follower accepted Apply")
		}
		break
	}
}

func TestClientFollowsLeaderHint(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	c.waitLeader()
	// A client process outside the group.
	cls, _ := c.fabric.NewClass("raft-client")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	client := NewClient(inst, "g", c.addrs)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := client.Apply(ctx, []byte("set via client"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" {
		t.Fatalf("result = %q", out)
	}
	// Status RPC works against any member.
	st, err := client.Status(ctx, c.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Peers) != 3 {
		t.Fatalf("peers = %v", st.Peers)
	}
}

func TestClientSurvivesFailover(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	cls, _ := c.fabric.NewClass("raft-client2")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	client := NewClient(inst, "g", c.addrs)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := client.Apply(ctx, []byte("set a 1")); err != nil {
		t.Fatal(err)
	}
	c.fabric.Kill(leader.ID())
	c.nodes[leader.ID()].Stop()
	if _, err := client.Apply(ctx, []byte("set b 2")); err != nil {
		t.Fatalf("apply after failover: %v", err)
	}
}

func TestPartitionedLeaderCannotCommit(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	var minority, majority []string
	minority = append(minority, leader.ID())
	for _, a := range c.addrs {
		if a != leader.ID() {
			majority = append(majority, a)
		}
	}
	c.fabric.Partition(minority, majority)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := leader.Apply(ctx, []byte("set lost write")); err == nil {
		t.Fatal("partitioned leader committed a write")
	}
	// The majority side elects a new leader and commits.
	newLeader := c.waitLeader(minority...)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if _, err := newLeader.Apply(ctx2, []byte("set real write")); err != nil {
		t.Fatal(err)
	}
	// Heal: the old leader steps down and converges; the lost write
	// must not survive.
	c.fabric.Heal()
	await(t, "the old leader to converge after heal", c.all(), func() bool {
		return c.fsms[leader.ID()].get("real") == "write"
	})
	if c.fsms[leader.ID()].get("lost") == "write" {
		t.Fatal("uncommitted write from deposed leader survived")
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	fabric := mercury.NewFabric()
	dirs := map[string]string{}
	addrs := []string{}
	insts := map[string]*margo.Instance{}
	for i := 0; i < 3; i++ {
		cls, _ := fabric.NewClass(fmt.Sprintf("persist-%d", i))
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		insts[inst.Addr()] = inst
		addrs = append(addrs, inst.Addr())
		dirs[inst.Addr()] = t.TempDir()
	}
	var nodes []*Node
	fsms := map[string]*kvFSM{}
	stores := map[string]*FileStore{}
	for _, a := range addrs {
		st, err := NewFileStore(dirs[a], true)
		if err != nil {
			t.Fatal(err)
		}
		fsm := newKVFSM()
		n, err := NewNode(insts[a], "p", addrs, st, fsm, fastRaftCfg())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		fsms[a] = fsm
		stores[a] = st
	}
	defer func() {
		for _, inst := range insts {
			inst.Finalize()
		}
	}()

	// Find a leader, commit entries.
	var leader *Node
	await(t, "a leader", nodes, func() bool {
		leader = leaderAmong(nodes, len(addrs))
		return leader != nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := leader.Apply(ctx, []byte(fmt.Sprintf("set p%d v%d", i, i))); err != nil {
			t.Fatal(err)
		}
	}

	// Stop everything, then restart from disk.
	for _, n := range nodes {
		n.Stop()
	}
	for _, s := range stores {
		s.Close()
	}
	var nodes2 []*Node
	fsms2 := map[string]*kvFSM{}
	for _, a := range addrs {
		st, err := NewFileStore(dirs[a], true)
		if err != nil {
			t.Fatal(err)
		}
		fsm := newKVFSM()
		n, err := NewNode(insts[a], "p", addrs, st, fsm, fastRaftCfg())
		if err != nil {
			t.Fatal(err)
		}
		nodes2 = append(nodes2, n)
		fsms2[a] = fsm
	}
	defer func() {
		for _, n := range nodes2 {
			n.Stop()
		}
	}()
	// A leader re-emerges and the state machine is recovered after
	// replay (entries are re-applied from the persisted log).
	var leader2 *Node
	await(t, "a leader after restart", nodes2, func() bool {
		leader2 = leaderAmong(nodes2, len(addrs))
		return leader2 != nil
	})
	if _, err := leader2.Apply(ctx, []byte("set post restart")); err != nil {
		t.Fatal(err)
	}
	if fsms2[leader2.ID()].get("p9") != "v9" {
		t.Fatal("pre-restart entries lost") // "post" was applied after them
	}
}

func TestSnapshotAndInstall(t *testing.T) {
	cfg := fastRaftCfg()
	cfg.SnapshotThreshold = 10
	c := newRaftCluster(t, 3, cfg)
	c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 25; i++ {
		if _, err := c.apply(ctx, []byte(fmt.Sprintf("set s%d v%d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	// The (current) leader's log must have been compacted.
	await(t, "the leader's log to be compacted", c.all(), func() bool {
		leader := leaderAmong(c.all(), len(c.addrs))
		return leader != nil && c.stores[leader.ID()].FirstIndex() > 1
	})

	// A brand-new member must catch up via InstallSnapshot.
	cls, _ := c.fabric.NewClass("raft-late")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	fsm := newKVFSM()
	node, err := NewNode(inst, "g", nil, NewMemoryStore(), fsm, fastRaftCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	client := NewClient(c.insts[c.addrs[0]], "g", c.addrs)
	if err := client.AddServer(ctx, inst.Addr()); err != nil {
		t.Fatal(err)
	}
	await(t, "the late joiner to catch up", []*Node{node}, func() bool {
		return fsm.get("s0") == "v0" && fsm.get("s24") == "v24"
	})
}

func TestMembershipChangeAddRemove(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Add a fourth member.
	cls, _ := c.fabric.NewClass("raft-new")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	fsm := newKVFSM()
	node, err := NewNode(inst, "g", nil, NewMemoryStore(), fsm, fastRaftCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if err := leader.AddServer(ctx, inst.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := len(leader.Status().Peers); got != 4 {
		t.Fatalf("peers = %d", got)
	}
	if _, err := leader.Apply(ctx, []byte("set joined yes")); err != nil {
		t.Fatal(err)
	}
	await(t, "the new member to receive entries", []*Node{node}, func() bool { return fsm.get("joined") == "yes" })

	// Remove it again.
	if err := leader.RemoveServer(ctx, inst.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := len(leader.Status().Peers); got != 3 {
		t.Fatalf("peers after remove = %d", got)
	}
	// Double-add and double-remove are rejected.
	if err := leader.AddServer(ctx, c.addrs[0]); err == nil {
		t.Fatal("adding existing member succeeded")
	}
	if err := leader.RemoveServer(ctx, inst.Addr()); err == nil {
		t.Fatal("removing non-member succeeded")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetState(7, "sm://x"); err != nil {
		t.Fatal(err)
	}
	entries := []LogEntry{
		{Index: 1, Term: 1, Type: EntryNoop},
		{Index: 2, Term: 1, Type: EntryCommand, Data: []byte("a")},
		{Index: 3, Term: 2, Type: EntryCommand, Data: []byte("b")},
	}
	if err := s.Append(entries); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateFrom(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]LogEntry{{Index: 3, Term: 3, Type: EntryCommand, Data: []byte("c")}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := NewFileStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	term, voted, _ := s2.State()
	if term != 7 || voted != "sm://x" {
		t.Fatalf("state = %d %q", term, voted)
	}
	if s2.LastIndex() != 3 {
		t.Fatalf("last = %d", s2.LastIndex())
	}
	e, err := s2.Entry(3)
	if err != nil || e.Term != 3 || string(e.Data) != "c" {
		t.Fatalf("entry 3 = %+v, %v", e, err)
	}
}

func TestFileStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if err := s.Append([]LogEntry{{Index: i, Term: 1, Type: EntryCommand, Data: []byte{byte(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveSnapshot(7, 1, []byte("snapdata")); err != nil {
		t.Fatal(err)
	}
	if s.FirstIndex() != 8 {
		t.Fatalf("first = %d", s.FirstIndex())
	}
	if _, err := s.Entry(5); err != ErrCompacted {
		t.Fatalf("entry 5: %v", err)
	}
	s.Close()
	s2, err := NewFileStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	data, idx, term, _ := s2.Snapshot()
	if string(data) != "snapdata" || idx != 7 || term != 1 {
		t.Fatalf("snapshot = %q %d %d", data, idx, term)
	}
	if s2.FirstIndex() != 8 || s2.LastIndex() != 10 {
		t.Fatalf("range = [%d,%d]", s2.FirstIndex(), s2.LastIndex())
	}
}

func TestMemoryStoreAppendGapRejected(t *testing.T) {
	s := NewMemoryStore()
	if err := s.Append([]LogEntry{{Index: 5, Term: 1}}); err == nil {
		t.Fatal("gap append accepted")
	}
}
