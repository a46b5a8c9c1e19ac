package raft

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mochi/internal/clock"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// Config tunes protocol timing.
type Config struct {
	// ElectionTimeoutMin/Max bound the randomized election timeout
	// (defaults 150ms/300ms).
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// HeartbeatInterval is the leader's idle append cadence (default
	// ElectionTimeoutMin/3).
	HeartbeatInterval time.Duration
	// SnapshotThreshold triggers automatic compaction after this many
	// applied entries since the last snapshot (0 disables).
	SnapshotThreshold uint64
	// MaxEntriesPerAppend caps entries per AppendEntries RPC
	// (default 64).
	MaxEntriesPerAppend int
}

// maxBatchEntries caps how many concurrent proposals coalesce into one
// leader group commit — one store.Append (one fsync on FileStore) and
// one waiter registration pass. It also caps the committed run the
// applier drains per wakeup.
const maxBatchEntries = 64

func (c Config) withDefaults() Config {
	if c.ElectionTimeoutMin <= 0 {
		c.ElectionTimeoutMin = 150 * time.Millisecond
	}
	if c.ElectionTimeoutMax <= c.ElectionTimeoutMin {
		c.ElectionTimeoutMax = 2 * c.ElectionTimeoutMin
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = c.ElectionTimeoutMin / 3
	}
	if c.MaxEntriesPerAppend <= 0 {
		c.MaxEntriesPerAppend = 64
	}
	return c
}

// Status is a snapshot of a node's protocol state.
type Status struct {
	ID          string
	Role        Role
	Term        uint64
	Leader      string
	CommitIndex uint64
	LastApplied uint64
	Peers       []string
}

type applyResult struct {
	result []byte
	term   uint64
}

// proposal is one command queued for the leader group commit. resCh
// receives the apply result once the entry commits and applies; term
// is the term the entry was appended at.
type proposal struct {
	entry LogEntry
	idx   uint64
	term  uint64
	err   error
	resCh chan applyResult
}

// proposalBatch is one group commit in formation. The first proposer
// becomes the batch leader: it appends every queued entry with one
// store.Append (one fsync on FileStore), registers every waiter under
// one mutex acquisition, then closes done to release the followers —
// the same leader/follower shape as logdb's group commit.
type proposalBatch struct {
	props []*proposal
	done  chan struct{}
}

// readBatch is one ReadIndex confirmation in formation: every read
// pending when the round starts rides the same leadership-confirmation
// heartbeat quorum round.
type readBatch struct {
	term uint64
	n    int
	err  error
	done chan struct{}
}

// applyWaiter parks a ReadIndex read until lastApplied reaches index.
type applyWaiter struct {
	index uint64
	ch    chan struct{}
}

type raftRegistry struct {
	mu    sync.Mutex
	nodes map[string]*Node
}

var raftRegistries sync.Map // *margo.Instance -> *raftRegistry

func raftRegistryFor(inst *margo.Instance) (*raftRegistry, error) {
	if r, ok := raftRegistries.Load(inst); ok {
		return r.(*raftRegistry), nil
	}
	r := &raftRegistry{nodes: map[string]*Node{}}
	actual, loaded := raftRegistries.LoadOrStore(inst, r)
	reg := actual.(*raftRegistry)
	if !loaded {
		handlers := map[string]margo.Handler{
			rpcRequestVote:     reg.handleRequestVote,
			rpcAppendEntries:   reg.handleAppendEntries,
			rpcInstallSnapshot: reg.handleInstallSnapshot,
			rpcApply:           reg.handleApply,
			rpcRead:            reg.handleRead,
			rpcConfigChange:    reg.handleConfigChange,
			rpcStatus:          reg.handleStatus,
		}
		for name, h := range handlers {
			if _, err := inst.Register(name, h); err != nil {
				return nil, err
			}
		}
	}
	return reg, nil
}

func (r *raftRegistry) lookup(group string) *Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes[group]
}

// Node is one member of a Raft group.
type Node struct {
	inst  *margo.Instance
	clk   clock.Clock
	group string
	id    string
	store Store
	fsm   FSM
	cfg   Config

	mu               sync.Mutex
	role             Role
	term             uint64
	votedFor         string
	leader           string
	peers            []string
	commitIndex      uint64
	lastApplied      uint64
	nextIndex        map[string]uint64
	matchIndex       map[string]uint64
	waiters          map[uint64]chan applyResult
	pendingConfig    uint64 // index of uncommitted config entry, 0 if none
	appliedSinceSnap uint64
	stopped          bool
	leaderGen        uint64 // increments on every leadership change

	electionReset chan struct{}
	applyNotify   chan struct{}
	replNotify    map[string]chan struct{}

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	rng   *rand.Rand
	rngMu sync.Mutex

	met *nodeMetrics

	// Group-commit proposal path: propMu guards only the forming
	// batch, never held across I/O or n.mu. commitMu serializes batch
	// leaders; a leader detaches its batch only after acquiring it, so
	// the forming batch keeps absorbing proposals for as long as the
	// previous batch's append (and fsync) is in flight — that window is
	// what grows batches under load.
	propMu      sync.Mutex
	propPending *proposalBatch
	commitMu    sync.Mutex

	// ReadIndex path: readMu guards the forming read batch; roundMu
	// serializes confirmation rounds, so a batch formed while a round
	// is in flight waits for the next one. That ordering matters for
	// safety: every member of a batch recorded its read index before
	// the round that confirms it sends a single RPC.
	readMu      sync.Mutex
	readPending *readBatch
	roundMu     sync.Mutex

	// applyWaiters are ReadIndex reads parked until lastApplied
	// reaches their index; guarded by mu, signaled by the applier.
	applyWaiters []applyWaiter
}

// NewNode creates and starts a Raft member. peers is the initial
// configuration (must be identical on every member and include this
// node's address). A store with existing state resumes from it.
func NewNode(inst *margo.Instance, group string, peers []string, store Store, fsm FSM, cfg Config) (*Node, error) {
	reg, err := raftRegistryFor(inst)
	if err != nil {
		return nil, err
	}
	n := &Node{
		inst:          inst,
		clk:           inst.Clock(),
		group:         group,
		id:            inst.Addr(),
		store:         store,
		fsm:           fsm,
		cfg:           cfg.withDefaults(),
		role:          Follower,
		peers:         append([]string(nil), peers...),
		waiters:       map[uint64]chan applyResult{},
		nextIndex:     map[string]uint64{},
		matchIndex:    map[string]uint64{},
		electionReset: make(chan struct{}, 1),
		applyNotify:   make(chan struct{}, 1),
		replNotify:    map[string]chan struct{}{},
		stopCh:        make(chan struct{}),
		rng:           rand.New(rand.NewSource(int64(mercury.NameToID(inst.Addr() + "/" + group)))),
		met:           newNodeMetrics(inst.Metrics(), group),
	}
	// Recover persistent state.
	term, voted, err := store.State()
	if err != nil {
		return nil, err
	}
	n.term, n.votedFor = term, voted
	if data, idx, _, err := store.Snapshot(); err == nil && idx > 0 {
		var env snapshotEnvelope
		if err := codec.Unmarshal(data, &env); err != nil {
			return nil, fmt.Errorf("raft: corrupt snapshot: %w", err)
		}
		if err := fsm.Restore(env.FSM); err != nil {
			return nil, err
		}
		n.peers = env.Peers
		n.commitIndex, n.lastApplied = idx, idx
	}
	// Replay configuration entries from the log.
	first, last := store.FirstIndex(), store.LastIndex()
	for i := first; i <= last && i >= first; i++ {
		e, err := store.Entry(i)
		if err != nil {
			break
		}
		if e.Type == EntryConfig {
			var ps []string
			if json.Unmarshal(e.Data, &ps) == nil {
				n.peers = ps
			}
		}
	}

	reg.mu.Lock()
	if _, dup := reg.nodes[group]; dup {
		reg.mu.Unlock()
		return nil, fmt.Errorf("raft: group %q already exists on %s", group, n.id)
	}
	reg.nodes[group] = n
	reg.mu.Unlock()

	n.wg.Add(2)
	go n.electionLoop()
	go n.applier()
	return n, nil
}

// ID returns this node's address.
func (n *Node) ID() string { return n.id }

// Group returns the group name.
func (n *Node) Group() string { return n.group }

// Status returns a snapshot of protocol state.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Status{
		ID:          n.id,
		Role:        n.role,
		Term:        n.term,
		Leader:      n.leader,
		CommitIndex: n.commitIndex,
		LastApplied: n.lastApplied,
		Peers:       append([]string(nil), n.peers...),
	}
}

// Leader returns the current leader hint ("" if unknown).
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// IsLeader reports whether this node currently leads.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == Leader
}

// Stop halts the node. The store is not closed.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		n.mu.Lock()
		n.stopped = true
		n.leaderGen++ // terminates replicators
		for idx, ch := range n.waiters {
			close(ch)
			delete(n.waiters, idx)
		}
		for _, w := range n.applyWaiters {
			close(w.ch)
		}
		n.applyWaiters = nil
		n.mu.Unlock()
		close(n.stopCh)
	})
	n.wg.Wait()
	if r, ok := raftRegistries.Load(n.inst); ok {
		reg := r.(*raftRegistry)
		reg.mu.Lock()
		if reg.nodes[n.group] == n {
			delete(reg.nodes, n.group)
		}
		reg.mu.Unlock()
	}
}

// --- election ---

func (n *Node) electionTimeout() time.Duration {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	span := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	return n.cfg.ElectionTimeoutMin + time.Duration(n.rng.Int63n(int64(span)+1))
}

func (n *Node) electionLoop() {
	defer n.wg.Done()
	for {
		timer := n.clk.NewTimer(n.electionTimeout())
		select {
		case <-n.stopCh:
			timer.Stop()
			return
		case <-n.electionReset:
			timer.Stop()
			continue
		case <-timer.C():
			n.maybeStartElection()
		}
	}
}

func (n *Node) resetElectionTimer() {
	select {
	case n.electionReset <- struct{}{}:
	default:
	}
}

func (n *Node) inConfigLocked() bool {
	for _, p := range n.peers {
		if p == n.id {
			return true
		}
	}
	return false
}

func (n *Node) maybeStartElection() {
	n.mu.Lock()
	if n.stopped || n.role == Leader || !n.inConfigLocked() {
		n.mu.Unlock()
		return
	}
	n.role = Candidate
	n.term++
	n.votedFor = n.id
	n.leader = ""
	term := n.term
	if err := n.store.SetState(n.term, n.votedFor); err != nil {
		n.mu.Unlock()
		return
	}
	lastIdx := n.store.LastIndex()
	lastTerm, _ := n.store.Term(lastIdx)
	peers := append([]string(nil), n.peers...)
	n.mu.Unlock()

	votes := 1 // self
	needed := len(peers)/2 + 1
	var voteMu sync.Mutex
	won := make(chan struct{}, 1)
	if votes >= needed {
		n.becomeLeader(term)
		return
	}
	args := requestVoteArgs{
		Group:        n.group,
		Term:         term,
		Candidate:    n.id,
		LastLogIndex: lastIdx,
		LastLogTerm:  lastTerm,
	}
	payload := codec.Marshal(&args)
	for _, p := range peers {
		if p == n.id {
			continue
		}
		go func(p string) {
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ElectionTimeoutMin)
			defer cancel()
			out, err := n.inst.Forward(ctx, p, rpcRequestVote, payload)
			if err != nil {
				return
			}
			var reply requestVoteReply
			if err := codec.Unmarshal(out, &reply); err != nil {
				return
			}
			if reply.Term > term {
				n.stepDown(reply.Term, "")
				return
			}
			if reply.Granted {
				voteMu.Lock()
				votes++
				reached := votes == needed
				voteMu.Unlock()
				if reached {
					select {
					case won <- struct{}{}:
					default:
					}
				}
			}
		}(p)
	}
	// Wait for a majority within the election timeout; otherwise a
	// new election fires from the loop.
	timer := n.clk.NewTimer(n.cfg.ElectionTimeoutMin)
	defer timer.Stop()
	select {
	case <-won:
		n.becomeLeader(term)
	case <-timer.C():
	case <-n.stopCh:
	}
}

func (n *Node) becomeLeader(term uint64) {
	n.mu.Lock()
	if n.stopped || n.term != term || n.role != Candidate {
		n.mu.Unlock()
		return
	}
	n.role = Leader
	n.leader = n.id
	n.leaderGen++
	gen := n.leaderGen
	last := n.store.LastIndex()
	for _, p := range n.peers {
		n.nextIndex[p] = last + 1
		n.matchIndex[p] = 0
	}
	peers := append([]string(nil), n.peers...)
	n.mu.Unlock()

	// Commit entries from previous terms by appending a no-op at the
	// current term (§5.4.2 of the Raft paper). An append failure has
	// already stepped us back down; nothing more to do here.
	if _, err := n.appendLocal(LogEntry{Type: EntryNoop}); err != nil {
		return
	}

	for _, p := range peers {
		if p != n.id {
			n.startReplicator(p, term, gen)
		}
	}
	// Single-node groups commit immediately.
	n.advanceCommit()
}

// stepDown transitions to follower at the given (higher) term.
func (n *Node) stepDown(term uint64, leader string) {
	n.mu.Lock()
	if term > n.term {
		n.term = term
		n.votedFor = ""
		_ = n.store.SetState(n.term, n.votedFor)
	}
	if n.role == Leader {
		n.leaderGen++
	}
	n.role = Follower
	if leader != "" {
		n.leader = leader
	}
	n.mu.Unlock()
	n.resetElectionTimer()
}

// --- log append / replication ---

// appendLocal appends a single protocol entry (no-op, config) at the
// leader and returns its index. A persistent-store failure surfaces
// the error and steps the leader down: a leader that cannot write its
// own log must not keep acking commands it will never replicate.
func (n *Node) appendLocal(e LogEntry) (uint64, error) {
	n.mu.Lock()
	e.Index = n.store.LastIndex() + 1
	e.Term = n.term
	if err := n.store.Append([]LogEntry{e}); err != nil {
		n.met.appendErrors.Inc()
		if n.role == Leader {
			n.role = Follower
			n.leaderGen++
		}
		n.mu.Unlock()
		n.resetElectionTimer()
		return 0, fmt.Errorf("raft: leader store append: %w", err)
	}
	n.matchIndex[n.id] = e.Index
	if e.Type == EntryConfig {
		var ps []string
		if json.Unmarshal(e.Data, &ps) == nil {
			n.applyConfigLocked(ps, e.Index)
		}
	}
	n.mu.Unlock()
	n.notifyReplicators()
	return e.Index, nil
}

// applyConfigLocked switches to a new peer set immediately (Raft uses
// the latest config in the log, committed or not).
func (n *Node) applyConfigLocked(ps []string, index uint64) {
	old := n.peers
	n.peers = append([]string(nil), ps...)
	n.pendingConfig = index
	if n.role == Leader {
		last := n.store.LastIndex()
		for _, p := range ps {
			if _, ok := n.nextIndex[p]; !ok {
				n.nextIndex[p] = last + 1
				n.matchIndex[p] = 0
			}
		}
		gen := n.leaderGen
		term := n.term
		for _, p := range ps {
			if p == n.id {
				continue
			}
			found := false
			for _, o := range old {
				if o == p {
					found = true
				}
			}
			if !found {
				go n.startReplicator(p, term, gen)
			}
		}
	}
}

func (n *Node) notifyReplicators() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ch := range n.replNotify {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

func (n *Node) startReplicator(peer string, term uint64, gen uint64) {
	n.mu.Lock()
	if _, ok := n.replNotify[peer]; ok {
		n.mu.Unlock()
		return
	}
	ch := make(chan struct{}, 1)
	n.replNotify[peer] = ch
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer func() {
			n.mu.Lock()
			if n.replNotify[peer] == ch {
				delete(n.replNotify, peer)
			}
			n.mu.Unlock()
		}()
		tick := n.clk.NewTicker(n.cfg.HeartbeatInterval)
		defer tick.Stop()
		for {
			n.mu.Lock()
			live := !n.stopped && n.role == Leader && n.term == term && n.leaderGen == gen
			inCfg := false
			for _, p := range n.peers {
				if p == peer {
					inCfg = true
				}
			}
			n.mu.Unlock()
			if !live || !inCfg {
				return
			}
			n.replicateOnce(peer, term)
			select {
			case <-tick.C():
			case <-ch:
			case <-n.stopCh:
				return
			}
		}
	}()
}

// replicateOnce sends one AppendEntries (or InstallSnapshot) to peer.
func (n *Node) replicateOnce(peer string, term uint64) {
	n.mu.Lock()
	if n.role != Leader || n.term != term {
		n.mu.Unlock()
		return
	}
	next := n.nextIndex[peer]
	if next == 0 {
		next = n.store.LastIndex() + 1
		n.nextIndex[peer] = next
	}
	first := n.store.FirstIndex()
	if next < first {
		// Peer is too far behind: ship the snapshot.
		data, sidx, sterm, err := n.store.Snapshot()
		if err != nil || sidx == 0 {
			n.mu.Unlock()
			return
		}
		var env snapshotEnvelope
		if codec.Unmarshal(data, &env) != nil {
			n.mu.Unlock()
			return
		}
		args := installSnapshotArgs{
			Group:     n.group,
			Term:      term,
			Leader:    n.id,
			LastIndex: sidx,
			LastTerm:  sterm,
			Peers:     env.Peers,
			Data:      data,
		}
		n.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 4*n.cfg.HeartbeatInterval)
		defer cancel()
		out, err := n.inst.Forward(ctx, peer, rpcInstallSnapshot, codec.Marshal(&args))
		if err != nil {
			return
		}
		var reply appendEntriesReply
		if codec.Unmarshal(out, &reply) != nil {
			return
		}
		if reply.Term > term {
			n.stepDown(reply.Term, "")
			return
		}
		n.mu.Lock()
		if n.role == Leader && n.term == term {
			n.nextIndex[peer] = sidx + 1
			if sidx > n.matchIndex[peer] {
				n.matchIndex[peer] = sidx
			}
		}
		n.mu.Unlock()
		return
	}
	prev := next - 1
	prevTerm, err := n.store.Term(prev)
	if err != nil {
		n.mu.Unlock()
		return
	}
	last := n.store.LastIndex()
	hi := last
	if hi >= next+uint64(n.cfg.MaxEntriesPerAppend) {
		hi = next + uint64(n.cfg.MaxEntriesPerAppend) - 1
	}
	var entries []LogEntry
	if hi >= next {
		entries, err = n.store.Entries(next, hi)
		if err != nil {
			n.mu.Unlock()
			return
		}
	}
	args := appendEntriesArgs{
		Group:        n.group,
		Term:         term,
		Leader:       n.id,
		PrevLogIndex: prev,
		PrevLogTerm:  prevTerm,
		Entries:      entries,
		LeaderCommit: n.commitIndex,
	}
	n.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 2*n.cfg.HeartbeatInterval)
	defer cancel()
	out, err := n.inst.Forward(ctx, peer, rpcAppendEntries, codec.Marshal(&args))
	if err != nil {
		return
	}
	var reply appendEntriesReply
	if codec.Unmarshal(out, &reply) != nil {
		return
	}
	if reply.Term > term {
		n.stepDown(reply.Term, "")
		return
	}
	n.mu.Lock()
	if n.role != Leader || n.term != term {
		n.mu.Unlock()
		return
	}
	if reply.Success {
		newMatch := prev + uint64(len(entries))
		if newMatch > n.matchIndex[peer] {
			n.matchIndex[peer] = newMatch
		}
		n.nextIndex[peer] = newMatch + 1
		more := n.store.LastIndex() > newMatch
		n.mu.Unlock()
		n.advanceCommit()
		if more {
			n.mu.Lock()
			if ch, ok := n.replNotify[peer]; ok {
				select {
				case ch <- struct{}{}:
				default:
				}
			}
			n.mu.Unlock()
		}
		return
	}
	// Conflict: back off using the follower's hint.
	ni := reply.ConflictIndex
	if ni == 0 {
		ni = 1
	}
	if ni < n.nextIndex[peer] {
		n.nextIndex[peer] = ni
	} else if n.nextIndex[peer] > 1 {
		n.nextIndex[peer]--
	}
	if ch, ok := n.replNotify[peer]; ok {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	n.mu.Unlock()
}

// advanceCommit moves commitIndex to the highest majority-replicated
// index of the current term.
func (n *Node) advanceCommit() {
	n.mu.Lock()
	if n.role != Leader {
		n.mu.Unlock()
		return
	}
	matches := make([]uint64, 0, len(n.peers))
	for _, p := range n.peers {
		if p == n.id {
			matches = append(matches, n.store.LastIndex())
		} else {
			matches = append(matches, n.matchIndex[p])
		}
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	if len(matches) == 0 {
		n.mu.Unlock()
		return
	}
	candidate := matches[len(matches)/2]
	changed := false
	if candidate > n.commitIndex {
		t, err := n.store.Term(candidate)
		if err == nil && t == n.term {
			n.commitIndex = candidate
			changed = true
		}
	}
	if changed && n.pendingConfig > 0 && n.commitIndex >= n.pendingConfig {
		n.pendingConfig = 0
		// If we were removed by the committed config, step down.
		if !n.inConfigLocked() {
			n.role = Follower
			n.leaderGen++
		}
	}
	n.mu.Unlock()
	if changed {
		select {
		case n.applyNotify <- struct{}{}:
		default:
		}
		n.notifyReplicators() // propagate the new commit index promptly
	}
}

// --- apply path ---

func (n *Node) applier() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.applyNotify:
			n.applyCommitted()
		}
	}
}

// applyCommitted drains the committed range in runs of up to
// maxBatchEntries: one mutex acquisition reads the run, the FSM
// applies it outside the lock (through ApplyBatch when supported), and
// one re-acquisition advances lastApplied, collects every waiter, and
// releases ReadIndex reads that the run satisfied.
func (n *Node) applyCommitted() {
	for {
		n.mu.Lock()
		if n.lastApplied >= n.commitIndex {
			n.mu.Unlock()
			return
		}
		lo := n.lastApplied + 1
		hi := n.commitIndex
		if hi-lo+1 > maxBatchEntries {
			hi = lo + maxBatchEntries - 1
		}
		entries, err := n.store.Entries(lo, hi)
		n.mu.Unlock()
		if err != nil || len(entries) == 0 {
			return
		}

		results := make([][]byte, len(entries))
		if bf, ok := n.fsm.(BatchFSM); ok {
			cmds := make([]Command, 0, len(entries))
			pos := make([]int, 0, len(entries))
			for i, e := range entries {
				if e.Type == EntryCommand {
					cmds = append(cmds, Command{Index: e.Index, Data: e.Data})
					pos = append(pos, i)
				}
			}
			if len(cmds) > 0 {
				for i, r := range bf.ApplyBatch(cmds) {
					if i < len(pos) {
						results[pos[i]] = r
					}
				}
			}
		} else {
			for i, e := range entries {
				if e.Type == EntryCommand {
					results[i] = n.fsm.Apply(e.Index, e.Data)
				}
			}
		}

		type wake struct {
			ch  chan applyResult
			res applyResult
		}
		var wakes []wake
		n.mu.Lock()
		if n.lastApplied+1 != lo {
			// A snapshot install moved lastApplied underneath us (it
			// only ever jumps forward over committed, applied state);
			// this run is stale, drop it.
			n.mu.Unlock()
			return
		}
		n.lastApplied = hi
		n.appliedSinceSnap += uint64(len(entries))
		for i, e := range entries {
			if ch, ok := n.waiters[e.Index]; ok {
				delete(n.waiters, e.Index)
				wakes = append(wakes, wake{ch: ch, res: applyResult{result: results[i], term: e.Term}})
			}
		}
		n.signalAppliedLocked()
		needSnap := n.cfg.SnapshotThreshold > 0 && n.appliedSinceSnap >= n.cfg.SnapshotThreshold
		n.mu.Unlock()
		n.met.applyEntries.Observe(float64(len(entries)))
		for _, w := range wakes {
			w.ch <- w.res
		}
		if needSnap {
			_ = n.TakeSnapshot()
		}
	}
}

// signalAppliedLocked releases ReadIndex waiters whose target index
// has been applied. Caller holds mu.
func (n *Node) signalAppliedLocked() {
	if len(n.applyWaiters) == 0 {
		return
	}
	kept := n.applyWaiters[:0]
	for _, w := range n.applyWaiters {
		if w.index <= n.lastApplied {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	n.applyWaiters = kept
}

// Apply submits a command locally; the caller must be talking to the
// leader (use Client.Apply for automatic forwarding).
//
// Concurrent Apply calls coalesce: the first proposer of a batch
// becomes its leader and performs one store.Append (one fsync on
// FileStore) and one waiter-registration pass for every queued
// command; the rest just wait on the batch. Replicators then ship the
// whole run in one AppendEntries round.
func (n *Node) Apply(ctx context.Context, cmd []byte) ([]byte, error) {
	// No leadership pre-check here: it would need n.mu, which an
	// in-flight group commit holds across its fsync — exactly the
	// window in which new proposals must keep enqueueing for batches
	// to form. The batch leader performs the authoritative role check
	// under n.mu and fails the whole batch with the same leaderError.
	start := time.Now()
	p := &proposal{
		entry: LogEntry{Type: EntryCommand, Data: cmd},
		resCh: make(chan applyResult, 1),
	}
	b, lead := n.enqueueProposal(p)
	if lead {
		n.leadProposals(b)
	} else {
		// Bounded wait: the batch leader always closes done, even on
		// stop or step-down.
		<-b.done
	}
	if p.err != nil {
		return nil, p.err
	}
	select {
	case res, ok := <-p.resCh:
		if !ok {
			return nil, ErrStopped
		}
		if res.term != p.term {
			return nil, ErrNotLeader // overwritten by a newer leader
		}
		n.met.commitLatency.Observe(time.Since(start).Seconds())
		return res.result, nil
	case <-ctx.Done():
		n.mu.Lock()
		if ch, ok := n.waiters[p.idx]; ok && ch == p.resCh {
			delete(n.waiters, p.idx)
		}
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	case <-n.stopCh:
		return nil, ErrStopped
	}
}

// enqueueProposal adds p to the forming batch, starting a fresh one if
// none is pending or the pending one is full. Returns the batch and
// whether the caller became its leader.
func (n *Node) enqueueProposal(p *proposal) (*proposalBatch, bool) {
	n.propMu.Lock()
	b := n.propPending
	lead := b == nil || len(b.props) >= maxBatchEntries
	if lead {
		b = &proposalBatch{done: make(chan struct{})}
		n.propPending = b
	}
	b.props = append(b.props, p)
	n.propMu.Unlock()
	return b, lead
}

// leadProposals runs one group commit: wait for the previous batch
// leader to finish, linger while earlier entries are still in the
// pipeline, detach the batch, then assign contiguous indexes and
// persist every entry with a single store.Append under one node-mutex
// acquisition.
//
// The detach happens only after commitMu is held: while an earlier
// batch's fsync is in flight, this batch stays pending and keeps
// absorbing concurrent proposals, which is where multi-entry batches
// come from.
func (n *Node) leadProposals(b *proposalBatch) {
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	// Adaptive linger: while earlier entries are appended but not yet
	// applied, hold off detaching — commit latency is gated on their
	// replication anyway, and every proposal arriving in the meantime
	// joins this batch. Without this gate the group is metastable: once
	// proposals start arriving one replication round apart, each finds
	// the pipeline idle, appends alone, and keeps the one-fsync-per-op
	// lockstep going. The wait is bounded so a stalled pipeline (lost
	// leadership mid-wait) degrades to the role check below instead of
	// hanging.
	n.mu.Lock()
	if last := n.store.LastIndex(); last > n.lastApplied && !n.stopped && n.role == Leader {
		ch := make(chan struct{})
		n.applyWaiters = append(n.applyWaiters, applyWaiter{index: last, ch: ch})
		n.mu.Unlock()
		t := n.clk.NewTimer(n.cfg.HeartbeatInterval)
		select {
		case <-ch:
		case <-t.C():
		case <-n.stopCh:
		}
		t.Stop()
	} else {
		n.mu.Unlock()
	}
	n.propMu.Lock()
	if n.propPending == b {
		n.propPending = nil
	}
	n.propMu.Unlock()

	n.mu.Lock()
	if n.stopped {
		failProposals(b, ErrStopped)
		n.mu.Unlock()
		close(b.done)
		return
	}
	if n.role != Leader {
		err := leaderError(n.leader)
		failProposals(b, err)
		n.mu.Unlock()
		close(b.done)
		return
	}
	base := n.store.LastIndex()
	term := n.term
	entries := make([]LogEntry, len(b.props))
	for i, p := range b.props {
		p.entry.Index = base + 1 + uint64(i)
		p.entry.Term = term
		entries[i] = p.entry
	}
	if err := n.store.Append(entries); err != nil {
		// The leader cannot persist its own log: step down and
		// surface the store error to every caller in the batch
		// instead of silently dropping the commands.
		n.met.appendErrors.Inc()
		n.role = Follower
		n.leaderGen++
		failProposals(b, fmt.Errorf("raft: leader store append: %w", err))
		n.mu.Unlock()
		n.resetElectionTimer()
		close(b.done)
		return
	}
	last := base + uint64(len(b.props))
	n.matchIndex[n.id] = last
	for _, p := range b.props {
		p.idx = p.entry.Index
		p.term = term
		n.waiters[p.idx] = p.resCh
	}
	n.mu.Unlock()
	n.met.batchEntries.Observe(float64(len(b.props)))
	close(b.done)
	n.notifyReplicators()
	n.advanceCommit() // single-node fast path
}

func failProposals(b *proposalBatch, err error) {
	for _, p := range b.props {
		p.err = err
	}
}

// --- ReadIndex ---

// Read answers a read-only query linearizably without writing a log
// entry (the ReadIndex protocol): record commitIndex as the read
// index, confirm leadership with one heartbeat quorum round shared by
// every pending read, wait until the read index has been applied, then
// query the FSM. The caller must be talking to the leader (use
// Client.Read for automatic forwarding). The FSM must implement
// ReaderFSM.
//
// Safety does not need a leader lease: once the quorum round confirms
// the term, every write that completed before this read began is
// covered by the recorded read index (a later leader needs a quorum at
// a higher term, which the round would have observed), so serving the
// query is linearizable even if this node is deposed right after.
func (n *Node) Read(ctx context.Context, query []byte) ([]byte, error) {
	rf, ok := n.fsm.(ReaderFSM)
	if !ok {
		return nil, ErrNoReader
	}
	for {
		n.mu.Lock()
		if n.stopped {
			n.mu.Unlock()
			return nil, ErrStopped
		}
		if n.role != Leader {
			leader := n.leader
			n.mu.Unlock()
			return nil, leaderError(leader)
		}
		term := n.term
		readIndex := n.commitIndex
		commitTerm, terr := n.store.Term(readIndex)
		n.mu.Unlock()
		if terr == nil && commitTerm == term {
			// ReadIndex precondition holds: an entry of the current
			// term is committed (the no-op appended at election
			// guarantees this happens promptly), so commitIndex covers
			// everything committed by earlier leaders.
			if err := n.confirmLeadership(ctx, term); err != nil {
				return nil, err
			}
			if err := n.waitApplied(ctx, readIndex); err != nil {
				return nil, err
			}
			return rf.Read(query), nil
		}
		// The current term's no-op has not committed yet: wait a beat
		// and retry.
		t := n.clk.NewTimer(n.cfg.HeartbeatInterval / 2)
		select {
		case <-t.C():
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
		case <-n.stopCh:
			t.Stop()
			return nil, ErrStopped
		}
		t.Stop()
	}
}

// confirmLeadership establishes that this node still led term by
// completing one heartbeat quorum round. Concurrent reads batch: the
// first pending read becomes the round leader and one round serves
// every read queued behind it. Reads arriving while a round is in
// flight form the next batch — they must not ride the current one,
// because the safety argument needs every member's read index recorded
// before the round's replies arrive, and roundMu enforces exactly
// that by detaching the batch before the round starts.
func (n *Node) confirmLeadership(ctx context.Context, term uint64) error {
	n.readMu.Lock()
	if b := n.readPending; b != nil && b.term == term {
		b.n++
		n.readMu.Unlock()
		select {
		case <-b.done:
			return b.err
		case <-ctx.Done():
			return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
		case <-n.stopCh:
			return ErrStopped
		}
	}
	b := &readBatch{term: term, n: 1, done: make(chan struct{})}
	n.readPending = b
	n.readMu.Unlock()

	n.roundMu.Lock()
	n.readMu.Lock()
	if n.readPending == b {
		n.readPending = nil
	}
	n.readMu.Unlock()
	b.err = n.heartbeatQuorum(ctx, term)
	n.roundMu.Unlock()
	n.met.readRounds.Inc()
	n.met.readBatch.Observe(float64(b.n))
	close(b.done)
	return b.err
}

// heartbeatQuorum sends one empty AppendEntries to every peer and
// waits for a majority (counting self) to acknowledge the term. The
// empty heartbeat carries LeaderCommit 0, so it cannot move follower
// state; only the reply term matters. A reply carrying a higher term
// steps this node down and fails the round.
func (n *Node) heartbeatQuorum(ctx context.Context, term uint64) error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	if n.role != Leader || n.term != term {
		leader := n.leader
		n.mu.Unlock()
		return leaderError(leader)
	}
	peers := append([]string(nil), n.peers...)
	n.mu.Unlock()

	needed := len(peers)/2 + 1
	acks := 0
	for _, p := range peers {
		if p == n.id {
			acks++
		}
	}
	if acks >= needed {
		return nil // single-node group
	}
	args := appendEntriesArgs{Group: n.group, Term: term, Leader: n.id}
	payload := codec.Marshal(&args)
	rctx, cancel := context.WithTimeout(ctx, n.cfg.ElectionTimeoutMin)
	defer cancel()
	replies := make(chan uint64, len(peers))
	for _, p := range peers {
		if p == n.id {
			continue
		}
		go func(p string) {
			out, err := n.inst.Forward(rctx, p, rpcAppendEntries, payload)
			if err != nil {
				return
			}
			var reply appendEntriesReply
			if codec.Unmarshal(out, &reply) != nil {
				return
			}
			replies <- reply.Term
		}(p)
	}
	for {
		select {
		case rt := <-replies:
			if rt > term {
				n.stepDown(rt, "")
				return ErrNotLeader
			}
			acks++
			if acks >= needed {
				return nil
			}
		case <-rctx.Done():
			return fmt.Errorf("%w: readindex quorum: %v", ErrTimeout, rctx.Err())
		case <-n.stopCh:
			return ErrStopped
		}
	}
}

// waitApplied blocks until lastApplied >= index, i.e. the effects at
// the read index are visible in the FSM.
func (n *Node) waitApplied(ctx context.Context, index uint64) error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	if n.lastApplied >= index {
		n.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	n.applyWaiters = append(n.applyWaiters, applyWaiter{index: index, ch: ch})
	n.mu.Unlock()
	select {
	case <-ch:
		n.mu.Lock()
		stopped := n.stopped
		n.mu.Unlock()
		if stopped {
			return ErrStopped
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	case <-n.stopCh:
		return ErrStopped
	}
}

func leaderError(hint string) error {
	if hint == "" {
		return ErrNoLeader
	}
	return fmt.Errorf("%w (leader: %s)", ErrNotLeader, hint)
}

// AddServer adds a member via a single-server configuration change.
func (n *Node) AddServer(ctx context.Context, addr string) error {
	return n.changeConfig(ctx, addr, false)
}

// RemoveServer removes a member.
func (n *Node) RemoveServer(ctx context.Context, addr string) error {
	return n.changeConfig(ctx, addr, true)
}

func (n *Node) changeConfig(ctx context.Context, addr string, remove bool) error {
	n.mu.Lock()
	if n.role != Leader {
		leader := n.leader
		n.mu.Unlock()
		return leaderError(leader)
	}
	if n.pendingConfig > 0 {
		n.mu.Unlock()
		return ErrInProgress
	}
	var newPeers []string
	found := false
	for _, p := range n.peers {
		if p == addr {
			found = true
			if remove {
				continue
			}
		}
		newPeers = append(newPeers, p)
	}
	if remove && !found {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s not a member", ErrBadConfig, addr)
	}
	if !remove {
		if found {
			n.mu.Unlock()
			return fmt.Errorf("%w: %s already a member", ErrBadConfig, addr)
		}
		newPeers = append(newPeers, addr)
	}
	data, err := json.Marshal(newPeers)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	term := n.term
	n.mu.Unlock()

	idx, err := n.appendLocal(LogEntry{Type: EntryConfig, Data: data})
	if err != nil {
		return err
	}
	n.advanceCommit()
	// Wait for commitment.
	tick := n.clk.NewTicker(n.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	for {
		n.mu.Lock()
		committed := n.commitIndex >= idx
		stillLeader := n.role == Leader && n.term == term
		n.mu.Unlock()
		if committed {
			return nil
		}
		if !stillLeader {
			return ErrNotLeader
		}
		select {
		case <-tick.C():
		case <-ctx.Done():
			return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
		case <-n.stopCh:
			return ErrStopped
		}
	}
}

// TakeSnapshot compacts the log through the last applied entry.
func (n *Node) TakeSnapshot() error {
	n.mu.Lock()
	idx := n.lastApplied
	if idx == 0 || idx < n.store.FirstIndex() {
		n.mu.Unlock()
		return nil
	}
	term, err := n.store.Term(idx)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	peers := append([]string(nil), n.peers...)
	n.mu.Unlock()

	fsmData, err := n.fsm.Snapshot()
	if err != nil {
		return err
	}
	env := snapshotEnvelope{Peers: peers, FSM: fsmData}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.lastApplied != idx {
		// State moved on while snapshotting; snapshot at idx is still
		// valid only if the FSM didn't change. Be conservative.
		return nil
	}
	if err := n.store.SaveSnapshot(idx, term, codec.Marshal(&env)); err != nil {
		return err
	}
	n.appliedSinceSnap = 0
	return nil
}

// --- RPC handlers ---

func (r *raftRegistry) handleRequestVote(_ context.Context, h *mercury.Handle) {
	var args requestVoteArgs
	if err := codec.Unmarshal(h.Input(), &args); err != nil {
		_ = h.RespondError(err)
		return
	}
	n := r.lookup(args.Group)
	if n == nil {
		_ = h.RespondError(fmt.Errorf("raft: unknown group %q", args.Group))
		return
	}
	_ = h.Respond(codec.Marshal(n.onRequestVote(&args)))
}

func (n *Node) onRequestVote(args *requestVoteArgs) *requestVoteReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	reply := &requestVoteReply{Term: n.term}
	if args.Term < n.term {
		return reply
	}
	if args.Term > n.term {
		n.term = args.Term
		n.votedFor = ""
		if n.role == Leader {
			n.leaderGen++
		}
		n.role = Follower
		_ = n.store.SetState(n.term, n.votedFor)
		reply.Term = n.term
	}
	lastIdx := n.store.LastIndex()
	lastTerm, _ := n.store.Term(lastIdx)
	upToDate := args.LastLogTerm > lastTerm ||
		(args.LastLogTerm == lastTerm && args.LastLogIndex >= lastIdx)
	if (n.votedFor == "" || n.votedFor == args.Candidate) && upToDate {
		n.votedFor = args.Candidate
		_ = n.store.SetState(n.term, n.votedFor)
		reply.Granted = true
		n.resetElectionTimer()
	}
	return reply
}

func (r *raftRegistry) handleAppendEntries(_ context.Context, h *mercury.Handle) {
	var args appendEntriesArgs
	if err := codec.Unmarshal(h.Input(), &args); err != nil {
		_ = h.RespondError(err)
		return
	}
	n := r.lookup(args.Group)
	if n == nil {
		_ = h.RespondError(fmt.Errorf("raft: unknown group %q", args.Group))
		return
	}
	_ = h.Respond(codec.Marshal(n.onAppendEntries(&args)))
}

func (n *Node) onAppendEntries(args *appendEntriesArgs) *appendEntriesReply {
	n.mu.Lock()
	reply := &appendEntriesReply{Term: n.term}
	if args.Term < n.term {
		n.mu.Unlock()
		return reply
	}
	if args.Term > n.term {
		n.term = args.Term
		n.votedFor = ""
		_ = n.store.SetState(n.term, n.votedFor)
	}
	if n.role == Leader {
		n.leaderGen++
	}
	n.role = Follower
	n.leader = args.Leader
	reply.Term = n.term
	n.resetElectionTimer()

	// Log consistency check.
	first := n.store.FirstIndex()
	last := n.store.LastIndex()
	if args.PrevLogIndex > last {
		reply.ConflictIndex = last + 1
		n.mu.Unlock()
		return reply
	}
	if args.PrevLogIndex >= first || args.PrevLogIndex == first-1 {
		pt, err := n.store.Term(args.PrevLogIndex)
		if err == nil && pt != args.PrevLogTerm {
			// Find the first index of the conflicting term.
			ci := args.PrevLogIndex
			for ci > first {
				t, err := n.store.Term(ci - 1)
				if err != nil || t != pt {
					break
				}
				ci--
			}
			reply.ConflictIndex = ci
			n.mu.Unlock()
			return reply
		}
		if err != nil {
			reply.ConflictIndex = first
			n.mu.Unlock()
			return reply
		}
	} else {
		// PrevLogIndex is inside our snapshot: it is committed, so it
		// matches by definition.
		if args.PrevLogIndex < first-1 {
			reply.ConflictIndex = n.store.LastIndex() + 1
			n.mu.Unlock()
			return reply
		}
	}

	// Resolve conflicts, then append all new entries with a single
	// store.Append — one fsync per RPC instead of one per entry.
	toAppend := args.Entries[:0:0]
	for _, e := range args.Entries {
		if e.Index < first {
			continue // covered by snapshot
		}
		if len(toAppend) == 0 && e.Index <= n.store.LastIndex() {
			t, err := n.store.Term(e.Index)
			if err == nil && t == e.Term {
				continue // already have it
			}
			if err := n.store.TruncateFrom(e.Index); err != nil {
				n.mu.Unlock()
				return reply
			}
		}
		toAppend = append(toAppend, e)
	}
	if len(toAppend) > 0 {
		if err := n.store.Append(toAppend); err != nil {
			n.met.appendErrors.Inc()
			n.mu.Unlock()
			return reply
		}
		for _, e := range toAppend {
			if e.Type == EntryConfig {
				var ps []string
				if json.Unmarshal(e.Data, &ps) == nil {
					n.peers = append([]string(nil), ps...)
					n.pendingConfig = e.Index
				}
			}
		}
	}
	reply.Success = true
	// Advance commit.
	lastNew := args.PrevLogIndex + uint64(len(args.Entries))
	if args.LeaderCommit > n.commitIndex {
		nc := args.LeaderCommit
		if lastNew < nc && lastNew >= args.PrevLogIndex {
			nc = lastNew
		}
		if nc > n.commitIndex {
			n.commitIndex = nc
		}
		if n.pendingConfig > 0 && n.commitIndex >= n.pendingConfig {
			n.pendingConfig = 0
		}
	}
	n.mu.Unlock()
	select {
	case n.applyNotify <- struct{}{}:
	default:
	}
	return reply
}

func (r *raftRegistry) handleInstallSnapshot(_ context.Context, h *mercury.Handle) {
	var args installSnapshotArgs
	if err := codec.Unmarshal(h.Input(), &args); err != nil {
		_ = h.RespondError(err)
		return
	}
	n := r.lookup(args.Group)
	if n == nil {
		_ = h.RespondError(fmt.Errorf("raft: unknown group %q", args.Group))
		return
	}
	_ = h.Respond(codec.Marshal(n.onInstallSnapshot(&args)))
}

func (n *Node) onInstallSnapshot(args *installSnapshotArgs) *appendEntriesReply {
	n.mu.Lock()
	reply := &appendEntriesReply{Term: n.term}
	if args.Term < n.term {
		n.mu.Unlock()
		return reply
	}
	if args.Term > n.term {
		n.term = args.Term
		n.votedFor = ""
		_ = n.store.SetState(n.term, n.votedFor)
		reply.Term = n.term
	}
	n.role = Follower
	n.leader = args.Leader
	n.resetElectionTimer()
	if args.LastIndex <= n.commitIndex {
		reply.Success = true
		n.mu.Unlock()
		return reply
	}
	var env snapshotEnvelope
	if err := codec.Unmarshal(args.Data, &env); err != nil {
		n.mu.Unlock()
		return reply
	}
	if err := n.fsm.Restore(env.FSM); err != nil {
		n.mu.Unlock()
		return reply
	}
	if err := n.store.SaveSnapshot(args.LastIndex, args.LastTerm, args.Data); err != nil {
		n.mu.Unlock()
		return reply
	}
	n.peers = append([]string(nil), env.Peers...)
	n.commitIndex = args.LastIndex
	n.lastApplied = args.LastIndex
	n.signalAppliedLocked()
	reply.Success = true
	n.mu.Unlock()
	return reply
}

func (r *raftRegistry) handleApply(_ context.Context, h *mercury.Handle) {
	var args applyArgs
	if err := codec.Unmarshal(h.Input(), &args); err != nil {
		_ = h.RespondError(err)
		return
	}
	n := r.lookup(args.Group)
	if n == nil {
		_ = h.Respond(codec.Marshal(&applyReply{Err: "unknown group"}))
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*n.cfg.ElectionTimeoutMax)
	defer cancel()
	result, err := n.Apply(ctx, args.Cmd)
	reply := applyReply{}
	if err != nil {
		reply.Err = err.Error()
		reply.LeaderHint = n.Leader()
	} else {
		reply.OK = true
		reply.Result = result
	}
	_ = h.Respond(codec.Marshal(&reply))
}

func (r *raftRegistry) handleRead(_ context.Context, h *mercury.Handle) {
	var args readArgs
	if err := codec.Unmarshal(h.Input(), &args); err != nil {
		_ = h.RespondError(err)
		return
	}
	n := r.lookup(args.Group)
	if n == nil {
		_ = h.Respond(codec.Marshal(&applyReply{Err: "unknown group"}))
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*n.cfg.ElectionTimeoutMax)
	defer cancel()
	result, err := n.Read(ctx, args.Query)
	reply := applyReply{}
	if err != nil {
		reply.Err = err.Error()
		reply.LeaderHint = n.Leader()
	} else {
		reply.OK = true
		reply.Result = result
	}
	_ = h.Respond(codec.Marshal(&reply))
}

func (r *raftRegistry) handleConfigChange(_ context.Context, h *mercury.Handle) {
	var args configChangeArgs
	if err := codec.Unmarshal(h.Input(), &args); err != nil {
		_ = h.RespondError(err)
		return
	}
	n := r.lookup(args.Group)
	if n == nil {
		_ = h.Respond(codec.Marshal(&applyReply{Err: "unknown group"}))
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*n.cfg.ElectionTimeoutMax)
	defer cancel()
	err := n.changeConfig(ctx, args.Addr, args.Remove)
	reply := applyReply{}
	if err != nil {
		reply.Err = err.Error()
		reply.LeaderHint = n.Leader()
	} else {
		reply.OK = true
	}
	_ = h.Respond(codec.Marshal(&reply))
}

func (r *raftRegistry) handleStatus(_ context.Context, h *mercury.Handle) {
	var args statusArgs
	if err := codec.Unmarshal(h.Input(), &args); err != nil {
		_ = h.RespondError(err)
		return
	}
	n := r.lookup(args.Group)
	if n == nil {
		_ = h.Respond(codec.Marshal(&statusReply{}))
		return
	}
	st := n.Status()
	_ = h.Respond(codec.Marshal(&statusReply{
		OK:          true,
		Role:        uint8(st.Role),
		Term:        st.Term,
		Leader:      st.Leader,
		CommitIndex: st.CommitIndex,
		LastApplied: st.LastApplied,
		Peers:       st.Peers,
	}))
}
