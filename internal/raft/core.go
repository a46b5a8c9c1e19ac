package raft

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mochi/internal/codec"
)

// This file holds the transport-free Raft protocol core. Core owns
// every protocol rule — role/term/vote, elections, log matching and
// conflict hints, commit advance, single-server membership, snapshot
// install, the leader's group-commit linger and ReadIndex rounds — but
// performs no network I/O, reads no clock and starts no goroutines.
// Inputs are events carrying the current time (a timer tick, a request
// or a reply from a peer, proposals, reads, a configuration change,
// "applied through index i"); outputs are the Effects each step leaves
// behind plus the next timer deadline. Two drivers run it:
//
//   - the live Node (node.go), which wraps one Core in a mutex and wires
//     it to margo RPCs, a timer goroutine, per-peer senders and the one
//     applier goroutine that calls the FSM; and
//   - the deterministic simulator (sim_test.go), which runs a group of
//     Cores single-threaded on sim.Sim + sim.Net, so the code that
//     grants votes and advances commit indexes in production is the
//     code whose safety invariants are checked under seeded faults.
//
// A Core is NOT safe for concurrent use: the caller serializes all
// calls. It calls the Store synchronously inside a step: a vote or a
// term is persisted before any message that carries it exists, entries
// are appended before they are acknowledged or counted towards a
// quorum. A step whose Store write failed changes no persistent-state
// mirror and emits nothing that depends on the write.

// Message is one request the core wants sent to a peer. Exactly one of
// Vote, Append and Snapshot is set. The peer's reply is handed back
// together with the message that caused it (VoteReply, AppendReply),
// the way an RPC layer pairs them: the wire replies do not repeat what
// was asked.
type Message struct {
	To       string
	Vote     *requestVoteArgs
	Append   *appendEntriesArgs
	Snapshot *installSnapshotArgs
	// Round is non-zero when Append is the leadership probe of that
	// ReadIndex round rather than log traffic.
	Round uint64
}

// Proposal is one command offered to the leader. Tag is opaque to the
// core and comes back in Accepted or Rejected.
type Proposal struct {
	Data []byte
	Tag  interface{}
}

// Accepted reports one group commit: the tagged proposals were appended
// with a single Store.Append at First, First+1, … in term Term. An
// entry later applied at one of those indexes under a different term
// means the proposal was overwritten by a newer leader.
type Accepted struct {
	Tags  []interface{}
	First uint64
	Term  uint64
}

// Rejected reports a proposal that was not appended.
type Rejected struct {
	Tag interface{}
	Err error
}

// ReadRound reports the outcome of one ReadIndex round: with a nil Err
// the Reads reads that joined it may now be served from the FSM.
type ReadRound struct {
	ID    uint64
	Reads int
	Err   error
}

// Effects is what a step asks its driver to do.
type Effects struct {
	Msgs     []Message
	Accepted []Accepted
	Rejected []Rejected
	Reads    []ReadRound
	// Apply is set when NextApply has new work.
	Apply bool
	// StoreErrors counts Store.SetState and Store.Append calls that
	// failed during the step.
	StoreErrors int
}

// ApplyTask is the next piece of work for the state machine: either
// replace its state with a snapshot taken at Index, or apply Entries
// (which end at Index). The driver must finish it and call Applied
// before asking for the next one.
type ApplyTask struct {
	Restore  bool
	Snapshot []byte
	Entries  []LogEntry
	Index    uint64
}

// progress is what a leader knows about one follower.
type progress struct {
	next, match uint64
	// sentCommit is the commit index the last request carried.
	sentCommit uint64
	// inflight: a request is outstanding. Its reply clears it; so does
	// the next heartbeat, which is the retransmission timer.
	inflight bool
}

type readRound struct {
	id       uint64
	reads    int
	index    uint64
	deadline time.Time
	acks     map[string]bool
}

// Core is one member's Raft state machine.
type Core struct {
	group string
	id    string
	cfg   Config
	store Store
	rng   *rand.Rand

	role     Role
	term     uint64 // mirrors the Store
	votedFor string // mirrors the Store
	leader   string

	// Membership is whatever the latest EntryConfig in the log says,
	// committed or not; base is the configuration below the log's first
	// index (the snapshot's, or the one the node was started with).
	base        []string
	peers       []string
	configIndex uint64 // index of that entry, 0 when peers == base
	commitIndex uint64
	lastApplied uint64

	votes map[string]bool      // candidate
	prog  map[string]*progress // leader

	electionAt  time.Time
	heartbeatAt time.Time

	// held are proposals not appended yet; lingerAt is non-zero while
	// they wait for earlier entries to leave the pipeline.
	held     []Proposal
	lingerAt time.Time

	// ReadIndex: forming reads join round nextRound; round is the one
	// in flight (id 0: none); confirmed rounds wait for lastApplied.
	forming   int
	nextRound uint64
	round     readRound
	confirmed []readRound

	eff Effects
}

// NewCore builds a member from what its store holds. peers is the
// initial configuration, used until the log or a snapshot says
// otherwise. The state machine is not touched: when the store has a
// snapshot, the first NextApply asks for it to be restored.
func NewCore(group, id string, peers []string, store Store, cfg Config, rng *rand.Rand, now time.Time) (*Core, error) {
	c := &Core{
		group:     group,
		id:        id,
		cfg:       cfg.withDefaults(),
		store:     store,
		rng:       rng,
		base:      append([]string(nil), peers...),
		nextRound: 1,
	}
	var err error
	if c.term, c.votedFor, err = store.State(); err != nil {
		return nil, err
	}
	if data, idx, _, err := store.Snapshot(); err == nil && idx > 0 {
		var env snapshotEnvelope
		if err := codec.Unmarshal(data, &env); err != nil {
			return nil, fmt.Errorf("raft: corrupt snapshot: %w", err)
		}
		c.base = env.Peers
		c.commitIndex = idx
	}
	c.reloadConfig()
	c.electionAt = now.Add(c.electionTimeout())
	return c, nil
}

// Take returns the effects accumulated since the last call.
func (c *Core) Take() Effects {
	eff := c.eff
	c.eff = Effects{}
	return eff
}

// Status returns a snapshot of protocol state.
func (c *Core) Status() Status {
	return Status{
		ID:          c.id,
		Role:        c.role,
		Term:        c.term,
		Leader:      c.leader,
		CommitIndex: c.commitIndex,
		LastApplied: c.lastApplied,
		Peers:       append([]string(nil), c.peers...),
	}
}

// Leader returns the current leader hint ("" if unknown).
func (c *Core) Leader() string { return c.leader }

// IsLeader reports whether this member currently leads.
func (c *Core) IsLeader() bool { return c.role == Leader }

// --- time ---

// Deadline is when Tick next has something to do.
func (c *Core) Deadline() time.Time {
	if c.role != Leader {
		return c.electionAt
	}
	d := c.heartbeatAt
	if c.round.id != 0 && c.round.deadline.Before(d) {
		d = c.round.deadline
	}
	if !c.lingerAt.IsZero() && c.lingerAt.Before(d) {
		d = c.lingerAt
	}
	return d
}

// Tick fires every timer that is due at now.
func (c *Core) Tick(now time.Time) {
	if c.role != Leader {
		if !now.Before(c.electionAt) {
			c.campaign(now)
		}
		return
	}
	if !now.Before(c.heartbeatAt) {
		c.heartbeatAt = now.Add(c.cfg.HeartbeatInterval)
		for _, p := range c.peers {
			if p != c.id {
				c.prog[p].inflight = false
				c.sendAppend(p)
			}
		}
	}
	if c.round.id != 0 && !now.Before(c.round.deadline) {
		c.finishRound(now, fmt.Errorf("%w: readindex quorum", ErrTimeout))
	}
	if !c.lingerAt.IsZero() && !now.Before(c.lingerAt) {
		c.flushHeld(now)
	}
}

func (c *Core) electionTimeout() time.Duration {
	span := c.cfg.ElectionTimeoutMax - c.cfg.ElectionTimeoutMin
	return c.cfg.ElectionTimeoutMin + time.Duration(c.rng.Int63n(int64(span)+1))
}

// --- persistent state, membership ---

// persist records term and vote. Memory follows the store, never the
// other way round: when the write fails the node is still in its old
// term with its old vote, and the caller must send nothing that says
// otherwise.
func (c *Core) persist(term uint64, votedFor string) error {
	if err := c.store.SetState(term, votedFor); err != nil {
		c.eff.StoreErrors++
		return fmt.Errorf("raft: persist term %d: %w", term, err)
	}
	c.term, c.votedFor = term, votedFor
	return nil
}

// adopt reacts to a higher term seen in a message: the node becomes a
// follower whether or not the term could be persisted, and moves to
// the term only if it could.
func (c *Core) adopt(now time.Time, term uint64) error {
	err := c.persist(term, "")
	c.demote(now)
	return err
}

// demote makes the node a follower. A leader fails what only a leader
// can finish; hints name c.leader, so set it first when it is known.
func (c *Core) demote(now time.Time) {
	was := c.role
	c.role = Follower
	if was != Follower {
		c.electionAt = now.Add(c.electionTimeout())
	}
	if was != Leader {
		return
	}
	if c.leader == c.id {
		c.leader = ""
	}
	err := leaderError(c.leader)
	for _, p := range c.held {
		c.eff.Rejected = append(c.eff.Rejected, Rejected{Tag: p.Tag, Err: err})
	}
	c.held, c.lingerAt = nil, time.Time{}
	if c.round.id != 0 {
		c.eff.Reads = append(c.eff.Reads, ReadRound{ID: c.round.id, Reads: c.round.reads, Err: err})
		c.round = readRound{}
	}
	if c.forming > 0 {
		c.eff.Reads = append(c.eff.Reads, ReadRound{ID: c.nextRound, Reads: c.forming, Err: err})
		c.nextRound++
		c.forming = 0
	}
}

func leaderError(hint string) error {
	if hint == "" {
		return ErrNoLeader
	}
	return fmt.Errorf("%w (leader: %s)", ErrNotLeader, hint)
}

// configAt returns the configuration in force at index: the latest
// EntryConfig at or below it, else base.
func (c *Core) configAt(index uint64) ([]string, uint64) {
	for i, first := index, c.store.FirstIndex(); i >= first && i > 0; i-- {
		e, err := c.store.Entry(i)
		if err != nil {
			break
		}
		if e.Type == EntryConfig {
			var ps []string
			if json.Unmarshal(e.Data, &ps) == nil {
				return ps, i
			}
		}
	}
	return c.base, 0
}

// reloadConfig re-derives membership from the log. Because peers is a
// function of the log, truncating an uncommitted config entry reverts
// it with no further bookkeeping.
func (c *Core) reloadConfig() {
	c.peers, c.configIndex = c.configAt(c.store.LastIndex())
	if c.role == Leader {
		last := c.store.LastIndex()
		for _, p := range c.peers {
			if c.prog[p] == nil {
				c.prog[p] = &progress{next: last + 1}
			}
		}
	}
}

// pendingConfig is the index of the uncommitted config entry, 0 if
// none.
func (c *Core) pendingConfig() uint64 {
	if c.configIndex > c.commitIndex {
		return c.configIndex
	}
	return 0
}

func (c *Core) inConfig() bool {
	for _, p := range c.peers {
		if p == c.id {
			return true
		}
	}
	return false
}

// quorum reports whether a majority of the current configuration is in
// set.
func (c *Core) quorum(set map[string]bool) bool {
	n := 0
	for _, p := range c.peers {
		if set[p] {
			n++
		}
	}
	return n >= len(c.peers)/2+1
}

// --- election ---

func (c *Core) campaign(now time.Time) {
	c.electionAt = now.Add(c.electionTimeout())
	if !c.inConfig() {
		return
	}
	if c.persist(c.term+1, c.id) != nil {
		return
	}
	c.role = Candidate
	c.leader = ""
	c.votes = map[string]bool{c.id: true}
	if c.quorum(c.votes) {
		c.becomeLeader(now)
		return
	}
	lastIdx := c.store.LastIndex()
	lastTerm, _ := c.store.Term(lastIdx)
	args := &requestVoteArgs{Group: c.group, Term: c.term, Candidate: c.id, LastLogIndex: lastIdx, LastLogTerm: lastTerm}
	for _, p := range c.peers {
		if p != c.id {
			c.eff.Msgs = append(c.eff.Msgs, Message{To: p, Vote: args})
		}
	}
}

// RequestVote handles a vote request (§5.2, §5.4.1). An error means the
// vote or the term could not be persisted: no reply may be sent.
func (c *Core) RequestVote(now time.Time, a *requestVoteArgs) (*requestVoteReply, error) {
	if a.Term < c.term {
		return &requestVoteReply{Term: c.term}, nil
	}
	term, vote := c.term, c.votedFor
	if a.Term > term {
		term, vote = a.Term, ""
	}
	lastIdx := c.store.LastIndex()
	lastTerm, _ := c.store.Term(lastIdx)
	upToDate := a.LastLogTerm > lastTerm || (a.LastLogTerm == lastTerm && a.LastLogIndex >= lastIdx)
	grant := (vote == "" || vote == a.Candidate) && upToDate
	if grant {
		vote = a.Candidate
	}
	higher := a.Term > c.term
	if term != c.term || vote != c.votedFor {
		if err := c.persist(term, vote); err != nil {
			if higher {
				c.demote(now)
			}
			return nil, err
		}
	}
	if higher {
		c.demote(now)
	}
	if grant {
		c.electionAt = now.Add(c.electionTimeout())
	}
	return &requestVoteReply{Term: c.term, Granted: grant}, nil
}

// VoteReply handles the reply to the vote request m.
func (c *Core) VoteReply(now time.Time, m Message, r *requestVoteReply) {
	if r.Term > c.term {
		_ = c.adopt(now, r.Term) // counted in StoreErrors; nothing to send either way
		return
	}
	if c.role != Candidate || m.Vote.Term != c.term || !r.Granted {
		return
	}
	c.votes[m.To] = true
	if c.quorum(c.votes) {
		c.becomeLeader(now)
	}
}

func (c *Core) becomeLeader(now time.Time) {
	c.role = Leader
	c.leader = c.id
	c.heartbeatAt = now.Add(c.cfg.HeartbeatInterval)
	last := c.store.LastIndex()
	c.prog = make(map[string]*progress, len(c.peers))
	for _, p := range c.peers {
		c.prog[p] = &progress{next: last + 1}
	}
	// Commit entries from previous terms by appending a no-op at the
	// current term (§5.4.2). A failed append has already demoted us.
	if c.appendAsLeader(now, []LogEntry{{Type: EntryNoop}}) != nil {
		return
	}
	c.broadcast()
	c.advanceCommit(now)
}

// --- leader: append, replicate, commit ---

// appendAsLeader assigns indexes and the current term to entries and
// appends them with one Store.Append. A leader that cannot write its
// own log must not keep acking commands it will never replicate: the
// failure demotes it and is returned.
func (c *Core) appendAsLeader(now time.Time, entries []LogEntry) error {
	base := c.store.LastIndex()
	config := false
	for i := range entries {
		entries[i].Index = base + 1 + uint64(i)
		entries[i].Term = c.term
		config = config || entries[i].Type == EntryConfig
	}
	if err := c.store.Append(entries); err != nil {
		c.eff.StoreErrors++
		c.demote(now)
		return fmt.Errorf("raft: leader store append: %w", err)
	}
	if config {
		c.reloadConfig()
	}
	return nil
}

// broadcast sends log traffic to every follower that has none in
// flight.
func (c *Core) broadcast() {
	for _, p := range c.peers {
		if p != c.id && !c.prog[p].inflight {
			c.sendAppend(p)
		}
	}
}

// sendAppend emits one AppendEntries (or InstallSnapshot, when the
// follower is behind the log's first index) for peer.
func (c *Core) sendAppend(peer string) {
	p := c.prog[peer]
	if p.next < c.store.FirstIndex() {
		data, sidx, sterm, err := c.store.Snapshot()
		if err != nil || sidx == 0 {
			return
		}
		p.inflight, p.sentCommit = true, c.commitIndex
		c.eff.Msgs = append(c.eff.Msgs, Message{To: peer, Snapshot: &installSnapshotArgs{
			Group: c.group, Term: c.term, Leader: c.id,
			LastIndex: sidx, LastTerm: sterm, Peers: c.base, Data: data,
		}})
		return
	}
	prev := p.next - 1
	prevTerm, err := c.store.Term(prev)
	if err != nil {
		return
	}
	hi := min(c.store.LastIndex(), prev+uint64(c.cfg.MaxEntriesPerAppend))
	var entries []LogEntry
	if hi > prev {
		if entries, err = c.store.Entries(p.next, hi); err != nil {
			return
		}
	}
	p.inflight, p.sentCommit = true, c.commitIndex
	c.eff.Msgs = append(c.eff.Msgs, Message{To: peer, Append: &appendEntriesArgs{
		Group: c.group, Term: c.term, Leader: c.id,
		PrevLogIndex: prev, PrevLogTerm: prevTerm,
		Entries: entries, LeaderCommit: c.commitIndex,
	}})
}

// AppendReply handles the reply to m, which is log traffic
// (AppendEntries or InstallSnapshot) or a ReadIndex probe.
func (c *Core) AppendReply(now time.Time, m Message, r *appendEntriesReply) {
	if r.Term > c.term {
		_ = c.adopt(now, r.Term) // counted in StoreErrors; nothing to send either way
		return
	}
	var term, match uint64 // of the request; match is what its success proves
	if m.Snapshot != nil {
		term, match = m.Snapshot.Term, m.Snapshot.LastIndex
	} else {
		term, match = m.Append.Term, m.Append.PrevLogIndex+uint64(len(m.Append.Entries))
	}
	if c.role != Leader || term != c.term {
		return
	}
	if m.Round != 0 {
		if m.Round == c.round.id {
			c.round.acks[m.To] = true
			if c.quorum(c.round.acks) {
				c.finishRound(now, nil)
			}
		}
		return
	}
	p := c.prog[m.To]
	if p == nil {
		return
	}
	p.inflight = false
	switch {
	case r.Success:
		p.match = max(p.match, match)
		p.next = max(p.next, match+1)
		c.advanceCommit(now)
	case m.Snapshot != nil:
		return // the follower could not install it; the next heartbeat retries
	default:
		// Conflict: back off using the follower's hint.
		ni := max(r.ConflictIndex, 1)
		if ni < p.next {
			p.next = ni
		} else if p.next > 1 {
			p.next--
		}
	}
	if c.role == Leader && !p.inflight && (!r.Success || p.next <= c.store.LastIndex() || p.sentCommit < c.commitIndex) {
		c.sendAppend(m.To)
	}
}

// advanceCommit moves commitIndex to the highest index replicated on a
// majority, if that entry is of the current term (§5.4.2).
func (c *Core) advanceCommit(now time.Time) {
	if c.role != Leader || len(c.peers) == 0 {
		return
	}
	matches := make([]uint64, 0, len(c.peers))
	for _, p := range c.peers {
		if p == c.id {
			matches = append(matches, c.store.LastIndex())
		} else {
			matches = append(matches, c.prog[p].match)
		}
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	candidate := matches[len(matches)/2]
	if candidate <= c.commitIndex {
		return
	}
	if t, err := c.store.Term(candidate); err != nil || t != c.term {
		return
	}
	configCommitted := c.pendingConfig() != 0 && candidate >= c.configIndex
	c.commitIndex = candidate
	c.eff.Apply = true
	if configCommitted && !c.inConfig() {
		c.demote(now) // removed by the configuration that just committed
		return
	}
	c.startRound(now) // reads parked until the term's first commit
	c.broadcast()     // propagate the new commit index promptly
}

// Propose offers commands to the leader. They are appended now when
// the pipeline is idle and otherwise held: see flushHeld.
func (c *Core) Propose(now time.Time, ps []Proposal) {
	if c.role != Leader {
		err := leaderError(c.leader)
		for _, p := range ps {
			c.eff.Rejected = append(c.eff.Rejected, Rejected{Tag: p.Tag, Err: err})
		}
		return
	}
	c.held = append(c.held, ps...)
	c.flushHeld(now)
}

// flushHeld runs the leader's group commit: up to maxBatchEntries held
// proposals get contiguous indexes and are persisted with a single
// Store.Append.
//
// Adaptive linger: while earlier entries are appended but not yet
// applied, the held proposals wait — commit latency is gated on those
// entries' replication anyway, and every proposal arriving in the
// meantime joins the batch. Without this gate the group is metastable:
// once proposals start arriving one replication round apart, each finds
// the pipeline idle, appends alone, and keeps the one-fsync-per-op
// lockstep going. The wait ends when Applied catches up and is bounded
// by one heartbeat interval, so a stalled pipeline cannot hold
// proposals forever.
func (c *Core) flushHeld(now time.Time) {
	for len(c.held) > 0 {
		if c.store.LastIndex() > c.lastApplied {
			if c.lingerAt.IsZero() {
				c.lingerAt = now.Add(c.cfg.HeartbeatInterval)
			}
			if now.Before(c.lingerAt) {
				return
			}
		}
		c.lingerAt = time.Time{}
		batch := c.held[:min(len(c.held), maxBatchEntries)]
		entries := make([]LogEntry, len(batch))
		tags := make([]interface{}, len(batch))
		for i, p := range batch {
			entries[i] = LogEntry{Type: EntryCommand, Data: p.Data}
			tags[i] = p.Tag
		}
		c.held = append(c.held[:0], c.held[len(batch):]...)
		if err := c.appendAsLeader(now, entries); err != nil {
			// Demoted: the rest of held was rejected with a leader
			// hint; this batch gets the store error.
			for _, tag := range tags {
				c.eff.Rejected = append(c.eff.Rejected, Rejected{Tag: tag, Err: err})
			}
			return
		}
		c.eff.Accepted = append(c.eff.Accepted, Accepted{Tags: tags, First: entries[0].Index, Term: c.term})
		c.broadcast()
		c.advanceCommit(now) // single-node groups commit immediately
	}
}

// ChangeConfig appends a single-server membership change and returns
// where: the change is done when that index has been applied under
// that term.
func (c *Core) ChangeConfig(now time.Time, addr string, remove bool) (index, term uint64, err error) {
	if c.role != Leader {
		return 0, 0, leaderError(c.leader)
	}
	if c.pendingConfig() != 0 {
		return 0, 0, ErrInProgress
	}
	var peers []string
	found := false
	for _, p := range c.peers {
		if p == addr {
			found = true
			if remove {
				continue
			}
		}
		peers = append(peers, p)
	}
	switch {
	case remove && !found:
		return 0, 0, fmt.Errorf("%w: %s not a member", ErrBadConfig, addr)
	case !remove && found:
		return 0, 0, fmt.Errorf("%w: %s already a member", ErrBadConfig, addr)
	case !remove:
		peers = append(peers, addr)
	}
	data, err := json.Marshal(peers)
	if err != nil {
		return 0, 0, err
	}
	entries := []LogEntry{{Type: EntryConfig, Data: data}}
	if err := c.appendAsLeader(now, entries); err != nil {
		return 0, 0, err
	}
	c.broadcast()
	c.advanceCommit(now)
	return entries[0].Index, entries[0].Term, nil
}

// --- follower ---

// follow accepts leader as the leader of term (>= c.term).
func (c *Core) follow(now time.Time, term uint64, leader string) error {
	if term > c.term {
		if err := c.persist(term, ""); err != nil {
			c.demote(now)
			return err
		}
	}
	c.leader = leader
	c.demote(now)
	c.electionAt = now.Add(c.electionTimeout())
	return nil
}

// AppendEntries handles log traffic and heartbeats from a leader
// (§5.3). An error means the leader's term could not be persisted: no
// reply may be sent.
func (c *Core) AppendEntries(now time.Time, a *appendEntriesArgs) (*appendEntriesReply, error) {
	if a.Term < c.term {
		return &appendEntriesReply{Term: c.term}, nil
	}
	if err := c.follow(now, a.Term, a.Leader); err != nil {
		return nil, err
	}
	reply := &appendEntriesReply{Term: c.term}

	// Log consistency check.
	first, last := c.store.FirstIndex(), c.store.LastIndex()
	switch {
	case a.PrevLogIndex > last:
		reply.ConflictIndex = last + 1
		return reply, nil
	case a.PrevLogIndex+1 < first:
		// Inside our snapshot: the leader is behind what we have
		// compacted; point it past our log.
		reply.ConflictIndex = last + 1
		return reply, nil
	}
	pt, err := c.store.Term(a.PrevLogIndex)
	if err != nil {
		reply.ConflictIndex = first
		return reply, nil
	}
	if pt != a.PrevLogTerm {
		// Hint at the first index of the conflicting term.
		ci := a.PrevLogIndex
		for ci > first {
			if t, err := c.store.Term(ci - 1); err != nil || t != pt {
				break
			}
			ci--
		}
		reply.ConflictIndex = ci
		return reply, nil
	}

	// Drop what we already have, truncate at the first conflict, then
	// append everything new with a single Store.Append.
	var fresh []LogEntry
	reload := false
	for i, e := range a.Entries {
		if e.Index < first {
			continue // covered by our snapshot
		}
		if e.Index <= last {
			if t, err := c.store.Term(e.Index); err == nil && t == e.Term {
				continue // already have it
			}
			if err := c.store.TruncateFrom(e.Index); err != nil {
				return reply, nil
			}
			reload = e.Index <= c.configIndex
		}
		fresh = a.Entries[i:]
		break
	}
	if len(fresh) > 0 {
		err = c.store.Append(fresh)
		for _, e := range fresh {
			reload = reload || (err == nil && e.Type == EntryConfig)
		}
	}
	if reload {
		c.reloadConfig()
	}
	if err != nil {
		c.eff.StoreErrors++
		return reply, nil
	}
	reply.Success = true
	if lastNew := a.PrevLogIndex + uint64(len(a.Entries)); min(a.LeaderCommit, lastNew) > c.commitIndex {
		c.commitIndex = min(a.LeaderCommit, lastNew)
		c.eff.Apply = true
	}
	return reply, nil
}

// InstallSnapshot replaces the log prefix with the leader's snapshot.
// The snapshot is durable before the reply exists; the state machine
// catches up through NextApply, which asks for a restore whenever it is
// behind the log's first index.
func (c *Core) InstallSnapshot(now time.Time, a *installSnapshotArgs) (*appendEntriesReply, error) {
	if a.Term < c.term {
		return &appendEntriesReply{Term: c.term}, nil
	}
	if err := c.follow(now, a.Term, a.Leader); err != nil {
		return nil, err
	}
	reply := &appendEntriesReply{Term: c.term}
	if a.LastIndex <= c.commitIndex {
		reply.Success = true
		return reply, nil
	}
	var env snapshotEnvelope
	if codec.Unmarshal(a.Data, &env) != nil {
		return reply, nil
	}
	if err := c.store.SaveSnapshot(a.LastIndex, a.LastTerm, a.Data); err != nil {
		return reply, nil
	}
	c.base = env.Peers
	c.reloadConfig()
	c.commitIndex = a.LastIndex
	c.eff.Apply = true
	reply.Success = true
	return reply, nil
}

// --- ReadIndex ---

// Read registers a linearizable read and returns the round that will
// confirm it; the ReadRound effect with that ID says when (and
// whether) it may be served. A read only ever joins a round that has
// not started: the safety argument needs its read index recorded
// before the round sends a single probe.
//
// Safety does not need a leader lease: once a quorum acknowledges the
// term, every write that completed before the read began is covered by
// the round's read index (a later leader needs a quorum at a higher
// term, which the round would have observed), so serving the query is
// linearizable even if this node is deposed right after.
func (c *Core) Read(now time.Time) (uint64, error) {
	if c.role != Leader {
		return 0, leaderError(c.leader)
	}
	c.forming++
	id := c.nextRound
	c.startRound(now)
	return id, nil
}

// startRound starts the next ReadIndex round if reads are waiting and
// none is in flight: record commitIndex as the read index of every
// forming read, then probe the peers. The read index is only
// meaningful once an entry of the current term is committed (the no-op
// appended at election gets there promptly); until then reads stay
// forming and advanceCommit calls back.
func (c *Core) startRound(now time.Time) {
	if c.role != Leader || c.round.id != 0 || c.forming == 0 {
		return
	}
	if t, err := c.store.Term(c.commitIndex); err != nil || t != c.term {
		return
	}
	c.round = readRound{
		id:       c.nextRound,
		reads:    c.forming,
		index:    c.commitIndex,
		deadline: now.Add(c.cfg.ElectionTimeoutMin),
		acks:     map[string]bool{c.id: true},
	}
	c.nextRound++
	c.forming = 0
	if c.quorum(c.round.acks) {
		c.finishRound(now, nil) // single-node group
		return
	}
	// The probe is an empty AppendEntries with LeaderCommit 0: it cannot
	// move follower state, only the reply's term matters. It is its own
	// message so a read never queues behind log traffic in flight.
	probe := &appendEntriesArgs{Group: c.group, Term: c.term, Leader: c.id}
	for _, p := range c.peers {
		if p != c.id {
			c.eff.Msgs = append(c.eff.Msgs, Message{To: p, Append: probe, Round: c.round.id})
		}
	}
}

func (c *Core) finishRound(now time.Time, err error) {
	r := c.round
	c.round = readRound{}
	if err != nil {
		c.eff.Reads = append(c.eff.Reads, ReadRound{ID: r.id, Reads: r.reads, Err: err})
	} else {
		c.confirmed = append(c.confirmed, r)
		c.releaseReads()
	}
	c.startRound(now)
}

// releaseReads resolves confirmed rounds whose read index has been
// applied, i.e. whose effects are visible in the state machine.
func (c *Core) releaseReads() {
	n := 0
	for n < len(c.confirmed) && c.confirmed[n].index <= c.lastApplied {
		c.eff.Reads = append(c.eff.Reads, ReadRound{ID: c.confirmed[n].id, Reads: c.confirmed[n].reads})
		n++
	}
	c.confirmed = append(c.confirmed[:0], c.confirmed[n:]...)
}

// --- state machine ---

// NextApply returns the next task for the state machine, if any.
// A state machine behind the log's first index (fresh process, or a
// snapshot was just installed) is restored from the stored snapshot;
// otherwise the task is the next run of committed entries.
func (c *Core) NextApply() (ApplyTask, bool) {
	if c.lastApplied+1 < c.store.FirstIndex() {
		data, idx, _, err := c.store.Snapshot()
		var env snapshotEnvelope
		if err != nil || codec.Unmarshal(data, &env) != nil {
			return ApplyTask{}, false
		}
		return ApplyTask{Restore: true, Snapshot: env.FSM, Index: idx}, true
	}
	if c.lastApplied >= c.commitIndex {
		return ApplyTask{}, false
	}
	hi := min(c.commitIndex, c.lastApplied+maxBatchEntries)
	entries, err := c.store.Entries(c.lastApplied+1, hi)
	if err != nil || len(entries) == 0 {
		return ApplyTask{}, false
	}
	return ApplyTask{Entries: entries, Index: hi}, true
}

// Applied reports that the state machine has finished the task ending
// at index.
func (c *Core) Applied(now time.Time, index uint64) {
	c.lastApplied = max(c.lastApplied, index)
	c.releaseReads()
	if c.role == Leader {
		c.flushHeld(now)
	}
}

// Compactable reports whether a snapshot at lastApplied would shorten
// the log.
func (c *Core) Compactable() bool {
	return c.lastApplied > 0 && c.lastApplied >= c.store.FirstIndex()
}

// SnapshotDue reports whether SnapshotThreshold applied entries have
// accumulated in the log.
func (c *Core) SnapshotDue() bool {
	return c.cfg.SnapshotThreshold > 0 && c.Compactable() &&
		c.lastApplied+1-c.store.FirstIndex() >= c.cfg.SnapshotThreshold
}

// Compact stores fsm — the state machine's snapshot at exactly
// lastApplied — and discards the log through that index.
func (c *Core) Compact(fsm []byte) error {
	if !c.Compactable() {
		return nil // a newer snapshot was installed meanwhile
	}
	idx := c.lastApplied
	term, err := c.store.Term(idx)
	if err != nil {
		return err
	}
	peers, _ := c.configAt(idx)
	if err := c.store.SaveSnapshot(idx, term, codec.Marshal(&snapshotEnvelope{Peers: peers, FSM: fsm})); err != nil {
		return err
	}
	c.base = peers
	c.reloadConfig()
	return nil
}
