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
// install, what may leave before it is durable and what may not,
// the leader's lease and the ReadIndex rounds behind it, what makes a
// planned event (a cold start, a request that finds no leader, a
// leader's exit) cost round trips instead of timers, and who is waiting
// for what — but performs no network I/O,
// writes no log, reads no clock and starts no goroutines. Every input
// carries the current time; the outputs are the Effects a step leaves
// behind plus the next timer deadline.
//
// With a driver the contract is tag in, tag out. An input somebody waits
// on — Propose, Read, ChangeConfig, Compact, Hold, AppendEntries,
// InstallSnapshot — carries an opaque tag (nil: nobody waits), the first
// three an optional deadline. The core enters it in its ledger and hands
// it back exactly once: beside the entry that commits it
// (ApplyTask.Tags), with the round that confirms or fails it
// (ReadRound), or in a Done with what ended it otherwise; log traffic in
// its Ack, a held request in Released. Surrender takes whatever is left.
// A driver therefore keeps no table of requests. Two runtimes run it
// (DESIGN.md §17): the live Node (node.go), one Core on a margo.Driver
// plus the one store writer and the one applier; and the deterministic
// simulator (sim_test.go), which runs a group of Cores on sim.Harness
// with a disk whose writes take seeded virtual time, so the code that grants
// votes in production is the code whose invariants, the ledger's
// included, are checked under seeded faults.
//
// A Core is NOT safe for concurrent use: the caller serializes all
// calls. Of the Store it writes only term and vote, synchronously inside
// the step (Store.SetState): a vote or a term is persisted before any
// message that carries it exists, and a step whose SetState failed
// changes no mirror and emits nothing that depends on it. The log and
// the snapshot it only reads. What a step appends goes into an
// in-memory tail the core reads its own log through, and leaves as a
// Persist effect next to the AppendEntries that ship the same entries;
// the driver writes Persists in order, outside whatever serializes the
// core, and reports back with Persisted. Raft needs an entry durable
// before it is acknowledged or self-counted, not before it is sent: the
// leader counts itself, and a follower's success reply leaves, only for
// indexes Persisted has covered. A crash loses exactly the tail.

// Message is one request the core wants sent to a peer. Exactly one of
// Vote, Append, Snapshot and TimeoutNow is set. The peer's reply is
// handed back together with the message that caused it (VoteReply,
// AppendReply), the way an RPC layer pairs them: the wire replies do
// not repeat what was asked. Nobody waits for the reply to a
// TimeoutNow: its sender is on its way out.
type Message struct {
	To         string
	Vote       *requestVoteArgs
	Append     *appendEntriesArgs
	Snapshot   *installSnapshotArgs
	TimeoutNow *timeoutNowArgs
	// Round is non-zero when Append is the leadership probe of that
	// ReadIndex round rather than log traffic.
	Round uint64
	// Sent is the time of the step that emitted the message (zero on a
	// TimeoutNow): what the leader's lease counts from when the peer's
	// reply comes back.
	Sent time.Time
}

// Done hands a tag back with what ended its request: it was refused,
// overwritten by a newer leader, dropped by a failed store write, timed
// out or surrendered; a nil Err is a Compact whose snapshot is durable.
type Done struct {
	Tag interface{}
	Err error
}

// ReadRound hands back the reads that were confirmed or failed together:
// with a nil Err, Tags may now be served from the FSM. Round is the
// ReadIndex round that was run for them; 0 when none was — they were
// confirmed under the leader's lease, or failed before a round started.
type ReadRound struct {
	Tags  []interface{}
	Err   error
	Round uint64
}

// StoredSnapshot is a snapshot as the Store keeps it: Data (a
// snapshotEnvelope) covers the log through Index, whose entry had Term.
type StoredSnapshot struct {
	Index, Term uint64
	Data        []byte
}

// Persist is one write the core wants made durable. The driver carries
// Persists out in Seq order and reports with Persisted. Exactly one of
// Entries and Snapshot is set.
type Persist struct {
	Seq uint64
	// Entries become the log from Entries[0].Index on: whatever the
	// store holds at or above that index goes first.
	Entries []LogEntry
	// Snapshot replaces the log through its Index.
	Snapshot *StoredSnapshot
}

// Ack is the answer to one AppendEntries or InstallSnapshot request,
// identified by the tag it came with. Err is set instead of Reply when
// the member could not record the leader's term, or was surrendered: it
// must stay silent.
type Ack struct {
	Tag   interface{}
	Reply *appendEntriesReply
	Err   error
}

// Transition is the member's role, term and leader hint right after one
// of them changed.
type Transition struct {
	Role   Role
	Term   uint64
	Leader string
}

// Effects is what a step asks its driver to do.
type Effects struct {
	Msgs    []Message
	Persist []Persist
	Acks    []Ack
	Reads   []ReadRound
	Done    []Done
	// Transitions are the changes of role, term and leader, in order.
	Transitions []Transition
	// Released are the tags of the held requests (Hold) to start again.
	Released []interface{}
	// Apply is set when NextApply has new work.
	Apply bool
	// StoreErrors counts the Store.SetState calls and the Persists that
	// failed.
	StoreErrors int
}

// ApplyTask is the next piece of work for the state machine: either
// replace its state with a snapshot taken at Index, or apply Entries
// (which end at Index). Tags is nil or as long as Entries: Tags[i] is
// the tag of the proposal Entries[i] commits, if somebody here waits for
// it. The driver must finish the task and call Applied before asking for
// the next one.
type ApplyTask struct {
	Restore  bool
	Snapshot []byte
	Entries  []LogEntry
	Tags     []interface{}
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
	// acked is the newest Sent among this term's messages the follower has
	// answered: it had accepted this leader no earlier than that.
	acked time.Time
}

// request is one line of the ledger: a tag the core owes an answer, by
// deadline if that is not zero. index and term are where a proposal was
// appended; for a success reply waiting for the disk, the index the log
// must be durable through before it may leave and the term it was
// granted in.
type request struct {
	tag         interface{}
	deadline    time.Time
	index, term uint64
}

type readRound struct {
	id       uint64
	reads    []request
	index    uint64
	deadline time.Time
	acks     map[string]bool
}

// write is one Persist the driver has not reported yet: once it is
// durable, so is the log through last.
type write struct {
	seq, last uint64
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
	seen     Transition // the last one emitted
	held     []request  // parked for want of a leader until their deadline, oldest first
	// contact is when this member last accepted a leader, or booted with a
	// term: it grants no vote for ElectionTimeoutMin after, and askedTerm is
	// the highest term it was asked for one meanwhile. transferred: as
	// leader of this term it has told a successor to campaign.
	contact     time.Time
	askedTerm   uint64
	transferred bool

	// The log is the snapshot (through snapIndex), what the store holds
	// below offset, and tail from offset on. tail is everything not known
	// durable yet — after a conflict that includes the entries shadowing
	// a stored suffix the driver has still to remove. persisted is the
	// highest index through which the log is durable; writes are the
	// Persists in flight, oldest first. snap is the snapshot while the
	// store does not have it (snapSeq 0: its Persist failed, and it goes
	// out again ahead of the next one).
	snapIndex, snapTerm uint64
	offset              uint64
	tail                []LogEntry
	persisted           uint64
	seq                 uint64
	writes              []write
	snap                *StoredSnapshot
	snapSeq             uint64
	acks                []request

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

	// ReadIndex: forming reads join round nextRound; round is the one
	// in flight (id 0: none); confirmed rounds wait for lastApplied.
	forming   []request
	nextRound uint64
	round     readRound
	confirmed []readRound

	// The rest of the ledger: the proposals appended here and not applied
	// yet, the Compact waiting for its Persist, and the earliest deadline
	// among proposals and reads (zero: none).
	pending []request
	compact struct {
		seq uint64
		tag interface{}
	}
	expireAt time.Time

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
	if data, idx, term, err := store.Snapshot(); err == nil && idx > 0 {
		var env snapshotEnvelope
		if err := codec.Unmarshal(data, &env); err != nil {
			return nil, fmt.Errorf("raft: corrupt snapshot: %w", err)
		}
		c.base = env.Peers
		c.commitIndex = idx
		c.snapIndex, c.snapTerm = idx, term
	}
	c.persisted = store.LastIndex()
	c.offset = c.persisted + 1
	c.reloadConfig()
	c.seen = Transition{Term: c.term}
	if c.term > 0 {
		// What it promised a leader before the restart it no longer knows:
		// the most it can have promised is a contact just now.
		c.contact = now
	}
	if c.term == 0 && c.lastIndex() == 0 {
		// A virgin member — no term, no log, no snapshot — has never had
		// a leader to be patient with: its first deadline, and only that
		// one, falls within a heartbeat.
		c.electionAt = now.Add(time.Duration(c.rng.Int63n(int64(c.cfg.HeartbeatInterval))))
	} else {
		c.electionAt = now.Add(c.electionTimeout())
	}
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
	if c.role == Leader {
		return earliest(c.heartbeatAt, c.round.deadline, c.expireAt)
	}
	var hold time.Time
	if len(c.held) > 0 {
		hold = c.held[0].deadline
	}
	return earliest(c.electionAt, hold, c.expireAt)
}

// earliest returns the first of ts; a zero time is none.
func earliest(ts ...time.Time) (first time.Time) {
	for _, t := range ts {
		if !t.IsZero() && (first.IsZero() || t.Before(first)) {
			first = t
		}
	}
	return first
}

// Tick fires every timer that is due at now.
func (c *Core) Tick(now time.Time) {
	if !c.expireAt.IsZero() && !now.Before(c.expireAt) {
		c.expire(now)
	}
	if c.role != Leader {
		n := 0
		for n < len(c.held) && !now.Before(c.held[n].deadline) {
			n++
		}
		c.release(n)
		if !now.Before(c.electionAt) {
			c.campaign(now, false)
		}
		return
	}
	if !now.Before(c.heartbeatAt) {
		c.heartbeatAt = now.Add(c.cfg.HeartbeatInterval)
		for _, p := range c.peers {
			if p != c.id {
				c.prog[p].inflight = false
				c.sendAppend(now, p)
			}
		}
	}
	if c.round.id != 0 && !now.Before(c.round.deadline) {
		c.finishRound(now, fmt.Errorf("%w: readindex quorum", ErrTimeout))
	}
}

func (c *Core) electionTimeout() time.Duration {
	span := c.cfg.ElectionTimeoutMax - c.cfg.ElectionTimeoutMin
	return c.cfg.ElectionTimeoutMin + time.Duration(c.rng.Int63n(int64(span)+1))
}

// --- the ledger ---

// done hands tag back with err; ack answers the log traffic tagged tag.
// A nil tag is a request nobody waits on.
func (c *Core) done(tag interface{}, err error) {
	if tag != nil {
		c.eff.Done = append(c.eff.Done, Done{Tag: tag, Err: err})
	}
}

func (c *Core) ack(tag interface{}, reply *appendEntriesReply, err error) {
	if tag != nil {
		c.eff.Acks = append(c.eff.Acks, Ack{Tag: tag, Reply: reply, Err: err})
	}
}

// keepIf drops from s, in place, what keep refuses.
func keepIf[T any](s []T, keep func(T) bool) []T {
	n := 0
	for _, v := range s {
		if keep(v) {
			s[n] = v
			n++
		}
	}
	clear(s[n:])
	return s[:n]
}

// sweep hands back every proposal and read verdict has an error for.
func (c *Core) sweep(verdict func(request) error) {
	live := func(r request) bool {
		err := verdict(r)
		if err != nil {
			c.done(r.tag, err)
		}
		return err == nil
	}
	c.pending = keepIf(c.pending, live)
	c.forming = keepIf(c.forming, live)
	c.round.reads = keepIf(c.round.reads, live)
	for i := range c.confirmed {
		c.confirmed[i].reads = keepIf(c.confirmed[i].reads, live)
	}
}

// expire times out every request whose deadline has passed — the kept
// requests of a leader cut off from its quorum, whose entries nobody
// will ever tell it the fate of — and notes when to come back.
func (c *Core) expire(now time.Time) {
	c.expireAt = time.Time{}
	c.sweep(func(r request) error {
		if r.deadline.IsZero() || r.deadline.After(now) {
			c.expireAt = earliest(c.expireAt, r.deadline)
			return nil
		}
		return fmt.Errorf("%w: no answer by its deadline", ErrTimeout)
	})
}

// Surrender empties the ledger: every tag the core holds leaves with
// err, log traffic in an Ack and everything else in a Done. It is what a
// driver that stops calls last.
func (c *Core) Surrender(err error) {
	c.sweep(func(request) error { return err })
	for _, a := range c.acks {
		c.ack(a.tag, nil, err)
	}
	for _, h := range c.held {
		c.done(h.tag, err)
	}
	c.done(c.compact.tag, err)
	c.acks, c.held, c.compact.tag = nil, nil, nil
}

// claim takes out of the ledger the proposals at or below through, the
// index entries end at, and returns the tags of those that entries
// commit. One whose index holds an entry of another term was overwritten
// by a newer leader and never ran; one below entries went into a
// snapshot installed over it, and nobody here can say what became of it.
func (c *Core) claim(entries []LogEntry, through uint64) (tags []interface{}) {
	lo := through + 1 - uint64(len(entries))
	c.pending = keepIf(c.pending, func(p request) bool {
		switch {
		case p.index > through:
			return true
		case p.index < lo:
			c.done(p.tag, fmt.Errorf("%w: index %d is behind an installed snapshot", ErrTimeout, p.index))
		case entries[p.index-lo].Term != p.term:
			c.done(p.tag, ErrNotLeader)
		default:
			if tags == nil {
				tags = make([]interface{}, len(entries))
			}
			tags[p.index-lo] = p.tag
		}
		return false
	})
	return tags
}

func tagsOf(reads []request) []interface{} {
	tags := make([]interface{}, len(reads))
	for i, r := range reads {
		tags[i] = r.tag
	}
	return tags
}

// --- the log ---

func (c *Core) firstIndex() uint64 { return c.snapIndex + 1 }

func (c *Core) lastIndex() uint64 { return c.offset + uint64(len(c.tail)) - 1 }

// entryAt returns the log entry at index.
func (c *Core) entryAt(index uint64) (LogEntry, error) {
	switch {
	case index < c.firstIndex():
		return LogEntry{}, ErrCompacted
	case index > c.lastIndex():
		return LogEntry{}, fmt.Errorf("raft: index %d beyond log end %d", index, c.lastIndex())
	case index >= c.offset:
		return c.tail[index-c.offset], nil
	}
	return c.store.Entry(index)
}

// termAt returns the term of the entry at index, handling the snapshot
// boundary.
func (c *Core) termAt(index uint64) (uint64, error) {
	switch index {
	case 0:
		return 0, nil
	case c.snapIndex:
		return c.snapTerm, nil
	}
	e, err := c.entryAt(index)
	return e.Term, err
}

// entries returns a copy of the log in [lo, hi].
func (c *Core) entries(lo, hi uint64) ([]LogEntry, error) {
	switch {
	case lo > hi:
		return nil, nil
	case lo < c.firstIndex():
		return nil, ErrCompacted
	case hi > c.lastIndex():
		return nil, fmt.Errorf("raft: index %d beyond log end %d", hi, c.lastIndex())
	}
	var out []LogEntry
	if lo < c.offset {
		var err error
		if out, err = c.store.Entries(lo, min(hi, c.offset-1)); err != nil {
			return nil, err
		}
	}
	if hi >= c.offset {
		out = append(out, c.tail[max(lo, c.offset)-c.offset:hi+1-c.offset]...)
	}
	return out, nil
}

// snapshot returns the current snapshot: the one on its way to the
// store, else the one in it.
func (c *Core) snapshot() (StoredSnapshot, error) {
	if c.snap != nil {
		return *c.snap, nil
	}
	data, idx, term, err := c.store.Snapshot()
	return StoredSnapshot{Index: idx, Term: term, Data: data}, err
}

// write emits p with the next sequence number; once it is durable the
// log is durable through last.
func (c *Core) write(p Persist, last uint64) {
	c.seq++
	p.Seq = c.seq
	c.eff.Persist = append(c.eff.Persist, p)
	c.writes = append(c.writes, write{seq: c.seq, last: last})
}

func (c *Core) saveSnapshot() {
	c.snapSeq = c.seq + 1
	c.write(Persist{Snapshot: c.snap}, c.snap.Index)
}

// appendLog makes entries the log from entries[0].Index on — the end of
// the log, or an earlier index when they replace a conflicting suffix —
// and emits the Persist for it.
func (c *Core) appendLog(entries []LogEntry) {
	from := entries[0].Index
	if from <= c.lastIndex() {
		// Whatever is durable from here on, or on its way to the disk,
		// is about to be removed: none of it counts any more. The tail
		// is rebuilt, not overwritten: Persists already emitted share
		// the old one's memory.
		c.persisted = min(c.persisted, from-1)
		for i := range c.writes {
			c.writes[i].last = min(c.writes[i].last, from-1)
		}
		c.refuseHeld(from, 0) // they would acknowledge entries that are gone
		if from > c.offset {
			c.tail = append([]LogEntry(nil), c.tail[:from-c.offset]...)
		} else {
			c.tail, c.offset = nil, from
		}
	}
	if c.snap != nil && c.snapSeq == 0 {
		c.saveSnapshot() // its Persist failed: the log behind it cannot be stored without it
	}
	c.tail = append(c.tail, entries...)
	c.write(Persist{Entries: c.tail[from-c.offset:]}, c.lastIndex())
}

// setSnapshot makes s the log's prefix: the log drops what s covers,
// and s is kept here until Persisted says the store has it.
func (c *Core) setSnapshot(s *StoredSnapshot, peers []string) {
	switch {
	case s.Index >= c.lastIndex():
		c.tail, c.offset = nil, s.Index+1
	case s.Index >= c.offset:
		c.tail, c.offset = c.tail[s.Index+1-c.offset:], s.Index+1
	}
	c.snapIndex, c.snapTerm = s.Index, s.Term
	c.snap = s
	c.base = peers
	c.saveSnapshot()
	c.reloadConfig()
}

// Persisted reports on the Persists up to seq: with a nil err all of
// them are durable. Otherwise those before seq are, seq failed, and it
// and every Persist emitted since are void — the driver must not carry
// them out. The core then forgets what they held, as a crash would
// have: held acknowledgements are refused, a leader steps down, and
// whoever waits for a forgotten entry, or for a snapshot that did not
// make it, learns the store's error.
func (c *Core) Persisted(now time.Time, seq uint64, err error) {
	durable := seq
	if err != nil {
		durable--
	}
	n := 0
	for n < len(c.writes) && c.writes[n].seq <= durable {
		c.persisted = max(c.persisted, c.writes[n].last)
		n++
	}
	c.writes = append(c.writes[:0], c.writes[n:]...)
	if c.snap != nil && c.snapSeq != 0 && c.snapSeq <= durable {
		c.snap = nil
	}
	if c.compact.seq <= durable {
		c.done(c.compact.tag, nil)
		c.compact.tag = nil
	}
	// What the store holds is read from there.
	if k := min(c.persisted, c.lastIndex()) + 1; k > c.offset {
		c.tail, c.offset = c.tail[k-c.offset:], k
		if len(c.tail) == 0 {
			c.tail = nil
		}
	}
	if err != nil {
		c.persistFailed(now, err)
		return
	}
	c.releaseAcks()
	c.advanceCommit(now)
}

func (c *Core) persistFailed(now time.Time, err error) {
	c.eff.StoreErrors++
	c.done(c.compact.tag, err)
	c.compact.tag = nil
	c.writes = c.writes[:0]
	c.snapSeq = 0
	if keep := max(c.persisted, c.snapIndex); keep < c.lastIndex() {
		c.tail = append([]LogEntry(nil), c.tail[:keep+1-c.offset]...)
		c.sweep(func(r request) error {
			if r.index > keep {
				return fmt.Errorf("raft: store write: %w", err)
			}
			return nil
		})
		c.reloadConfig()
	}
	c.refuseHeld(0, c.lastIndex()+1)
	// A leader that cannot write its own log must not keep accepting
	// commands it will never count itself for.
	c.demote(now)
}

// ackWhenDurable answers the request tagged tag with success once the
// log is durable through need: at once when it already is.
func (c *Core) ackWhenDurable(tag interface{}, need uint64) {
	if need <= c.persisted {
		c.ack(tag, &appendEntriesReply{Term: c.term, Success: true}, nil)
		return
	}
	if c.snap != nil && c.snapSeq == 0 {
		c.saveSnapshot() // its Persist failed: the leader's retry is ours
	}
	if tag != nil {
		c.acks = append(c.acks, request{tag: tag, index: need, term: c.term})
	}
}

// refuseHeld answers without success every held reply that waits for
// index from or beyond.
func (c *Core) refuseHeld(from, conflict uint64) {
	c.acks = keepIf(c.acks, func(a request) bool {
		if a.index >= from {
			c.refuse(a.tag, conflict)
		}
		return a.index < from
	})
}

// releaseAcks sends the held replies the disk has caught up with. One
// granted in an earlier term no longer speaks for this member: the
// leader that asked learns the new term instead.
func (c *Core) releaseAcks() {
	c.acks = keepIf(c.acks, func(a request) bool {
		if a.index <= c.persisted {
			c.ack(a.tag, &appendEntriesReply{Term: c.term, Success: a.term == c.term}, nil)
		}
		return a.index > c.persisted
	})
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
	if term != c.term {
		c.leader = "" // whoever led the old term does not lead this one
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
	if was == Leader {
		if c.leader == c.id {
			c.leader = ""
		}
		err := leaderError(c.leader)
		if c.round.id != 0 {
			c.eff.Reads = append(c.eff.Reads, ReadRound{Tags: tagsOf(c.round.reads), Err: err, Round: c.round.id})
			c.round = readRound{}
		}
		if len(c.forming) > 0 {
			c.eff.Reads = append(c.eff.Reads, ReadRound{Tags: tagsOf(c.forming), Err: err})
			c.forming = nil
		}
	}
	c.note()
}

// note emits a Transition if role, term or leader moved since the last
// one. Once a leader is known — this member or another — every held
// request goes back to its driver, to be started here or refused with
// the hint.
func (c *Core) note() {
	t := Transition{Role: c.role, Term: c.term, Leader: c.leader}
	if t == c.seen {
		return
	}
	c.seen = t
	c.eff.Transitions = append(c.eff.Transitions, t)
	if c.leader != "" {
		c.release(len(c.held))
	}
}

// Hold parks a client request, known to the core only as tag, at a
// member that has no leader to name: refusing it would send the client
// round the group on its own timer, while the answer is at most an
// election away. The tag comes back in Released at the next transition
// that names a leader, or after ElectionTimeoutMax. Hold reports false,
// and keeps nothing, when the member leads or knows who does — or is
// outside the configuration, where no leader will ever make itself
// known.
func (c *Core) Hold(now time.Time, tag interface{}) bool {
	if c.leader != "" || !c.inConfig() {
		return false
	}
	c.held = append(c.held, request{tag: tag, deadline: now.Add(c.cfg.ElectionTimeoutMax)})
	return true
}

// release hands the n oldest held requests back.
func (c *Core) release(n int) {
	for _, h := range c.held[:n] {
		c.eff.Released = append(c.eff.Released, h.tag)
	}
	c.held = append(c.held[:0], c.held[n:]...)
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
	for i, first := index, c.firstIndex(); i >= first && i > 0; i-- {
		e, err := c.entryAt(i)
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
	c.peers, c.configIndex = c.configAt(c.lastIndex())
	if c.role == Leader {
		last := c.lastIndex()
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

// campaign starts an election. transfer: the leader asked for it
// (TimeoutNow), which voters must know to grant inside its lease.
func (c *Core) campaign(now time.Time, transfer bool) {
	c.electionAt = now.Add(c.electionTimeout())
	if !c.inConfig() {
		return
	}
	// Past any term it withheld its vote in: whoever asked has voted for
	// itself there, and would refuse this member in turn.
	if c.persist(max(c.term, c.askedTerm)+1, c.id) != nil {
		return
	}
	c.role = Candidate
	c.votes = map[string]bool{c.id: true}
	c.note()
	if c.quorum(c.votes) {
		c.becomeLeader(now)
		return
	}
	lastIdx := c.lastIndex()
	lastTerm, _ := c.termAt(lastIdx)
	args := &requestVoteArgs{Group: c.group, Term: c.term, Candidate: c.id, LastLogIndex: lastIdx, LastLogTerm: lastTerm, Transfer: transfer}
	for _, p := range c.peers {
		if p != c.id {
			c.eff.Msgs = append(c.eff.Msgs, Message{To: p, Vote: args, Sent: now})
		}
	}
}

// RequestVote handles a vote request (§5.2, §5.4.1). An error means the
// vote or the term could not be persisted: no reply may be sent. The
// candidate's log is compared with all of this member's, tail
// included: entries on their way to the disk can only make the member
// harder to convince.
//
// A member that accepted a leader less than ElectionTimeoutMin ago by its
// own clock, and a leader whose lease is valid, withhold: the answer is a
// refusal in the member's own term, and the candidate's term is not
// adopted — only remembered, for campaign. That is the promise a leader's
// lease rests on (see Read), and it keeps a member that merely lost touch
// from deposing a leader the rest still hear. The campaign a departing
// leader asked for is exempt.
func (c *Core) RequestVote(now time.Time, a *requestVoteArgs) (*requestVoteReply, error) {
	if a.Term < c.term || !a.Transfer && (now.Sub(c.contact) < c.cfg.ElectionTimeoutMin || c.leased(now)) {
		c.askedTerm = max(c.askedTerm, a.Term)
		return &requestVoteReply{Term: c.term}, nil
	}
	term, vote := c.term, c.votedFor
	if a.Term > term {
		term, vote = a.Term, ""
	}
	lastIdx := c.lastIndex()
	lastTerm, _ := c.termAt(lastIdx)
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
	c.transferred = false
	c.note()
	c.heartbeatAt = now.Add(c.cfg.HeartbeatInterval)
	last := c.lastIndex()
	c.prog = make(map[string]*progress, len(c.peers))
	for _, p := range c.peers {
		c.prog[p] = &progress{next: last + 1}
	}
	// Commit entries from previous terms by appending a no-op at the
	// current term (§5.4.2).
	c.appendAsLeader(now, LogEntry{Type: EntryNoop}, nil, time.Time{})
}

// --- leader: append, replicate, commit ---

// appendAsLeader gives e the next index and the current term, adds it
// to the log and ships it: the Persist and the AppendEntries for it
// leave in the same step. A tag enters the ledger at that index, which
// is returned.
func (c *Core) appendAsLeader(now time.Time, e LogEntry, tag interface{}, deadline time.Time) uint64 {
	e.Index, e.Term = c.lastIndex()+1, c.term
	if tag != nil {
		c.pending = append(c.pending, request{tag, deadline, e.Index, e.Term})
		c.expireAt = earliest(c.expireAt, deadline)
	}
	c.appendLog([]LogEntry{e})
	if e.Type == EntryConfig {
		c.reloadConfig()
	}
	c.broadcast(now)
	return e.Index
}

// broadcast sends log traffic to every follower that has none in
// flight.
func (c *Core) broadcast(now time.Time) {
	for _, p := range c.peers {
		if p != c.id && !c.prog[p].inflight {
			c.sendAppend(now, p)
		}
	}
}

// sendAppend emits one AppendEntries (or InstallSnapshot, when the
// follower is behind the log's first index) for peer.
func (c *Core) sendAppend(now time.Time, peer string) {
	p := c.prog[peer]
	if p.next < c.firstIndex() {
		s, err := c.snapshot()
		if err != nil || s.Index == 0 {
			return
		}
		p.inflight, p.sentCommit = true, c.commitIndex
		c.eff.Msgs = append(c.eff.Msgs, Message{To: peer, Sent: now, Snapshot: &installSnapshotArgs{
			Group: c.group, Term: c.term, Leader: c.id,
			LastIndex: s.Index, LastTerm: s.Term, Peers: c.base, Data: s.Data,
		}})
		return
	}
	a := c.appendArgs(p.next-1, min(c.lastIndex(), p.next-1+uint64(c.cfg.MaxEntriesPerAppend)))
	if a == nil {
		return
	}
	p.inflight, p.sentCommit = true, c.commitIndex
	c.eff.Msgs = append(c.eff.Msgs, Message{To: peer, Append: a, Sent: now})
}

// appendArgs builds the AppendEntries that carries the log in (prev,
// hi]: nil when the log does not reach back to prev any more.
func (c *Core) appendArgs(prev, hi uint64) *appendEntriesArgs {
	prevTerm, err := c.termAt(prev)
	if err != nil {
		return nil
	}
	entries, err := c.entries(prev+1, hi)
	if err != nil {
		return nil
	}
	return &appendEntriesArgs{
		Group: c.group, Term: c.term, Leader: c.id,
		PrevLogIndex: prev, PrevLogTerm: prevTerm,
		Entries: entries, LeaderCommit: c.commitIndex,
	}
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
	p := c.prog[m.To]
	if c.role != Leader || term != c.term || p == nil {
		return
	}
	// Success or refusal, the follower accepted this leader when the
	// request reached it, which was after it was sent: the lease counts
	// from there, not from now, so a late reply can only shorten it.
	if m.Sent.After(p.acked) {
		p.acked = m.Sent
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
	if c.role == Leader && !p.inflight && (!r.Success || p.next <= c.lastIndex() || p.sentCommit < c.commitIndex) {
		c.sendAppend(now, m.To)
	}
}

// advanceCommit moves commitIndex to the highest index durable on a
// majority, if that entry is of the current term (§5.4.2). The leader
// counts itself through persisted, not through the end of its log:
// what it has only handed to its disk is no more its own than a
// follower's unacknowledged copy.
func (c *Core) advanceCommit(now time.Time) {
	if c.role != Leader || len(c.peers) == 0 {
		return
	}
	matches := make([]uint64, 0, len(c.peers))
	for _, p := range c.peers {
		if p == c.id {
			matches = append(matches, c.persisted)
		} else {
			matches = append(matches, c.prog[p].match)
		}
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	candidate := matches[len(matches)/2]
	if candidate <= c.commitIndex {
		return
	}
	if t, err := c.termAt(candidate); err != nil || t != c.term {
		return
	}
	configCommitted := c.pendingConfig() != 0 && candidate >= c.configIndex
	c.commitIndex = candidate
	c.eff.Apply = true
	if configCommitted && !c.inConfig() {
		// Removed by the configuration that just committed.
		c.Transfer()
		c.demote(now)
		return
	}
	c.confirmReads(now) // those parked until the term's first commit
	c.broadcast(now)    // propagate the new commit index promptly
}

// Propose offers a command to the leader, which appends it at once: one
// Persist, and one AppendEntries per follower with nothing in flight.
// Group commit needs no rule here. Proposals that arrive while a disk
// write is under way leave as Persists that queue at the driver's
// writer, which makes one write of all it finds; a follower busy with
// the previous AppendEntries gets everything since in its next one. The
// index the command went to is returned for whoever observes the log (0:
// refused); the answer comes through tag.
func (c *Core) Propose(now time.Time, data []byte, tag interface{}, deadline time.Time) uint64 {
	if c.role != Leader || !c.inConfig() {
		err := leaderError(c.leader)
		if c.role == Leader {
			// It has appended its own removal and will not be there to
			// report on anything it takes now; its successor is not known.
			err = ErrNoLeader
		}
		c.done(tag, err)
		return 0
	}
	return c.appendAsLeader(now, LogEntry{Type: EntryCommand, Data: data}, tag, deadline)
}

// ChangeConfig appends a single-server membership change: tag comes back
// beside the entry once it is applied. Like Propose it returns the index.
func (c *Core) ChangeConfig(now time.Time, addr string, remove bool, tag interface{}, deadline time.Time) uint64 {
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
	if !remove {
		peers = append(peers, addr)
	}
	data, err := json.Marshal(peers)
	switch {
	case c.role != Leader:
		err = leaderError(c.leader)
	case c.pendingConfig() != 0:
		err = ErrInProgress
	case remove && !found:
		err = fmt.Errorf("%w: %s not a member", ErrBadConfig, addr)
	case !remove && found:
		err = fmt.Errorf("%w: %s already a member", ErrBadConfig, addr)
	}
	if err != nil {
		c.done(tag, err)
		return 0
	}
	return c.appendAsLeader(now, LogEntry{Type: EntryConfig, Data: data}, tag, deadline)
}

// Transfer is what a leader on its way out — removed by the
// configuration it just committed, or about to be stopped — does
// instead of leaving the group to wait out an election timeout: it
// tells the voter whose log is furthest along to campaign at once, and
// sends along whatever of its own log that voter has not acknowledged,
// so that the successor stands on the leader's whole log and no voter
// holds anything that would make it refuse — its promise to this leader
// included, which is why this leader's lease ends here: for the rest of
// the term it confirms reads by rounds only.
func (c *Core) Transfer() {
	if c.role != Leader {
		return
	}
	to := ""
	for _, p := range c.peers {
		if p != c.id && (to == "" || c.prog[p].match > c.prog[to].match) {
			to = p
		}
	}
	if to == "" {
		return
	}
	a := c.appendArgs(c.prog[to].match, c.lastIndex())
	if a == nil {
		// A leader this new has heard from nobody, and the log that far
		// back is compacted: the successor stands on the log it has.
		a = c.appendArgs(c.lastIndex(), c.lastIndex())
	}
	if a != nil {
		c.transferred = true
		c.eff.Msgs = append(c.eff.Msgs, Message{To: to, TimeoutNow: &timeoutNowArgs{*a}})
	}
}

// --- follower ---

// TimeoutNow handles a departing leader's last AppendEntries, which
// names this member its successor: take the entries, then campaign now
// instead of when the election timer says. Nobody waits for the
// acknowledgement (a nil tag). A stale request changes nothing.
func (c *Core) TimeoutNow(now time.Time, a *timeoutNowArgs) *timeoutNowReply {
	c.AppendEntries(now, &a.appendEntriesArgs, nil)
	if a.Term == c.term && a.Leader == c.leader && c.role == Follower {
		c.campaign(now, true)
	}
	return &timeoutNowReply{Term: c.term}
}

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
	c.contact = now
	c.electionAt = now.Add(c.electionTimeout())
	return nil
}

// refuse answers the request tagged tag without success.
func (c *Core) refuse(tag interface{}, conflict uint64) {
	c.ack(tag, &appendEntriesReply{Term: c.term, ConflictIndex: conflict}, nil)
}

// AppendEntries handles log traffic and heartbeats from a leader
// (§5.3). The answer is the Ack carrying tag: among this step's effects
// when it is a refusal or acknowledges nothing the disk has yet to
// see — a ReadIndex probe never does — and otherwise among those of
// the step that learns the log is durable through what it
// acknowledges.
func (c *Core) AppendEntries(now time.Time, a *appendEntriesArgs, tag interface{}) {
	if a.Term < c.term {
		c.refuse(tag, 0)
		return
	}
	if err := c.follow(now, a.Term, a.Leader); err != nil {
		c.ack(tag, nil, err)
		return
	}

	// Log consistency check.
	first, last := c.firstIndex(), c.lastIndex()
	if a.PrevLogIndex > last || a.PrevLogIndex+1 < first {
		// Past our log, or inside our snapshot (the leader is behind
		// what we have compacted): point it past our log.
		c.refuse(tag, last+1)
		return
	}
	pt, err := c.termAt(a.PrevLogIndex)
	if err != nil {
		c.refuse(tag, first)
		return
	}
	if pt != a.PrevLogTerm {
		// Hint at the first index of the conflicting term.
		ci := a.PrevLogIndex
		for ci > first {
			if t, err := c.termAt(ci - 1); err != nil || t != pt {
				break
			}
			ci--
		}
		c.refuse(tag, ci)
		return
	}

	// Skip what we already have. What is left replaces the log from its
	// first index on: the end of the log, or the first conflict.
	for i, e := range a.Entries {
		if e.Index < first {
			continue // covered by our snapshot
		}
		if t, err := c.termAt(e.Index); err == nil && t == e.Term {
			continue // already have it
		}
		reload := e.Index <= c.configIndex
		for _, f := range a.Entries[i:] {
			reload = reload || f.Type == EntryConfig
		}
		c.appendLog(a.Entries[i:])
		if reload {
			c.reloadConfig()
		}
		break
	}
	lastNew := a.PrevLogIndex + uint64(len(a.Entries))
	if min(a.LeaderCommit, lastNew) > c.commitIndex {
		c.commitIndex = min(a.LeaderCommit, lastNew)
		c.eff.Apply = true
	}
	c.ackWhenDurable(tag, lastNew)
}

// InstallSnapshot replaces the log prefix with the leader's snapshot.
// The snapshot is durable before its Ack leaves; the state machine
// catches up through NextApply, which asks for a restore whenever it is
// behind the log's first index.
func (c *Core) InstallSnapshot(now time.Time, a *installSnapshotArgs, tag interface{}) {
	if a.Term < c.term {
		c.refuse(tag, 0)
		return
	}
	if err := c.follow(now, a.Term, a.Leader); err != nil {
		c.ack(tag, nil, err)
		return
	}
	if a.LastIndex > c.commitIndex {
		var env snapshotEnvelope
		if codec.Unmarshal(a.Data, &env) != nil {
			c.refuse(tag, 0)
			return
		}
		c.setSnapshot(&StoredSnapshot{Index: a.LastIndex, Term: a.LastTerm, Data: a.Data}, env.Peers)
		c.commitIndex = a.LastIndex
		c.eff.Apply = true
	}
	c.ackWhenDurable(tag, a.LastIndex)
}

// --- reads: the lease, and the ReadIndex round behind it ---

// leased reports whether the leader's lease covers now. The lease rests
// on what it has heard from its voters: a quorum of the current
// configuration — itself, and every peer that has answered a message of
// this term sent less than an eighth short of ElectionTimeoutMin ago —
// accepted it as leader no earlier than that, and none of them grants a
// vote for a full ElectionTimeoutMin after (RequestVote). Clocks may
// differ arbitrarily in value; the eighth is what their rates may differ
// by over one election timeout.
func (c *Core) leased(now time.Time) bool {
	if c.role != Leader || c.transferred {
		return false
	}
	from, n := now.Add(c.cfg.ElectionTimeoutMin/8-c.cfg.ElectionTimeoutMin), 0
	for _, p := range c.peers {
		if p == c.id || c.prog[p].acked.After(from) {
			n++
		}
	}
	return n >= len(c.peers)/2+1
}

// Read registers a linearizable read; the ReadRound effect that carries
// tag says when (and whether) it may be served: in this very step when
// the lease is valid and the state machine has caught up.
//
// Safety: a read is served at a read index recorded while no other
// leader can exist, or confirmed by a quorum afterwards. Under a valid
// lease (leased) a quorum is inside its promise to grant no vote, every
// election needs one of them, so no later term has a leader yet and
// commitIndex covers every write that completed before the read began.
// Without one — a new leader, lost replies, a leader that has started a
// transfer, whose successor's campaign voters do not withhold from — the
// read joins a round that has not started (its read index must be
// recorded before the first probe leaves), and a quorum of answers in
// this term proves the same of the moment the probes left: a later leader
// needs a quorum at a higher term, which the round would have observed.
// The round's answers renew the lease. Either way serving the query is
// linearizable even if this node is deposed right after.
func (c *Core) Read(now time.Time, tag interface{}, deadline time.Time) {
	if c.role != Leader {
		c.done(tag, leaderError(c.leader))
		return
	}
	c.forming = append(c.forming, request{tag: tag, deadline: deadline})
	c.expireAt = earliest(c.expireAt, deadline)
	c.confirmReads(now)
}

// confirmReads gives the forming reads their read index, commitIndex,
// which is only meaningful once an entry of the current term is committed
// (the no-op appended at election gets there promptly; until then reads
// stay forming and advanceCommit calls back): confirmed here and now under
// the lease, else by the next round.
func (c *Core) confirmReads(now time.Time) {
	if len(c.forming) == 0 {
		return
	}
	if t, err := c.termAt(c.commitIndex); err != nil || t != c.term {
		return
	}
	if !c.leased(now) {
		c.startRound(now)
		return
	}
	c.confirmed = append(c.confirmed, readRound{reads: c.forming, index: c.commitIndex})
	c.forming = nil
	c.releaseReads()
}

// startRound starts the next ReadIndex round if none is in flight:
// record commitIndex as the read index of every forming read, then probe
// the peers.
func (c *Core) startRound(now time.Time) {
	if c.round.id != 0 {
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
	c.forming = nil
	// The probe is an empty AppendEntries with LeaderCommit 0: it cannot
	// move follower state, only the reply's term matters. It is its own
	// message so a read never queues behind log traffic in flight, and
	// it acknowledges no entry, so no follower holds it for its disk.
	probe := &appendEntriesArgs{Group: c.group, Term: c.term, Leader: c.id}
	for _, p := range c.peers {
		if p != c.id {
			c.eff.Msgs = append(c.eff.Msgs, Message{To: p, Append: probe, Round: c.round.id, Sent: now})
		}
	}
}

func (c *Core) finishRound(now time.Time, err error) {
	r := c.round
	c.round = readRound{}
	if err != nil {
		c.eff.Reads = append(c.eff.Reads, ReadRound{Tags: tagsOf(r.reads), Err: err, Round: r.id})
	} else {
		c.confirmed = append(c.confirmed, r)
		c.releaseReads()
	}
	c.confirmReads(now)
}

// releaseReads resolves confirmed reads whose read index has been
// applied, i.e. whose effects are visible in the state machine.
func (c *Core) releaseReads() {
	n := 0
	for n < len(c.confirmed) && c.confirmed[n].index <= c.lastApplied {
		c.eff.Reads = append(c.eff.Reads, ReadRound{Tags: tagsOf(c.confirmed[n].reads), Round: c.confirmed[n].id})
		n++
	}
	c.confirmed = append(c.confirmed[:0], c.confirmed[n:]...)
}

// --- state machine ---

// NextApply returns the next task for the state machine, if any.
// A state machine behind the log's first index (fresh process, or a
// snapshot was just installed) is restored from the snapshot;
// otherwise the task is the next run of committed entries.
func (c *Core) NextApply() (ApplyTask, bool) {
	if c.lastApplied+1 < c.firstIndex() {
		s, err := c.snapshot()
		var env snapshotEnvelope
		if err != nil || codec.Unmarshal(s.Data, &env) != nil {
			return ApplyTask{}, false
		}
		c.claim(nil, s.Index)
		return ApplyTask{Restore: true, Snapshot: env.FSM, Index: s.Index}, true
	}
	if c.lastApplied >= c.commitIndex {
		return ApplyTask{}, false
	}
	hi := min(c.commitIndex, c.lastApplied+maxBatchEntries)
	entries, err := c.entries(c.lastApplied+1, hi)
	if err != nil || len(entries) == 0 {
		return ApplyTask{}, false
	}
	return ApplyTask{Entries: entries, Tags: c.claim(entries, hi), Index: hi}, true
}

// Applied reports that the state machine has finished the task ending
// at index.
func (c *Core) Applied(index uint64) {
	c.lastApplied = max(c.lastApplied, index)
	c.releaseReads()
}

// Compactable reports whether a snapshot at lastApplied would shorten
// the log.
func (c *Core) Compactable() bool {
	return c.lastApplied > 0 && c.lastApplied >= c.firstIndex()
}

// SnapshotDue reports whether SnapshotThreshold applied entries have
// accumulated in the log.
func (c *Core) SnapshotDue() bool {
	return c.cfg.SnapshotThreshold > 0 && c.Compactable() &&
		c.lastApplied+1-c.firstIndex() >= c.cfg.SnapshotThreshold
}

// Compact makes fsm — the state machine's snapshot at exactly
// lastApplied — the log's prefix and discards the log through that
// index. tag comes back in a Done once the store has the snapshot (or
// has failed to take it): at once when a newer snapshot was installed
// meanwhile and there is nothing to do. The state machine's one caller
// asks for one at a time.
func (c *Core) Compact(fsm []byte, tag interface{}) {
	if !c.Compactable() {
		c.done(tag, nil)
		return
	}
	idx := c.lastApplied
	term, err := c.termAt(idx)
	if err != nil {
		c.done(tag, err)
		return
	}
	peers, _ := c.configAt(idx)
	c.setSnapshot(&StoredSnapshot{Index: idx, Term: term, Data: codec.Marshal(&snapshotEnvelope{Peers: peers, FSM: fsm})}, peers)
	c.compact.seq, c.compact.tag = c.snapSeq, tag
}
