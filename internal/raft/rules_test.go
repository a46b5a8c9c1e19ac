package raft

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mochi/internal/codec"
)

// The rule tables in this file drive a Core directly: no fabric, no
// margo instance, no timers. The clock is the constant t0 unless a
// test moves it.

var t0 = time.Unix(1000, 0)

// lapsed is a time by which whatever was promised at t0 has run out: a
// member's refusal to vote against the leader it heard from, or booted
// under, and a leader's lease.
var lapsed = t0.Add(Config{}.withDefaults().ElectionTimeoutMin)

const ruleSelf = "sm://self"

var rulePeers = []string{ruleSelf, "sm://peer-a", "sm://peer-b"}

// ruleCore builds a three-member core whose log holds entries and whose
// persisted term is term.
func ruleCore(t *testing.T, store Store, entries []LogEntry, term uint64) *Core {
	t.Helper()
	if err := store.SetState(term, ""); err != nil {
		t.Fatal(err)
	}
	if err := store.Append(entries); err != nil {
		t.Fatal(err)
	}
	c, err := NewCore("rules", ruleSelf, rulePeers, store, Config{}, rand.New(rand.NewSource(1)), t0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// elect makes c the leader of term c.term+1: its election timer fires
// and peer-a grants its vote (at t0, where the tests' clock stays).
func elect(t *testing.T, c *Core) {
	t.Helper()
	c.Tick(c.Deadline())
	for _, m := range c.Take().Msgs {
		if m.To == "sm://peer-a" {
			c.VoteReply(t0, m, &requestVoteReply{Term: m.Vote.Term, Granted: true})
		}
	}
	if !c.IsLeader() {
		t.Fatal("core did not become leader")
	}
}

// ackAll answers every log message in msgs with success, as a follower
// whose log matches would, and returns what those replies made the
// leader send.
func ackAll(c *Core, msgs []Message) []Message {
	for _, m := range msgs {
		if m.Append != nil && m.Round == 0 {
			c.AppendReply(t0, m, &appendEntriesReply{Term: m.Append.Term, Success: true})
		}
	}
	return c.Take().Msgs
}

// settle plays a disk that is done at once: it carries out the core's
// Persists on store and reports them until none is left, and returns
// everything the core emitted on the way.
func settle(t *testing.T, c *Core, store Store) Effects {
	t.Helper()
	var all Effects
	for {
		eff := c.Take()
		all.Msgs = append(all.Msgs, eff.Msgs...)
		all.Acks = append(all.Acks, eff.Acks...)
		all.Reads = append(all.Reads, eff.Reads...)
		all.Done = append(all.Done, eff.Done...)
		all.Transitions = append(all.Transitions, eff.Transitions...)
		all.Released = append(all.Released, eff.Released...)
		all.Apply = all.Apply || eff.Apply
		all.StoreErrors += eff.StoreErrors
		if len(eff.Persist) == 0 {
			return all
		}
		for _, p := range eff.Persist {
			if err := p.writeTo(store); err != nil {
				t.Fatalf("persist %d: %v", p.Seq, err)
			}
			c.Persisted(t0, p.Seq, nil)
		}
	}
}

// deliver hands a to c, a follower whose disk is done at once, and
// returns its answer: the reply, or the error that keeps it silent.
func deliver(t *testing.T, c *Core, store Store, a *appendEntriesArgs) (*appendEntriesReply, Effects, error) {
	t.Helper()
	c.AppendEntries(t0, a, 1)
	eff := settle(t, c, store)
	if len(eff.Acks) != 1 || eff.Acks[0].Tag != 1 {
		t.Fatalf("acks = %+v, want exactly the one for this request", eff.Acks)
	}
	return eff.Acks[0].Reply, eff, eff.Acks[0].Err
}

func entriesUpTo(n int, term uint64) []LogEntry {
	out := make([]LogEntry, n)
	for i := range out {
		out[i] = LogEntry{Index: uint64(i + 1), Term: term, Type: EntryCommand, Data: []byte{byte(i)}}
	}
	return out
}

func configEntry(t *testing.T, index, term uint64, peers ...string) LogEntry {
	t.Helper()
	data, err := json.Marshal(peers)
	if err != nil {
		t.Fatal(err)
	}
	return LogEntry{Index: index, Term: term, Type: EntryConfig, Data: data}
}

// TestVoteRules drives RequestVote through the Raft §5.2/§5.4.1 rule
// table.
func TestVoteRules(t *testing.T) {
	base := entriesUpTo(3, 2) // log: 3 entries at term 2; current term 2
	cases := []struct {
		name    string
		args    requestVoteArgs
		granted bool
	}{
		{"stale term rejected",
			requestVoteArgs{Term: 1, Candidate: "sm://c", LastLogIndex: 10, LastLogTerm: 10}, false},
		{"up-to-date candidate granted",
			requestVoteArgs{Term: 3, Candidate: "sm://c", LastLogIndex: 3, LastLogTerm: 2}, true},
		{"longer log granted",
			requestVoteArgs{Term: 3, Candidate: "sm://c", LastLogIndex: 9, LastLogTerm: 2}, true},
		{"higher last term granted even if shorter",
			requestVoteArgs{Term: 3, Candidate: "sm://c", LastLogIndex: 1, LastLogTerm: 5}, true},
		{"shorter log same term rejected",
			requestVoteArgs{Term: 3, Candidate: "sm://c", LastLogIndex: 2, LastLogTerm: 2}, false},
		{"older last term rejected",
			requestVoteArgs{Term: 3, Candidate: "sm://c", LastLogIndex: 99, LastLogTerm: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ruleCore(t, NewMemoryStore(), base, 2)
			reply, err := c.RequestVote(lapsed, &tc.args)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Granted != tc.granted {
				t.Fatalf("granted = %v, want %v (reply term %d)", reply.Granted, tc.granted, reply.Term)
			}
		})
	}
}

// TestVoteOncePerTerm: a node grants at most one vote per term, but
// re-grants to the same candidate (needed for retried requests).
func TestVoteOncePerTerm(t *testing.T) {
	c := ruleCore(t, NewMemoryStore(), nil, 0)
	vote := func(a requestVoteArgs) bool {
		t.Helper()
		r, err := c.RequestVote(t0, &a)
		if err != nil {
			t.Fatal(err)
		}
		return r.Granted
	}
	a := requestVoteArgs{Term: 5, Candidate: "sm://alice"}
	if !vote(a) {
		t.Fatal("first vote denied")
	}
	if vote(requestVoteArgs{Term: 5, Candidate: "sm://bob", LastLogIndex: 9, LastLogTerm: 9}) {
		t.Fatal("second candidate granted in same term")
	}
	if !vote(a) {
		t.Fatal("retry by the voted-for candidate denied")
	}
	// A new term resets the vote.
	if !vote(requestVoteArgs{Term: 6, Candidate: "sm://bob", LastLogIndex: 9, LastLogTerm: 9}) {
		t.Fatal("vote in new term denied")
	}
}

// TestAppendEntriesRules drives AppendEntries through the log
// consistency table (§5.3).
func TestAppendEntriesRules(t *testing.T) {
	mk := func(t *testing.T) (*Core, *MemoryStore) {
		s := NewMemoryStore()
		return ruleCore(t, s, entriesUpTo(3, 2), 2), s
	}
	appendTo := func(t *testing.T, c *Core, s Store, a *appendEntriesArgs) (*appendEntriesReply, Effects) {
		t.Helper()
		r, eff, err := deliver(t, c, s, a)
		if err != nil {
			t.Fatal(err)
		}
		return r, eff
	}

	t.Run("stale term rejected", func(t *testing.T) {
		c, s := mk(t)
		if r, _ := appendTo(t, c, s, &appendEntriesArgs{Term: 1, Leader: "sm://l", PrevLogIndex: 3, PrevLogTerm: 2}); r.Success {
			t.Fatal("accepted stale leader")
		}
	})
	t.Run("matching prev accepts", func(t *testing.T) {
		c, s := mk(t)
		r, eff := appendTo(t, c, s, &appendEntriesArgs{
			Term: 2, Leader: "sm://l", PrevLogIndex: 3, PrevLogTerm: 2,
			Entries:      []LogEntry{{Index: 4, Term: 2, Type: EntryCommand, Data: []byte("x")}},
			LeaderCommit: 4,
		})
		if !r.Success {
			t.Fatal("rejected valid append")
		}
		if c.Status().CommitIndex != 4 {
			t.Fatalf("commit = %d", c.Status().CommitIndex)
		}
		if !eff.Apply {
			t.Fatal("commit advanced without an Apply effect")
		}
	})
	t.Run("gap returns conflict hint", func(t *testing.T) {
		c, s := mk(t)
		r, _ := appendTo(t, c, s, &appendEntriesArgs{Term: 2, Leader: "sm://l", PrevLogIndex: 9, PrevLogTerm: 2})
		if r.Success {
			t.Fatal("accepted gapped append")
		}
		if r.ConflictIndex != 4 {
			t.Fatalf("conflict hint = %d, want 4 (last+1)", r.ConflictIndex)
		}
	})
	t.Run("prev term mismatch hints at the term's first index", func(t *testing.T) {
		c, s := mk(t)
		r, _ := appendTo(t, c, s, &appendEntriesArgs{Term: 3, Leader: "sm://l", PrevLogIndex: 3, PrevLogTerm: 3})
		if r.Success || r.ConflictIndex != 1 {
			t.Fatalf("reply = %+v, want a conflict at 1 (term 2 starts there)", r)
		}
	})
	t.Run("term mismatch truncates on overwrite", func(t *testing.T) {
		c, s := mk(t)
		// Leader overwrites index 2 and 3 with a newer term.
		r, _ := appendTo(t, c, s, &appendEntriesArgs{
			Term: 3, Leader: "sm://l", PrevLogIndex: 1, PrevLogTerm: 2,
			Entries: []LogEntry{
				{Index: 2, Term: 3, Type: EntryCommand, Data: []byte("new2")},
				{Index: 3, Term: 3, Type: EntryCommand, Data: []byte("new3")},
			},
		})
		if !r.Success {
			t.Fatal("overwrite rejected")
		}
		e, err := s.Entry(3)
		if err != nil || e.Term != 3 || string(e.Data) != "new3" {
			t.Fatalf("entry 3 = %+v, %v", e, err)
		}
	})
	t.Run("duplicate append is idempotent", func(t *testing.T) {
		c, s := mk(t)
		args := &appendEntriesArgs{
			Term: 2, Leader: "sm://l", PrevLogIndex: 2, PrevLogTerm: 2,
			Entries: []LogEntry{{Index: 3, Term: 2, Type: EntryCommand, Data: []byte{2}}},
		}
		for i := 0; i < 2; i++ {
			if r, _ := appendTo(t, c, s, args); !r.Success {
				t.Fatal("idempotent append failed")
			}
		}
		if s.LastIndex() != 3 {
			t.Fatalf("last = %d", s.LastIndex())
		}
	})
	t.Run("append makes follower adopt leader", func(t *testing.T) {
		c, s := mk(t)
		appendTo(t, c, s, &appendEntriesArgs{Term: 4, Leader: "sm://new-leader", PrevLogIndex: 3, PrevLogTerm: 2})
		st := c.Status()
		if st.Leader != "sm://new-leader" || st.Term != 4 || st.Role != Follower {
			t.Fatalf("status = %+v", st)
		}
	})
}

// stateFailStore fails SetState on demand; what it holds is what a
// restart would find.
type stateFailStore struct {
	*MemoryStore
	fail bool
}

func (s *stateFailStore) SetState(term uint64, votedFor string) error {
	if s.fail {
		return errors.New("injected meta.bin write failure")
	}
	return s.MemoryStore.SetState(term, votedFor)
}

// TestNoGrantWithoutPersistedVote: a member whose term/vote write fails
// must not answer at all — not grant, not acknowledge an append, not
// report a term it could not record — or after a restart it may vote
// twice in one term. Each case checks the step sent nothing and that
// memory still mirrors the store.
func TestNoGrantWithoutPersistedVote(t *testing.T) {
	// check looks at a step whose answer was (replied, err); log traffic
	// is answered through an Ack instead, which check then finds itself.
	check := func(t *testing.T, c *Core, s *stateFailStore, replied bool, err error) {
		t.Helper()
		eff := c.Take()
		if len(eff.Acks) == 1 {
			replied, err = eff.Acks[0].Reply != nil, eff.Acks[0].Err
		}
		if err == nil || replied {
			t.Fatalf("replied = %v, err = %v; want no reply and an error", replied, err)
		}
		if len(eff.Msgs) != 0 || len(eff.Persist) != 0 {
			t.Fatalf("step sent %d messages and %d writes after a failed SetState", len(eff.Msgs), len(eff.Persist))
		}
		if eff.StoreErrors != 1 {
			t.Fatalf("StoreErrors = %d, want 1", eff.StoreErrors)
		}
		term, voted, _ := s.State()
		st := c.Status()
		if st.Term != term || c.votedFor != voted || st.Role != Follower {
			t.Fatalf("core at term %d voted %q role %v; store holds term %d voted %q", st.Term, c.votedFor, st.Role, term, voted)
		}
	}
	mk := func(t *testing.T) (*Core, *stateFailStore) {
		s := &stateFailStore{MemoryStore: NewMemoryStore()}
		c := ruleCore(t, s, entriesUpTo(3, 2), 2)
		s.fail = true
		return c, s
	}
	t.Run("vote", func(t *testing.T) {
		c, s := mk(t)
		a := requestVoteArgs{Term: 3, Candidate: "sm://alice", LastLogIndex: 3, LastLogTerm: 2}
		r, err := c.RequestVote(lapsed, &a)
		check(t, c, s, r != nil, err)
		// The disk recovers; a different candidate of the same term asks.
		// Nothing was promised to alice, so bob may have the vote — and
		// alice, asking again, may not.
		s.fail = false
		b := requestVoteArgs{Term: 3, Candidate: "sm://bob", LastLogIndex: 3, LastLogTerm: 2}
		if r, err := c.RequestVote(lapsed, &b); err != nil || !r.Granted {
			t.Fatalf("bob: %+v, %v", r, err)
		}
		if r, err := c.RequestVote(lapsed, &a); err != nil || r.Granted {
			t.Fatalf("alice got a second vote in term 3: %+v, %v", r, err)
		}
	})
	t.Run("vote in the current term", func(t *testing.T) {
		c, s := mk(t)
		r, err := c.RequestVote(lapsed, &requestVoteArgs{Term: 2, Candidate: "sm://alice", LastLogIndex: 3, LastLogTerm: 2})
		check(t, c, s, r != nil, err)
	})
	t.Run("append entries", func(t *testing.T) {
		c, s := mk(t)
		c.AppendEntries(t0, &appendEntriesArgs{
			Term: 3, Leader: "sm://l", PrevLogIndex: 3, PrevLogTerm: 2,
			Entries: []LogEntry{{Index: 4, Term: 3, Type: EntryCommand}},
		}, 1)
		check(t, c, s, true, nil)
		if c.lastIndex() != 3 {
			t.Fatal("entries of an unrecorded term were appended")
		}
	})
	t.Run("install snapshot", func(t *testing.T) {
		c, s := mk(t)
		c.InstallSnapshot(t0, &installSnapshotArgs{Term: 3, Leader: "sm://l", LastIndex: 9, LastTerm: 2}, 1)
		check(t, c, s, true, nil)
	})
	t.Run("higher term in a reply", func(t *testing.T) {
		s := &stateFailStore{MemoryStore: NewMemoryStore()}
		c := ruleCore(t, s, nil, 0)
		elect(t, c)
		msgs := c.Take().Msgs
		s.fail = true
		c.AppendReply(t0, msgs[0], &appendEntriesReply{Term: 7})
		eff := c.Take()
		if st := c.Status(); st.Role != Follower || st.Term != 1 || eff.StoreErrors != 1 || len(eff.Msgs) != 0 {
			t.Fatalf("status %+v, effects %+v: want a silent follower still in term 1", st, eff)
		}
	})
	t.Run("campaign", func(t *testing.T) {
		c, s := mk(t)
		c.Tick(c.Deadline())
		eff := c.Take()
		if st := c.Status(); st.Role != Follower || st.Term != 2 || len(eff.Msgs) != 0 || eff.StoreErrors != 1 {
			t.Fatalf("status %+v, effects %+v: a candidacy that was not recorded must not be announced", st, eff)
		}
		s.fail = false
		c.Tick(c.Deadline())
		if st := c.Status(); st.Role != Candidate || st.Term != 3 || len(c.Take().Msgs) != 2 {
			t.Fatalf("after recovery: %+v", st)
		}
	})
}

// TestTruncatedConfigEntryRevertsMembership: membership is the latest
// config entry in the log, so when a new leader's conflicting entries
// truncate an uncommitted one, the old peer set is back.
func TestTruncatedConfigEntryRevertsMembership(t *testing.T) {
	four := append(append([]string(nil), rulePeers...), "sm://peer-c")
	two := []string{ruleSelf, "sm://peer-a"}
	cases := []struct {
		name string
		// overwrite is what the term-3 leader sends; the config entry
		// under test is at index 3.
		overwrite    []LogEntry
		wantPeers    []string
		wantPending  uint64
		wantLastTerm uint64
	}{
		{"conflict at the config entry",
			[]LogEntry{{Index: 3, Term: 3, Type: EntryCommand, Data: []byte("x")}},
			rulePeers, 0, 3},
		{"conflict replaces it with another config",
			[]LogEntry{configEntry(t, 3, 3, two...)},
			two, 3, 3},
		{"conflict after the config entry keeps it",
			[]LogEntry{{Index: 4, Term: 3, Type: EntryCommand, Data: []byte("y")}},
			four, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewMemoryStore()
			c := ruleCore(t, s, entriesUpTo(2, 2), 2)
			// The term-2 leader replicates "add peer-c" at 3 and one more
			// command at 4; nothing past 2 is committed.
			r, _, err := deliver(t, c, s, &appendEntriesArgs{
				Term: 2, Leader: "sm://peer-a", PrevLogIndex: 2, PrevLogTerm: 2, LeaderCommit: 2,
				Entries: []LogEntry{configEntry(t, 3, 2, four...), {Index: 4, Term: 2, Type: EntryCommand}},
			})
			if err != nil || !r.Success {
				t.Fatalf("append: %+v, %v", r, err)
			}
			if got := c.Status().Peers; !reflect.DeepEqual(got, four) || c.pendingConfig() != 3 {
				t.Fatalf("after the config entry: peers %v pending %d", got, c.pendingConfig())
			}
			// A term-3 leader that never saw it overwrites the suffix.
			prev := tc.overwrite[0].Index - 1
			r, _, err = deliver(t, c, s, &appendEntriesArgs{
				Term: 3, Leader: "sm://peer-b", PrevLogIndex: prev, PrevLogTerm: 2, LeaderCommit: 2,
				Entries: tc.overwrite,
			})
			if err != nil || !r.Success {
				t.Fatalf("overwrite: %+v, %v", r, err)
			}
			if got := c.Status().Peers; !reflect.DeepEqual(got, tc.wantPeers) {
				t.Fatalf("peers = %v, want %v", got, tc.wantPeers)
			}
			if c.pendingConfig() != tc.wantPending {
				t.Fatalf("pendingConfig = %d, want %d", c.pendingConfig(), tc.wantPending)
			}
			if lt, _ := s.Term(s.LastIndex()); lt != tc.wantLastTerm {
				t.Fatalf("last term = %d", lt)
			}
		})
	}
}

// TestPersistIsAnEffect pins the durability contract on the leader: a
// proposal's Persist and the AppendEntries carrying the same entries
// leave in the same step; the leader counts itself only through
// Persisted, a follower that answers first is counted first; and every
// proposal is appended on arrival, whatever is still on its way to the
// disk.
func TestPersistIsAnEffect(t *testing.T) {
	s := NewMemoryStore()
	c := ruleCore(t, s, nil, 0)
	elect(t, c)
	eff := c.Take()
	if len(eff.Persist) != 1 || len(eff.Persist[0].Entries) != 1 || eff.Persist[0].Entries[0].Type != EntryNoop || len(eff.Msgs) != 2 {
		t.Fatalf("election: %+v, want the no-op as one Persist next to an AppendEntries per peer", eff)
	}
	if s.LastIndex() != 0 {
		t.Fatal("the core wrote the log itself")
	}
	noop := eff.Persist[0]
	// One follower has the no-op on disk, the leader does not: no quorum.
	var fromB Message
	for _, m := range eff.Msgs {
		if m.To == "sm://peer-b" {
			fromB = m
		} else {
			c.AppendReply(t0, m, &appendEntriesReply{Term: 1, Success: true})
		}
	}
	if c.Status().CommitIndex != 0 {
		t.Fatal("the leader counted its own copy before Persisted")
	}
	// Proposals arrive meanwhile: each is appended and shipped at once.
	at := []uint64{
		c.Propose(t0, []byte("a"), "a", time.Time{}),
		c.Propose(t0, []byte("b"), "b", time.Time{}),
		c.Propose(t0, []byte("c"), "c", time.Time{}),
	}
	eff = c.Take()
	if !reflect.DeepEqual(at, []uint64{2, 3, 4}) || len(eff.Done) != 0 || len(eff.Persist) != 3 {
		t.Fatalf("proposals at %v: %+v, want a, b and c at 2, 3 and 4, a Persist for each and no answer yet", at, eff)
	}
	if got := eff.Persist[2].Entries; len(got) != 1 || got[0].Index != 4 || string(got[0].Data) != "c" {
		t.Fatalf("third Persist = %+v", got)
	}
	// peer-a was idle, so a's entry went out with its Persist; peer-b
	// still owes the no-op's reply and gets everything after it.
	if len(eff.Msgs) != 1 || eff.Msgs[0].To != "sm://peer-a" || len(eff.Msgs[0].Append.Entries) != 1 {
		t.Fatalf("messages = %+v, want a alone to peer-a", eff.Msgs)
	}
	// The leader's disk reports the no-op: with peer-a that is a quorum.
	if err := noop.writeTo(s); err != nil {
		t.Fatal(err)
	}
	c.Persisted(t0, noop.Seq, nil)
	if c.Status().CommitIndex != 1 {
		t.Fatalf("commit = %d after Persisted", c.Status().CommitIndex)
	}
	c.Take()
	// Both followers hold 2..4 before the leader's own disk does: a
	// quorum without the leader.
	c.AppendReply(t0, fromB, &appendEntriesReply{Term: 1, Success: true})
	for pending := append(eff.Msgs, c.Take().Msgs...); len(pending) > 0; {
		pending = ackAll(c, pending)
	}
	if c.Status().CommitIndex != 4 {
		t.Fatalf("commit = %d, want 4 on the followers' word alone", c.Status().CommitIndex)
	}
	if c.persisted != 1 || c.lastIndex() != 4 {
		t.Fatalf("persisted %d last %d", c.persisted, c.lastIndex())
	}
	// The store catches up; the core now reads those entries from it.
	for _, p := range eff.Persist {
		if err := p.writeTo(s); err != nil {
			t.Fatal(err)
		}
	}
	c.Persisted(t0, eff.Persist[2].Seq, nil)
	if c.persisted != 4 || len(c.tail) != 0 {
		t.Fatalf("persisted %d, %d entries still in the tail", c.persisted, len(c.tail))
	}
	if es, err := c.entries(1, 4); err != nil || len(es) != 4 || string(es[3].Data) != "c" {
		t.Fatalf("log read back through the store: %+v, %v", es, err)
	}
}

// TestFollowerAcksWhatIsDurable pins the contract on the follower: the
// success reply for match m leaves when the log is durable through m —
// a heartbeat acknowledging a suffix still on its way waits with it —
// while refusals and ReadIndex probes never wait; a conflict refuses the
// replies held for the suffix it removes and makes what was durable
// there not count; and a failed Persist refuses everything held and
// forgets the entries.
func TestFollowerAcksWhatIsDurable(t *testing.T) {
	const leader = "sm://peer-a"
	s := NewMemoryStore()
	c := ruleCore(t, s, entriesUpTo(3, 2), 2)
	tags := func(eff Effects) (ok, refused []int) {
		for _, a := range eff.Acks {
			if a.Reply != nil && a.Reply.Success {
				ok = append(ok, a.Tag.(int))
			} else {
				refused = append(refused, a.Tag.(int))
			}
		}
		return
	}
	c.AppendEntries(t0, &appendEntriesArgs{Term: 2, Leader: leader, PrevLogIndex: 3, PrevLogTerm: 2,
		Entries: []LogEntry{{Index: 4, Term: 2}, {Index: 5, Term: 2}, {Index: 6, Term: 2}}}, 1)
	c.AppendEntries(t0, &appendEntriesArgs{Term: 2, Leader: leader, PrevLogIndex: 6, PrevLogTerm: 2}, 2) // heartbeat over the suffix
	c.AppendEntries(t0, &appendEntriesArgs{Term: 2, Leader: leader}, 3)                                  // ReadIndex probe
	c.AppendEntries(t0, &appendEntriesArgs{Term: 2, Leader: leader, PrevLogIndex: 9, PrevLogTerm: 2}, 4) // gap
	c.AppendEntries(t0, &appendEntriesArgs{Term: 2, Leader: leader, PrevLogIndex: 2, PrevLogTerm: 2}, 5) // durable already
	eff := c.Take()
	ok, refused := tags(eff)
	if !reflect.DeepEqual(ok, []int{3, 5}) || !reflect.DeepEqual(refused, []int{4}) || len(eff.Persist) != 1 {
		t.Fatalf("before the disk: acked %v refused %v, %d writes; want 3 and 5 acked, 4 refused, 1 and 2 held", ok, refused, len(eff.Persist))
	}
	first := eff.Persist[0]

	// A newer leader's entries conflict at 5 while 4..6 are in flight.
	c.AppendEntries(t0, &appendEntriesArgs{Term: 3, Leader: "sm://peer-b", PrevLogIndex: 4, PrevLogTerm: 2,
		Entries: []LogEntry{{Index: 5, Term: 3}}}, 6)
	eff = c.Take()
	// Tags 1 and 2 were going to acknowledge index 6, which is gone.
	if ok, refused = tags(eff); len(ok) != 0 || !reflect.DeepEqual(refused, []int{1, 2}) {
		t.Fatalf("conflict: acked %v refused %v; want the replies for the removed suffix refused", ok, refused)
	}
	if len(eff.Persist) != 1 || eff.Persist[0].Entries[0].Index != 5 || c.lastIndex() != 5 {
		t.Fatalf("conflict: %+v, last %d", eff, c.lastIndex())
	}
	second := eff.Persist[0]
	// The first write lands: it made 4..6 durable, but 5 and 6 are no
	// longer this log.
	if err := first.writeTo(s); err != nil {
		t.Fatal(err)
	}
	c.Persisted(t0, first.Seq, nil)
	if eff = c.Take(); c.persisted != 4 || len(eff.Acks) != 0 {
		t.Fatalf("persisted = %d, acks %+v: a truncated suffix was counted", c.persisted, eff.Acks)
	}
	if err := second.writeTo(s); err != nil {
		t.Fatal(err)
	}
	c.Persisted(t0, second.Seq, nil)
	if ok, refused = tags(c.Take()); !reflect.DeepEqual(ok, []int{6}) || len(refused) != 0 {
		t.Fatalf("after the disk: acked %v refused %v; want 6 acked", ok, refused)
	}
	if e, err := s.Entry(5); err != nil || e.Term != 3 || s.LastIndex() != 5 {
		t.Fatalf("store after the conflict: %+v, %v, last %d", e, err, s.LastIndex())
	}

	// A write fails: what it held is refused and forgotten, and the next
	// request is pointed at the end of what is left.
	c.AppendEntries(t0, &appendEntriesArgs{Term: 3, Leader: "sm://peer-b", PrevLogIndex: 5, PrevLogTerm: 3,
		Entries: []LogEntry{{Index: 6, Term: 3}, {Index: 7, Term: 3}}}, 7)
	eff = c.Take()
	c.Persisted(t0, eff.Persist[0].Seq, errors.New("disk full"))
	eff = c.Take()
	if _, refused = tags(eff); !reflect.DeepEqual(refused, []int{7}) || eff.Acks[0].Reply.ConflictIndex != 6 || eff.StoreErrors != 1 || c.lastIndex() != 5 {
		t.Fatalf("failed write: %+v, last %d", eff, c.lastIndex())
	}
}

// TestLeaderPersistFailureDemotes: a leader whose disk fails stops
// leading, forgets what the failed write and every later one held, and
// whoever waits there learns the store's error.
func TestLeaderPersistFailureDemotes(t *testing.T) {
	s := NewMemoryStore()
	c := ruleCore(t, s, nil, 0)
	elect(t, c)
	settle(t, c, s)
	for tag := 1; tag <= 3; tag++ {
		c.Propose(t0, nil, tag, time.Time{})
	}
	eff := c.Take()
	if len(eff.Persist) != 3 || c.lastIndex() != 4 {
		t.Fatalf("effects %+v, last %d", eff, c.lastIndex())
	}
	c.Persisted(t0, eff.Persist[0].Seq, errors.New("injected disk failure"))
	eff = c.Take()
	if c.IsLeader() || eff.StoreErrors != 1 || len(eff.Done) != 3 || c.lastIndex() != 1 || c.outstanding() != 0 {
		t.Fatalf("leader=%v last=%d effects=%+v", c.IsLeader(), c.lastIndex(), eff)
	}
	for i, d := range eff.Done {
		if d.Tag != i+1 || !strings.Contains(d.Err.Error(), "injected disk failure") {
			t.Fatalf("answer %d = %+v: the store's error was swallowed", i, d)
		}
	}
	c.Propose(t0, nil, 4, time.Time{})
	if eff = c.Take(); len(eff.Done) != 1 || !errors.Is(eff.Done[0].Err, ErrNoLeader) {
		t.Fatalf("a deposed leader took a proposal: %+v", eff)
	}
}

// TestReadIndexRounds pins the bookkeeping of the path a read takes when
// the leader has no valid lease (every read below arrives after the last
// one has lapsed): a read that arrives while a round is in flight does
// not ride it; every read waiting when a round starts shares it; the
// probe is a message of its own; a round confirms only with a quorum in
// the current term, fails without one and resolves only once its read
// index is applied. Two rows that used to be here describe what the lease
// now does and moved to TestLeaseRules: reads parked before the term's
// first commit (confirmed by the acknowledgements that commit it, no
// probe), and "the next round starts the moment this one is confirmed"
// (a confirmed round's acknowledgements re-arm the lease, and whoever
// waited is confirmed under it).
func TestReadIndexRounds(t *testing.T) {
	c := ruleCore(t, NewMemoryStore(), nil, 0)
	elect(t, c)
	ackAll(c, c.Take().Msgs) // the no-op commits; what the lease rests on is of t0
	now := lapsed
	read := func(tag string) { c.Read(now, tag, time.Time{}) }
	// probes returns the ReadIndex probes among msgs, which must all
	// belong to one round, and that round.
	probes := func(msgs []Message) (round []Message, id uint64) {
		for _, m := range msgs {
			if m.Round != 0 {
				if (id != 0 && m.Round != id) || len(m.Append.Entries) != 0 || m.Append.LeaderCommit != 0 || !m.Sent.Equal(now) {
					t.Fatalf("probe = %+v", m)
				}
				round, id = append(round, m), m.Round
			}
		}
		return round, id
	}
	// The lease has lapsed: a read starts a round, one probe per peer.
	read("a")
	round, r1 := probes(c.Take().Msgs)
	if len(round) != 2 {
		t.Fatalf("%d probes, want one per peer", len(round))
	}
	// Reads arriving now must not ride the round in flight.
	read("b")
	read("c")
	if late, _ := probes(c.Take().Msgs); len(late) != 0 {
		t.Fatal("a late read started a round beside the one in flight")
	}
	// No quorum within ElectionTimeoutMin: the round fails, and the next
	// one starts with every read that was waiting.
	now = now.Add(c.cfg.ElectionTimeoutMin)
	c.Tick(now)
	eff := c.Take()
	if len(eff.Reads) != 1 || !reflect.DeepEqual(eff.Reads[0].Tags, []interface{}{"a"}) || !errors.Is(eff.Reads[0].Err, ErrTimeout) || eff.Reads[0].Round != r1 {
		t.Fatalf("reads = %+v, want a's round timed out", eff.Reads)
	}
	round, r2 := probes(eff.Msgs)
	if len(round) != 2 || r2 == r1 {
		t.Fatalf("round %d did not start after round %d: %+v", r2, r1, eff.Msgs)
	}
	// One ack is a quorum of three, but index 1 is not applied yet.
	c.AppendReply(now, round[0], &appendEntriesReply{Term: 1})
	if eff := c.Take(); len(eff.Reads) != 0 || len(eff.Msgs) != 0 {
		t.Fatalf("round resolved before its read index was applied: %+v", eff)
	}
	c.Applied(1)
	if eff := c.Take(); !reflect.DeepEqual(eff.Reads, []ReadRound{{Tags: []interface{}{"b", "c"}, Round: r2}}) {
		t.Fatalf("reads = %+v, want b and c with round %d", eff.Reads, r2)
	}
	// A stale ack for round 2 does not confirm round 3.
	now = now.Add(c.cfg.ElectionTimeoutMin)
	read("d")
	if next, r3 := probes(c.Take().Msgs); len(next) != 2 || r3 == r2 {
		t.Fatalf("round %d after round %d: %+v", r3, r2, next)
	}
	c.AppendReply(now, round[1], &appendEntriesReply{Term: 1})
	if len(c.Take().Reads) != 0 {
		t.Fatal("an ack for an earlier round confirmed a later one")
	}
	now = now.Add(c.cfg.ElectionTimeoutMin)
	c.Tick(now)
	c.Take()
	// A probe reply from a higher term deposes the leader and fails the
	// round with it.
	read("e")
	probe, _ := probes(c.Take().Msgs)
	c.AppendReply(now, probe[0], &appendEntriesReply{Term: 9})
	if eff := c.Take(); c.IsLeader() || len(eff.Reads) != 1 || eff.Reads[0].Err == nil {
		t.Fatalf("leader=%v reads=%+v", c.IsLeader(), eff.Reads)
	}
	read("f")
	if eff := c.Take(); len(eff.Done) != 1 || eff.Done[0].Tag != "f" || !errors.Is(eff.Done[0].Err, ErrNoLeader) || c.outstanding() != 0 {
		t.Fatalf("read on a follower: %+v", eff.Done)
	}
}

// TestLeaseRules: what makes a leader's lease valid, and what keeps it
// safe. The leader rows start from a three-member leader of term 1 whose
// no-op both followers acknowledged at t0: its lease runs 7/8 of
// ElectionTimeoutMin from there.
func TestLeaseRules(t *testing.T) {
	never := time.Time{}
	etmin := Config{}.withDefaults().ElectionTimeoutMin
	span := etmin - etmin/8
	leading := func(t *testing.T) *Core {
		c := ruleCore(t, NewMemoryStore(), nil, 0)
		elect(t, c)
		ackAll(c, c.Take().Msgs)
		c.Applied(1)
		c.Take()
		return c
	}
	// following returns a member that accepted peer-a as leader of term 1
	// at t0.
	following := func(t *testing.T) *Core {
		s := NewMemoryStore()
		c := ruleCore(t, s, nil, 0)
		if _, _, err := deliver(t, c, s, &appendEntriesArgs{Term: 1, Leader: "sm://peer-a"}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// served reports how a read at now came out: in that step under the
	// lease, or waiting for the round it made the leader probe for.
	served := func(t *testing.T, c *Core, now time.Time) (lease bool, probes []Message) {
		t.Helper()
		c.Read(now, "r", never)
		eff := c.Take()
		for _, m := range eff.Msgs {
			if m.Round != 0 {
				probes = append(probes, m)
			}
		}
		lease = len(eff.Reads) == 1 && reflect.DeepEqual(eff.Reads[0], ReadRound{Tags: []interface{}{"r"}})
		if lease == (len(probes) > 0) {
			t.Fatalf("a read at +%v: reads %+v, %d probes; want it served in the step or probed for", now.Sub(t0), eff.Reads, len(probes))
		}
		return lease, probes
	}
	vote := func(t *testing.T, c *Core, now time.Time, a requestVoteArgs) *requestVoteReply {
		t.Helper()
		r, err := c.RequestVote(now, &a)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	withheld := func(c *Core, r *requestVoteReply, term uint64, leader string) bool {
		return !r.Granted && r.Term == term && c.term == term && c.leader == leader
	}
	candidate := requestVoteArgs{Term: 5, Candidate: "sm://peer-b", LastLogIndex: 9, LastLogTerm: 4}

	t.Run("a read inside the lease is served in its own step, no message", func(t *testing.T) {
		c := leading(t)
		if lease, _ := served(t, c, t0.Add(span-1)); !lease {
			t.Fatal("probed inside the lease")
		}
		if lease, _ := served(t, c, t0.Add(span)); lease {
			t.Fatal("served under a lease that had run out")
		}
	})
	t.Run("reads parked before the term's first commit ride the acknowledgements that commit it", func(t *testing.T) {
		c := ruleCore(t, NewMemoryStore(), nil, 0)
		elect(t, c)
		c.Read(t0, "a", never)
		c.Read(t0, "b", never)
		eff := c.Take()
		if len(eff.Reads) != 0 || len(c.forming) != 2 {
			t.Fatalf("before the no-op committed: %+v, %d forming", eff.Reads, len(c.forming))
		}
		for _, m := range ackAll(c, eff.Msgs) {
			if m.Round != 0 {
				t.Fatalf("probe %+v although the no-op's acknowledgements are a lease", m)
			}
		}
		c.Applied(1)
		if eff := c.Take(); !reflect.DeepEqual(eff.Reads, []ReadRound{{Tags: []interface{}{"a", "b"}}}) {
			t.Fatalf("reads = %+v, want a and b once index 1 is applied", eff.Reads)
		}
	})
	t.Run("a lapsed lease: the next read starts a round, whose acknowledgements re-arm it", func(t *testing.T) {
		c := leading(t)
		_, probes := served(t, c, lapsed)
		if len(probes) != 2 {
			t.Fatalf("%d probes, want one per peer", len(probes))
		}
		c.Read(lapsed, "w", never) // waits out the round in flight
		c.AppendReply(lapsed.Add(time.Millisecond), probes[0], &appendEntriesReply{Term: 1})
		want := []ReadRound{{Tags: []interface{}{"r"}, Round: probes[0].Round}, {Tags: []interface{}{"w"}}}
		if eff := c.Take(); !reflect.DeepEqual(eff.Reads, want) || len(eff.Msgs) != 0 {
			t.Fatalf("effects = %+v, want the round confirmed and w under the lease it re-armed, no second round", eff)
		}
		if lease, _ := served(t, c, lapsed.Add(span-1)); !lease {
			t.Fatal("the round's acknowledgement did not renew the lease")
		}
	})
	t.Run("the lease starts when the acknowledged message was sent, not when its reply came", func(t *testing.T) {
		c := leading(t)
		sent := t0.Add(c.cfg.HeartbeatInterval)
		c.Tick(sent)
		beats := c.Take().Msgs
		if len(beats) != 2 || !beats[0].Sent.Equal(sent) {
			t.Fatalf("heartbeats = %+v, want two stamped %v", beats, sent.Sub(t0))
		}
		// Emitted, or even sent, renews nothing: only an answer does.
		if lease, _ := served(t, c, t0.Add(span)); lease {
			t.Fatal("an unanswered heartbeat renewed the lease")
		}
		c.Tick(lapsed.Add(etmin)) // that read's round fails; the stage is clear
		c.Take()
		late := sent.Add(100 * time.Millisecond)
		c.AppendReply(late, beats[0], &appendEntriesReply{Term: 1, Success: true})
		c.Take()
		if lease, _ := served(t, c, sent.Add(span-1)); !lease {
			t.Fatal("a late reply renewed nothing")
		}
		if lease, _ := served(t, c, sent.Add(span)); lease {
			t.Fatalf("the lease outlived %v from the send: it was counted from the reply", span)
		}
		// A duplicate of an older reply does not move the stamp back.
		c.Tick(lapsed.Add(2 * etmin))
		c.Take()
		c.AppendReply(late, Message{To: beats[0].To, Append: beats[0].Append, Sent: t0}, &appendEntriesReply{Term: 1, Success: true})
		if got := c.prog[beats[0].To].acked; !got.Equal(sent) {
			t.Fatalf("stamp = +%v after an older reply's duplicate, want +%v", got.Sub(t0), sent.Sub(t0))
		}
	})
	t.Run("a refusal counts, a reply to another term's message does not", func(t *testing.T) {
		c := leading(t)
		at := lapsed.Add(time.Second)
		c.AppendReply(at, Message{To: "sm://peer-a", Append: &appendEntriesArgs{Term: 0}, Sent: at}, &appendEntriesReply{Term: 1, Success: true})
		if lease, _ := served(t, c, at); lease {
			t.Fatal("a reply to a message of an earlier term renewed the lease")
		}
		c.Tick(at.Add(etmin))
		c.Take()
		at = at.Add(time.Second)
		c.AppendReply(at, Message{To: "sm://peer-a", Append: &appendEntriesArgs{Term: 1, PrevLogIndex: 7}, Sent: at}, &appendEntriesReply{Term: 1, ConflictIndex: 2})
		c.Take()
		if lease, _ := served(t, c, at); !lease {
			t.Fatal("a refusal in this term did not count: the follower reset its timer all the same")
		}
	})
	t.Run("the quorum is the configuration's from the step that appends the change", func(t *testing.T) {
		c := leading(t)
		c.prog["sm://peer-b"].acked = time.Time{} // only peer-a has answered: 2 of 3
		if lease, _ := served(t, c, t0); !lease {
			t.Fatal("no lease on two of three")
		}
		if c.ChangeConfig(t0, "sm://peer-c", false, nil, never) == 0 {
			t.Fatal("the leader refused to add a member")
		}
		c.Take()
		_, probes := served(t, c, t0)
		if len(probes) != 3 {
			t.Fatalf("%d probes, want 3: two stamps are no quorum of four", len(probes))
		}
		c.AppendReply(t0, Message{To: "sm://peer-b", Append: &appendEntriesArgs{Term: 1}, Sent: t0}, &appendEntriesReply{Term: 1})
		c.round, c.forming = readRound{}, nil
		c.Take()
		if lease, _ := served(t, c, t0); !lease {
			t.Fatal("no lease on three of four")
		}
	})
	t.Run("a leader that started a transfer confirms by rounds for the rest of its term", func(t *testing.T) {
		c := leading(t)
		c.Transfer()
		if msgs := c.Take().Msgs; len(msgs) != 1 || msgs[0].TimeoutNow == nil {
			t.Fatalf("transfer sent %+v", msgs)
		}
		if lease, _ := served(t, c, t0); lease {
			t.Fatal("served under the lease its successor's voters no longer honour")
		}
	})
	t.Run("a voter withholds for ElectionTimeoutMin after it accepted a leader", func(t *testing.T) {
		c := following(t)
		if r := vote(t, c, t0.Add(etmin-1), candidate); !withheld(c, r, 1, "sm://peer-a") {
			t.Fatalf("reply %+v, member at term %d following %q: want a refusal in term 1 and nothing adopted", r, c.term, c.leader)
		}
		// Left alone it campaigns past the term it was asked in: the one who
		// asked voted for itself there.
		c.Tick(c.Deadline())
		if msgs := c.Take().Msgs; c.term != 6 || len(msgs) != 2 || msgs[0].Vote.Term != 6 {
			t.Fatalf("campaign in term %d after withholding in term 5: %+v", c.term, msgs)
		}
		c = following(t)
		if r := vote(t, c, lapsed, candidate); !r.Granted || r.Term != 5 {
			t.Fatalf("reply %+v once the promise ran out", r)
		}
	})
	t.Run("a leader withholds while its lease is valid", func(t *testing.T) {
		c := leading(t)
		if r := vote(t, c, t0.Add(span-1), candidate); !withheld(c, r, 1, ruleSelf) || !c.IsLeader() {
			t.Fatalf("reply %+v, leader=%v at term %d", r, c.IsLeader(), c.term)
		}
		if r := vote(t, c, t0.Add(span), candidate); !r.Granted || c.IsLeader() {
			t.Fatalf("reply %+v, leader=%v once the lease ran out", r, c.IsLeader())
		}
	})
	t.Run("a member that never had a leader withholds nothing", func(t *testing.T) {
		c := ruleCore(t, NewMemoryStore(), nil, 0)
		if r := vote(t, c, t0, candidate); !r.Granted {
			t.Fatalf("reply %+v at a cold start", r)
		}
	})
	t.Run("a restart remembers nothing, so boot counts as a contact", func(t *testing.T) {
		c := ruleCore(t, NewMemoryStore(), entriesUpTo(3, 2), 2)
		if r := vote(t, c, t0.Add(etmin-1), candidate); !withheld(c, r, 2, "") {
			t.Fatalf("reply %+v, term %d: a member that may have promised a leader its patience granted", r, c.term)
		}
		if r := vote(t, c, lapsed, candidate); !r.Granted {
			t.Fatalf("reply %+v an election timeout after boot", r)
		}
	})
	t.Run("the campaign a departing leader asked for is not withheld from, and says so", func(t *testing.T) {
		c := following(t)
		asked := candidate
		asked.Transfer = true
		if r := vote(t, c, t0, asked); !r.Granted || r.Term != 5 {
			t.Fatalf("reply %+v to a transfer's candidate", r)
		}
		transfers := func(msgs []Message) (n int) {
			for _, m := range msgs {
				if m.Vote != nil && m.Vote.Transfer {
					n++
				}
			}
			return n
		}
		f := following(t)
		f.TimeoutNow(t0, &timeoutNowArgs{appendEntriesArgs{Term: 1, Leader: "sm://peer-a"}})
		if msgs := f.Take().Msgs; len(msgs) != 2 || transfers(msgs) != 2 {
			t.Fatalf("after TimeoutNow: %+v, want two vote requests marked Transfer", msgs)
		}
		f.Tick(f.Deadline())
		if msgs := f.Take().Msgs; len(msgs) != 2 || transfers(msgs) != 0 {
			t.Fatalf("after a timeout: %+v, want two vote requests not marked", msgs)
		}
	})
}

// TestRestoreThenApplyOrder: a state machine behind the log's first
// index is asked to restore before it is handed any entry, and the run
// that follows starts right after the snapshot.
func TestRestoreThenApplyOrder(t *testing.T) {
	s := NewMemoryStore()
	c := ruleCore(t, s, entriesUpTo(3, 2), 2)
	if _, _, err := deliver(t, c, s, &appendEntriesArgs{Term: 2, Leader: "sm://l", PrevLogIndex: 3, PrevLogTerm: 2, LeaderCommit: 2}); err != nil {
		t.Fatal(err)
	}
	run, ok := c.NextApply()
	if !ok || run.Restore || run.Index != 2 {
		t.Fatalf("first task = %+v", run)
	}
	// While that run is with the FSM, the leader installs a snapshot at
	// 10.
	snap := snapshotEnvelope{Peers: rulePeers, FSM: []byte("state@10")}
	c.InstallSnapshot(t0, &installSnapshotArgs{Term: 2, Leader: "sm://l", LastIndex: 10, LastTerm: 2, Data: codec.Marshal(&snap)}, 2)
	eff := c.Take()
	if len(eff.Acks) != 0 || len(eff.Persist) != 1 || eff.Persist[0].Snapshot == nil {
		t.Fatalf("install: %+v, want the snapshot on its way to the disk and no answer yet", eff)
	}
	if err := eff.Persist[0].writeTo(s); err != nil {
		t.Fatal(err)
	}
	c.Persisted(t0, eff.Persist[0].Seq, nil)
	if eff = c.Take(); len(eff.Acks) != 1 || !eff.Acks[0].Reply.Success {
		t.Fatalf("install, once durable: %+v", eff.Acks)
	}
	c.Applied(run.Index)
	task, ok := c.NextApply()
	if !ok || !task.Restore || task.Index != 10 || string(task.Snapshot) != "state@10" {
		t.Fatalf("task after install = %+v, want a restore at 10", task)
	}
	c.Applied(task.Index)
	if _, ok := c.NextApply(); ok {
		t.Fatal("work left after the restore")
	}
	if _, _, err := deliver(t, c, s, &appendEntriesArgs{
		Term: 2, Leader: "sm://l", PrevLogIndex: 10, PrevLogTerm: 2, LeaderCommit: 11,
		Entries: []LogEntry{{Index: 11, Term: 2, Type: EntryCommand}},
	}); err != nil {
		t.Fatal(err)
	}
	if task, ok := c.NextApply(); !ok || task.Restore || task.Entries[0].Index != 11 {
		t.Fatalf("task = %+v, want the run starting at 11", task)
	}
}

// An AppendEntries cut off right after its entry count used to decode
// as a heartbeat with LeaderCommit 0: the count guard bailed out without
// failing the decoder and nothing was left for Finish to complain about.
func TestAppendEntriesTruncatedAfterCountIsRejected(t *testing.T) {
	e := codec.NewEncoder(nil)
	e.String("g")
	e.Uint64(3) // term
	e.String("sm://a")
	e.Uint64(8) // prev index
	e.Uint64(2) // prev term
	e.Uvarint(3)
	var a appendEntriesArgs
	if err := codec.Unmarshal(e.Bytes(), &a); err == nil {
		t.Fatalf("truncated appendEntriesArgs decoded as %+v", a)
	}
}

// TestFirstDeadline: a member that has never had a leader — no term,
// no log, no snapshot — waits at most a heartbeat interval before it
// campaigns, and only the first time; one that restarts with anything in
// its store is as patient as ever.
func TestFirstDeadline(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		virgin, err := NewCore("rules", ruleSelf, rulePeers, NewMemoryStore(), Config{}, rand.New(rand.NewSource(seed)), t0)
		if err != nil {
			t.Fatal(err)
		}
		if d := virgin.Deadline().Sub(t0); d < 0 || d >= virgin.cfg.HeartbeatInterval {
			t.Fatalf("seed %d: a virgin member's first deadline is %v away, want less than %v", seed, d, virgin.cfg.HeartbeatInterval)
		}
		at := virgin.Deadline()
		virgin.Tick(at)
		if d := virgin.Deadline().Sub(at); virgin.role != Candidate || d < virgin.cfg.ElectionTimeoutMin || d > virgin.cfg.ElectionTimeoutMax {
			t.Fatalf("seed %d: role %v, second deadline %v away", seed, virgin.role, d)
		}
	}
	for name, c := range map[string]*Core{
		"a term":   ruleCore(t, NewMemoryStore(), nil, 1),
		"a log":    ruleCore(t, NewMemoryStore(), entriesUpTo(1, 0), 0),
		"a leader": ruleCore(t, NewMemoryStore(), entriesUpTo(3, 2), 2),
	} {
		if d := c.Deadline().Sub(t0); d < c.cfg.ElectionTimeoutMin || d > c.cfg.ElectionTimeoutMax {
			t.Fatalf("a member that restarts with %s has its first deadline %v away", name, d)
		}
	}
}

// TestHeldRequests: a member with no leader to name keeps a request
// until a transition names one — itself or another — or for
// ElectionTimeoutMax, whichever comes first; it keeps nothing when it
// can name a leader, or is no member.
func TestHeldRequests(t *testing.T) {
	released := func(c *Core) []interface{} { return c.Take().Released }

	c := ruleCore(t, NewMemoryStore(), nil, 0)
	if !c.Hold(t0, "a") || !c.Hold(t0.Add(time.Millisecond), "b") {
		t.Fatal("a leaderless member refused to hold")
	}
	if got := released(c); len(got) != 0 {
		t.Fatalf("released %v with no leader in sight", got)
	}
	// It wins: both come back, oldest first, to be started here.
	elect(t, c)
	if got := released(c); !reflect.DeepEqual(got, []interface{}{"a", "b"}) {
		t.Fatalf("released %v on winning, want [a b]", got)
	}
	if c.Hold(t0, "c") {
		t.Fatal("a leader held a request")
	}

	// Somebody else wins: the first AppendEntries names them.
	s := NewMemoryStore()
	c = ruleCore(t, s, nil, 0)
	c.Hold(t0, "a")
	if _, eff, err := deliver(t, c, s, &appendEntriesArgs{Term: 1, Leader: "sm://peer-a"}); err != nil || !reflect.DeepEqual(eff.Released, []interface{}{"a"}) {
		t.Fatalf("released %v (%v) on hearing from a leader, want [a]", eff.Released, err)
	}
	if c.Hold(t0, "b") {
		t.Fatal("a follower that can name its leader held a request")
	}
	// A vote request from a newer term, once the member listens to one,
	// un-names the leader: the member holds again, and nothing happens
	// until the bound.
	if _, err := c.RequestVote(lapsed, &requestVoteArgs{Term: 2, Candidate: "sm://peer-b"}); err != nil || c.Leader() != "" {
		t.Fatalf("leader %q after voting in a newer term (%v)", c.Leader(), err)
	}
	c.Take()
	c.Hold(t0, "b")
	c.Hold(t0.Add(10*time.Millisecond), "c")
	if d := c.Deadline(); !d.Equal(t0.Add(c.cfg.ElectionTimeoutMax)) && !d.Equal(c.electionAt) {
		t.Fatalf("deadline %v is neither the hold's nor the election's", d)
	}
	c.electionAt = t0.Add(time.Hour) // keep the election out of the way
	c.Tick(t0.Add(c.cfg.ElectionTimeoutMax - 1))
	if got := released(c); len(got) != 0 {
		t.Fatalf("released %v before the bound", got)
	}
	c.Tick(t0.Add(c.cfg.ElectionTimeoutMax))
	if got := released(c); !reflect.DeepEqual(got, []interface{}{"b"}) {
		t.Fatalf("released %v at b's bound, want [b]", got)
	}
	if d := c.Deadline(); !d.Equal(t0.Add(10*time.Millisecond + c.cfg.ElectionTimeoutMax)) {
		t.Fatalf("next deadline %v, want c's bound", d.Sub(t0))
	}

	// Nobody will ever tell a non-member who leads.
	out, err := NewCore("rules", "sm://stranger", rulePeers, NewMemoryStore(), Config{}, rand.New(rand.NewSource(1)), t0)
	if err != nil || out.Hold(t0, "a") {
		t.Fatalf("a member outside the configuration held a request (%v)", err)
	}
}

// TestLeadershipTransfer: a leader on its way out sends the voter that
// is furthest along everything that voter has not acknowledged, and the
// voter campaigns on it at once; a leader that has appended its own
// removal takes nothing more, and hands over when the removal commits.
func TestLeadershipTransfer(t *testing.T) {
	s := NewMemoryStore()
	c := ruleCore(t, s, nil, 0)
	elect(t, c)
	settle(t, c, s)
	// peer-b acknowledges the no-op, peer-a nothing; two more entries.
	c.prog["sm://peer-b"].match = 1
	c.Propose(t0, []byte("x"), 1, time.Time{})
	c.Propose(t0, []byte("y"), 2, time.Time{})
	settle(t, c, s)
	c.Transfer()
	msgs := c.Take().Msgs
	if len(msgs) != 1 || msgs[0].To != "sm://peer-b" || msgs[0].TimeoutNow == nil {
		t.Fatalf("transfer sent %+v, want one TimeoutNow to peer-b", msgs)
	}
	a := msgs[0].TimeoutNow
	if a.PrevLogIndex != 1 || a.PrevLogTerm != 1 || len(a.Entries) != 2 || a.Entries[1].Index != 3 || a.Term != 1 {
		t.Fatalf("TimeoutNow = %+v, want entries 2 and 3 after index 1", a)
	}

	// The successor: takes the entries, campaigns on all three.
	fs := NewMemoryStore()
	f := ruleCore(t, fs, []LogEntry{{Index: 1, Term: 1, Type: EntryNoop}}, 1)
	f.AppendEntries(t0, &appendEntriesArgs{Term: 1, Leader: ruleSelf, PrevLogIndex: 1, PrevLogTerm: 1}, 1)
	f.Take()
	if r := f.TimeoutNow(t0, a); r.Term != 2 || f.role != Candidate {
		t.Fatalf("after TimeoutNow: reply %+v, role %v", r, f.role)
	}
	var vote *requestVoteArgs
	for _, m := range f.Take().Msgs {
		vote = m.Vote
	}
	if vote == nil || vote.Term != 2 || vote.LastLogIndex != 3 {
		t.Fatalf("vote request = %+v, want term 2 on a log through 3", vote)
	}
	// The same request again, or one from a term gone by, changes nothing.
	f.TimeoutNow(t0, a)
	if eff := f.Take(); f.term != 2 || len(eff.Msgs) != 0 {
		t.Fatalf("a stale TimeoutNow: term %d, sent %+v", f.term, eff.Msgs)
	}

	// Removal of the leader itself.
	idx := c.ChangeConfig(t0, ruleSelf, true, "leave", time.Time{})
	c.Propose(t0, []byte("z"), 3, time.Time{})
	eff := settle(t, c, s)
	if idx == 0 || len(eff.Done) != 1 || eff.Done[0].Tag != 3 || !errors.Is(eff.Done[0].Err, ErrNoLeader) || c.lastIndex() != idx {
		t.Fatalf("a leader that is leaving: refused %+v, log through %d (removal at %d)", eff.Done, c.lastIndex(), idx)
	}
	for _, peer := range rulePeers[1:] {
		c.AppendReply(t0, Message{To: peer, Append: &appendEntriesArgs{Term: 1, PrevLogIndex: idx}}, &appendEntriesReply{Term: 1, Success: true})
	}
	eff = c.Take()
	if c.IsLeader() || c.commitIndex != idx {
		t.Fatalf("removal committed: leader=%v commit=%d", c.IsLeader(), c.commitIndex)
	}
	handover := 0
	for _, m := range eff.Msgs {
		if m.TimeoutNow != nil {
			handover++
			if m.TimeoutNow.LeaderCommit != idx || m.TimeoutNow.PrevLogIndex != idx {
				t.Fatalf("TimeoutNow = %+v, want commit and log through %d", m.TimeoutNow, idx)
			}
		}
	}
	if handover != 1 {
		t.Fatalf("%d TimeoutNow on removal, want 1 (%+v)", handover, eff.Msgs)
	}
}

// TestTransitions: every change of role, term or leader is reported
// once, in order — what the driver's election metrics are fed from.
func TestTransitions(t *testing.T) {
	s := NewMemoryStore()
	c := ruleCore(t, s, nil, 0)
	c.Tick(c.Deadline())
	got := c.Take().Transitions
	c.VoteReply(t0, Message{To: "sm://peer-a", Vote: &requestVoteArgs{Term: 1}}, &requestVoteReply{Term: 1, Granted: true})
	got = append(got, c.Take().Transitions...)
	c.AppendReply(t0, Message{To: "sm://peer-a", Append: &appendEntriesArgs{Term: 1}}, &appendEntriesReply{Term: 3})
	got = append(got, c.Take().Transitions...)
	for i := 0; i < 2; i++ { // the second heartbeat changes nothing
		_, eff, _ := deliver(t, c, s, &appendEntriesArgs{Term: 3, Leader: "sm://peer-a"})
		got = append(got, eff.Transitions...)
	}
	want := []Transition{{Candidate, 1, ""}, {Leader, 1, ruleSelf}, {Follower, 3, ""}, {Follower, 3, "sm://peer-a"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
}

// outstanding counts the tags the core holds.
func (c *Core) outstanding() int {
	n := len(c.acks) + len(c.held)
	c.sweep(func(request) error {
		n++
		return nil
	})
	if c.compact.tag != nil {
		n++
	}
	return n
}

// exit is one tag leaving the core: by which door, and with what.
type exit struct {
	door string // "task", "round", "done", "ack", "released"
	tag  interface{}
	err  error
}

// exits lists the tags eff and task carry, in the order a driver meets
// them.
func exits(eff Effects, task ApplyTask) (out []exit) {
	for _, a := range eff.Acks {
		out = append(out, exit{"ack", a.Tag, a.Err})
	}
	for _, r := range eff.Reads {
		for _, tag := range r.Tags {
			out = append(out, exit{"round", tag, r.Err})
		}
	}
	for _, d := range eff.Done {
		out = append(out, exit{"done", d.Tag, d.Err})
	}
	for _, tag := range eff.Released {
		out = append(out, exit{"released", tag, nil})
	}
	for _, tag := range task.Tags {
		if tag != nil {
			out = append(out, exit{"task", tag, nil})
		}
	}
	return out
}

// TestLedgerRules has one row per way a tag leaves the core. A row hands
// its tags in, plays the event that ends them and returns what the core
// then emitted; the table checks that each tag came out of the door the
// row names, with the error a caller must see there, that none came out
// twice, and that the core is left holding nothing.
func TestLedgerRules(t *testing.T) {
	never := time.Time{}
	// replicate lets the disk and both followers catch up with c's log.
	replicate := func(t *testing.T, c *Core, s Store) {
		for msgs := settle(t, c, s).Msgs; len(msgs) > 0; msgs = ackAll(c, msgs) {
		}
	}
	// leading returns a leader of term 1 whose no-op is committed.
	leading := func(t *testing.T) (*Core, *MemoryStore) {
		s := NewMemoryStore()
		c := ruleCore(t, s, nil, 0)
		elect(t, c)
		replicate(t, c, s)
		return c, s
	}
	storeErr := errors.New("injected disk failure")
	rows := []struct {
		name string
		play func(t *testing.T) (*Core, Effects, ApplyTask)
		want []exit
	}{
		{"applied", func(t *testing.T) (*Core, Effects, ApplyTask) {
			c, s := leading(t)
			c.Propose(t0, []byte("x"), "w", never)
			replicate(t, c, s)
			task, _ := c.NextApply() // the no-op and x
			if len(task.Tags) != 2 || task.Tags[1] != "w" {
				t.Fatalf("tags = %v, want w beside the second entry", task.Tags)
			}
			return c, c.Take(), task
		}, []exit{{"task", "w", nil}}},
		{"overwritten", func(t *testing.T) (*Core, Effects, ApplyTask) {
			c, s := leading(t)
			c.Propose(t0, []byte("x"), "w", never) // at 2 in term 1, never acknowledged
			settle(t, c, s)
			deliver(t, c, s, &appendEntriesArgs{Term: 2, Leader: "sm://peer-b", PrevLogIndex: 1, PrevLogTerm: 1,
				Entries: []LogEntry{{Index: 2, Term: 2, Type: EntryNoop}}, LeaderCommit: 2})
			if c.outstanding() != 1 {
				t.Fatal("the proposal was answered before anything was applied at its index")
			}
			task, _ := c.NextApply()
			return c, c.Take(), task
		}, []exit{{"done", "w", ErrNotLeader}}},
		{"persist failed", func(t *testing.T) (*Core, Effects, ApplyTask) {
			c, _ := leading(t)
			c.Propose(t0, []byte("x"), "w", never)
			c.Persisted(t0, c.Take().Persist[0].Seq, storeErr)
			return c, c.Take(), ApplyTask{}
		}, []exit{{"done", "w", storeErr}}},
		{"confirmed under the lease", func(t *testing.T) (*Core, Effects, ApplyTask) {
			c, _ := leading(t)
			c.Read(t0, "r", never)
			if eff := c.Take(); len(eff.Reads) != 0 || len(eff.Msgs) != 0 {
				t.Fatalf("resolved before its read index was applied, or probed for: %+v", eff)
			}
			c.Applied(1)
			return c, c.Take(), ApplyTask{}
		}, []exit{{"round", "r", nil}}},
		{"round confirmed", func(t *testing.T) (*Core, Effects, ApplyTask) {
			c, _ := leading(t)
			c.Read(lapsed, "r", never)
			for _, m := range c.Take().Msgs {
				c.AppendReply(lapsed, m, &appendEntriesReply{Term: 1})
			}
			if eff := c.Take(); len(eff.Reads) != 0 {
				t.Fatalf("round resolved before its read index was applied: %+v", eff.Reads)
			}
			c.Applied(1)
			return c, c.Take(), ApplyTask{}
		}, []exit{{"round", "r", nil}}},
		{"round failed", func(t *testing.T) (*Core, Effects, ApplyTask) {
			c, _ := leading(t)
			c.Read(lapsed, "r", never)
			c.Tick(lapsed.Add(c.cfg.ElectionTimeoutMin))
			return c, c.Take(), ApplyTask{}
		}, []exit{{"round", "r", ErrTimeout}}},
		{"deadline passed at a leader cut off from its quorum", func(t *testing.T) (*Core, Effects, ApplyTask) {
			// Elected, then silence: the no-op never commits, so the read has
			// no round to fail with and the proposal nobody to overwrite it.
			s := NewMemoryStore()
			c := ruleCore(t, s, nil, 0)
			elect(t, c)
			by := t0.Add(10 * c.cfg.ElectionTimeoutMax)
			c.Propose(t0, []byte("x"), "w", by)
			c.Read(t0, "r", by)
			c.Propose(t0, []byte("y"), "blocked", never) // a caller with its own clock
			for settle(t, c, s); c.Deadline().Before(by); settle(t, c, s) {
				c.Tick(c.Deadline())
			}
			if eff := c.Take(); len(exits(eff, ApplyTask{})) != 0 || !c.Deadline().Equal(by) {
				t.Fatalf("before the deadline: %+v, next tick in %v", eff, c.Deadline().Sub(t0))
			}
			c.Tick(by)
			eff := c.Take()
			if !c.IsLeader() || c.outstanding() != 1 || !c.Deadline().After(by) {
				t.Fatalf("leader=%v outstanding=%d", c.IsLeader(), c.outstanding())
			}
			c.Surrender(ErrStopped) // "blocked" has no deadline and stays: the last row's business
			c.Take()
			return c, eff, ApplyTask{}
		}, []exit{{"done", "r", ErrTimeout}, {"done", "w", ErrTimeout}}},
		{"released from a hold", func(t *testing.T) (*Core, Effects, ApplyTask) {
			s := NewMemoryStore()
			c := ruleCore(t, s, nil, 0)
			if !c.Hold(t0, "h") {
				t.Fatal("a leaderless member refused to hold")
			}
			_, eff, _ := deliver(t, c, s, &appendEntriesArgs{Term: 1, Leader: "sm://peer-a"})
			eff.Acks = nil // deliver's own tag
			return c, eff, ApplyTask{}
		}, []exit{{"released", "h", nil}}},
		{"surrendered at stop", func(t *testing.T) (*Core, Effects, ApplyTask) {
			c, s := leading(t)
			c.Applied(1)
			c.Compact([]byte("fsm"), "s")
			c.Propose(t0, []byte("x"), "w", never)
			c.Read(lapsed, "r", never) // in a round: the lease would have served it
			// Log traffic waiting for the disk, as a follower keeps it.
			c.acks = append(c.acks, request{tag: "a", index: 9, term: 1})
			if eff := c.Take(); len(exits(eff, ApplyTask{})) != 0 || c.outstanding() != 4 || s.LastIndex() != 1 {
				t.Fatalf("before the stop: %+v, %d outstanding", eff, c.outstanding())
			}
			c.Surrender(ErrStopped)
			return c, c.Take(), ApplyTask{}
		}, []exit{{"ack", "a", ErrStopped}, {"done", "r", ErrStopped}, {"done", "s", ErrStopped}, {"done", "w", ErrStopped}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c, eff, task := row.play(t)
			got := exits(eff, task)
			sort.Slice(got, func(i, j int) bool { return got[i].tag.(string) < got[j].tag.(string) })
			if len(got) != len(row.want) {
				t.Fatalf("tags out = %+v, want %+v", got, row.want)
			}
			for i, w := range row.want {
				if g := got[i]; g.door != w.door || g.tag != w.tag || !errors.Is(g.err, w.err) || (w.err == nil) != (g.err == nil) {
					t.Fatalf("tag %d out = %+v, want %+v", i, g, w)
				}
			}
			if n := c.outstanding(); n != 0 {
				t.Fatalf("the core still holds %d tags", n)
			}
			c.Surrender(ErrStopped)
			if again := exits(c.Take(), ApplyTask{}); len(again) != 0 {
				t.Fatalf("handed back twice: %+v", again)
			}
		})
	}
}
