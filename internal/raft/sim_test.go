package raft

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"mochi/internal/codec"
	"mochi/internal/mercury"
	"mochi/internal/sim"
	"mochi/internal/testutil"
)

// This file runs the production Core, unmodified, as a group of
// single-threaded event handlers on sim.Sim + sim.Net with MemoryStore
// behind a simulated disk: every message, timer, disk write, fault,
// crash and client operation of a run derives from one seed, so two
// runs of a seed execute the same events in the same order (checked by
// trace hash) and a failing seed is its own reproduction. Every member
// reads the time off a clock of its own, which runs at a seeded rate
// within 5 % of true: nothing a core decides may rest on two members
// agreeing what time it is, or how fast it passes. A Persist
// reaches the store, and the core hears Persisted, after seeded virtual
// time; a crash takes every write still on its way. After every event
// the harness checks election safety, log matching, leader completeness
// and state-machine safety, and that every tag a core was handed is back,
// once, or still in its ledger; at the end it feeds the clients' history
// to the linearizability checker. No goroutine, sleep or wall clock here.

// Trace event kinds (sim.Trace).
const (
	evDeliver uint8 = iota + 1
	evReply
	evRole
	evCommit
	evCrash
	evRestart
	evClientOp
)

type raftSimConfig struct {
	Nodes    int
	Seed     int64
	Duration time.Duration
	Protocol Config
	Faults   mercury.ChaosConfig
	Clients  int
	// PersistMin/Max bound how long the disk takes over one Persist.
	PersistMin, PersistMax time.Duration
	// PowerCuts are the times at which every member goes down in the
	// same instant, with whatever its disk had not finished.
	PowerCuts []time.Duration
	// Scenario, when set, is the whole schedule: it replaces the
	// partition window, the crashes, the leader cut off and the power
	// cuts of the seed matrix.
	Scenario func(h *raftSim)
	// Stagger spreads the members' first boots over seeded offsets below
	// it.
	Stagger time.Duration
	// The deliberately broken rules, each a hook in this file on an
	// untouched Core. forgetVotes (TestRaftSimCatchesBrokenRule): a
	// member's in-memory vote is wiped just before it handles a
	// RequestVote, so it grants a second vote in the same term.
	// selfCountAtPersist and ackBeforeDurable
	// (TestRaftSimCatchesBrokenDurability): a leader counts its own copy
	// of an entry, or a follower acknowledges one, when the Persist is
	// emitted instead of when it is reported.
	forgetVotes, selfCountAtPersist, ackBeforeDurable bool
	// fastRestart and neverRelease (TestRaftSimCatchesBrokenTiming): a
	// member that restarts with a term draws the first deadline of a
	// virgin one, and a hold's bound is an hour away. forgetOverwritten
	// (TestRaftSimCatchesForgottenTag): a proposal whose entry a newer
	// leader overwrote drops out of the ledger unanswered.
	fastRestart, neverRelease, forgetOverwritten bool
	// The four ways of getting the lease wrong
	// (TestRaftSimCatchesBrokenLease). grantInsideLease: a member's last
	// contact with its leader is wiped just before it handles a
	// RequestVote, so it never withholds. forgetContactOnRestart: a member
	// that restarts does not count its boot as a contact.
	// leaseSurvivesTransfer: a leader that has told a successor to campaign
	// goes on trusting its lease. leaseFromReply: the lease counts from when
	// an acknowledgement arrived, not from when what it acknowledges left.
	grantInsideLease, forgetContactOnRestart, leaseSurvivesTransfer, leaseFromReply bool
}

// The disks of the seed matrix: one faster than a network round trip
// (2–4 ms here), one slower.
var simDisks = []struct {
	name     string
	min, max time.Duration
}{
	{"fast", 100 * time.Microsecond, time.Millisecond},
	{"slow", 3 * time.Millisecond, 12 * time.Millisecond},
}

func testRaftSimConfig(nodes int, seed int64) raftSimConfig {
	return raftSimConfig{
		Nodes:    nodes,
		Seed:     seed,
		Duration: 14 * time.Second,
		Protocol: Config{
			ElectionTimeoutMin: 150 * time.Millisecond,
			ElectionTimeoutMax: 300 * time.Millisecond,
			HeartbeatInterval:  50 * time.Millisecond,
			SnapshotThreshold:  24,
			// Small enough that a member returning from a partition
			// needs several rounds to catch up.
			MaxEntriesPerAppend: 8,
		},
		Faults: mercury.ChaosConfig{
			DropRate:  0.05,
			DupRate:   0.03,
			DelayRate: 0.10,
			DelayMin:  time.Millisecond,
			DelayMax:  40 * time.Millisecond,
		},
		Clients:    3,
		PersistMin: simDisks[0].min,
		PersistMax: simDisks[0].max,
		PowerCuts:  []time.Duration{11 * time.Second},
	}
}

// simFSM is a map of registers. Commands are "key=value".
type simFSM struct {
	kv   map[string]string
	last uint64 // index of the last applied (or restored-to) entry
}

func (f *simFSM) snapshot() []byte {
	keys := make([]string, 0, len(f.kv))
	for k := range f.kv {
		keys = append(keys, k)
	}
	sort.Strings(keys) // a snapshot's bytes must not depend on map order
	e := codec.NewEncoder(nil)
	e.Uint64(f.last)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.String(f.kv[k])
	}
	return e.Bytes()
}

func (f *simFSM) restore(data []byte) error {
	d := codec.NewDecoder(data)
	f.last = d.Uint64()
	n := d.Uvarint()
	f.kv = make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := d.String()
		f.kv[k] = d.String()
	}
	return d.Finish()
}

// clientOp is one client operation in flight.
type clientOp struct {
	client int
	put    bool
	key    string
	value  string
	call   int64
	// gen invalidates a registration: an op that was retried, timed out
	// or finished ignores whatever an earlier attempt still delivers.
	gen      int
	done     bool
	deadline time.Time
}

// opReg is one attempt of a client operation or, with reply set, one
// request of log traffic; a pointer to a copy is the tag a core gets.
type opReg struct {
	op    *clientOp
	gen   int
	held  bool // has been parked for want of a leader: a member does that once
	reply func(*appendEntriesReply)
	since time.Time // when a core got it
}

type simMember struct {
	id    int32
	addr  string
	rate  float64      // of its clock: seconds it counts per true second
	store *MemoryStore // what the disk holds: survives crashes
	core  *Core        // nil while crashed
	fsm   *simFSM
	// epoch counts incarnations: a reply addressed to an earlier one is
	// dropped, like an RPC whose caller died, and so is a disk write
	// issued by one.
	epoch    int
	armed    time.Time
	diskFree time.Time // when the disk is done with what it was handed
	in, out  int       // tags this incarnation's core was handed, and has handed back

	// What the invariant checks saw last. version counts changes of the
	// log, in memory or on disk.
	role       Role
	seenCommit uint64
	version    int
	checkedVer int
}

// The member's log as its core sees it — tail included — or, while it
// is crashed, as its disk holds it.
func (m *simMember) firstIndex() uint64 {
	if m.core != nil {
		return m.core.firstIndex()
	}
	return m.store.FirstIndex()
}

func (m *simMember) lastIndex() uint64 {
	if m.core != nil {
		return m.core.lastIndex()
	}
	return m.store.LastIndex()
}

func (m *simMember) entry(index uint64) (LogEntry, error) {
	if m.core != nil {
		return m.core.entryAt(index)
	}
	return m.store.Entry(index)
}

type simClient struct {
	id    int
	rng   *rand.Rand
	guess int32 // the member it believes leads
	seq   int
	// putFrac is the share of puts. Client 0 only reads: a reader never
	// times out on a leader that cannot commit, so it is the one still
	// asking a deposed leader after the others have moved on.
	putFrac float64
	// seed, when not negative, is where every operation starts: a client
	// that keeps no leader cache and lists that member first.
	seed int32
}

type raftSim struct {
	cfg     raftSimConfig
	sim     *sim.Sim
	net     *sim.Net
	start   time.Time
	members []*simMember
	addrs   []string
	byAddr  map[string]int32
	clients []*simClient
	history []sim.Op

	// Invariant state.
	leaderOf     map[uint64]int32    // term -> the member that led it
	committed    map[uint64]LogEntry // index -> the entry committed there
	maxCommitted uint64
	applied      map[uint64]LogEntry // index -> the entry some FSM applied there
	// settledTerm, when not zero, is the term of a leader nothing is
	// wrong with: nobody has cause to move past it.
	settledTerm uint64

	// What the timing scenarios measure. booted is when the last member
	// first came up and firstCommit when the first entry was committed;
	// exitAt is when the leader a scenario sends away stopped leading
	// and exitGap how long the group then went without a commit.
	booted, firstCommit, exitAt time.Time
	exiting                     int32 // the member on its way out, -1 if none
	exitGap                     time.Duration
	// lostAt is when the schedule last took the leader away — crashed it,
	// cut it off or left it in the minority — and gaps how long the group
	// then went, each time, before an entry was committed again.
	lostAt time.Time
	gaps   []time.Duration
	// ackLag is how much longer than any other message an answer to log
	// traffic or to a probe takes on its way to slowAcks (nil: nobody).
	slowAcks *simMember
	ackLag   time.Duration

	elections, restores, holds int
	err                        error
}

type raftSimResult struct {
	TraceHash, TraceCount, Events uint64
	Ops, Elections, Restores      int
	// Holds counts the operations a leaderless member parked; ColdStart
	// is how long after the last member's first boot the first entry was
	// committed (negative: a quorum did not wait for it; the maximum:
	// never); ExitGap is the commit gap after a scenario's planned leader
	// exit (zero when there was none).
	Holds              int
	ColdStart, ExitGap time.Duration
	// Gaps are the commit gaps after each unplanned loss of the leader.
	Gaps    []time.Duration
	History []sim.Op
	Err     error
}

func (r *raftSimResult) String() string {
	return fmt.Sprintf("raft-sim events=%d trace=%016x/%d ops=%d elections=%d restores=%d",
		r.Events, r.TraceHash, r.TraceCount, r.Ops, r.Elections, r.Restores)
}

func runRaftSim(cfg raftSimConfig) *raftSimResult {
	s := sim.New(cfg.Seed)
	h := &raftSim{
		cfg:       cfg,
		sim:       s,
		start:     s.Now(),
		byAddr:    map[string]int32{},
		leaderOf:  map[uint64]int32{},
		committed: map[uint64]LogEntry{},
		applied:   map[uint64]LogEntry{},
		exiting:   -1,
	}
	// One partition window isolating a minority, drawn from the seed.
	perm := s.Rand().Perm(cfg.Nodes)
	var partitions []sim.PartitionWindow
	if cfg.Scenario == nil {
		var left []int32
		for _, i := range perm[:cfg.Nodes/2] {
			left = append(left, int32(i))
		}
		partStart := 2*time.Second + time.Duration(s.Rand().Int63n(int64(time.Second)))
		partitions = []sim.PartitionWindow{{Start: partStart, End: partStart + 1500*time.Millisecond, Left: left}}
		s.At(partStart, func() {
			if m := h.leader(); m != nil && h.net.Partitioned(m.id, int32(perm[cfg.Nodes-1]), s.Now()) {
				h.lost() // the leader is on the minority's side
			}
		})
	}
	h.net = sim.NewNet(cfg.Nodes, cfg.Seed, time.Millisecond, time.Millisecond, cfg.Faults, h.start, partitions)

	for i := 0; i < cfg.Nodes; i++ {
		h.addrs = append(h.addrs, fmt.Sprintf("sim://n%d", i))
		h.byAddr[h.addrs[i]] = int32(i)
	}
	for i := 0; i < cfg.Nodes; i++ {
		m := &simMember{id: int32(i), addr: h.addrs[i], rate: 0.95 + 0.1*s.Rand().Float64(), store: NewMemoryStore()}
		h.members = append(h.members, m)
		var at time.Duration
		if cfg.Stagger > 0 {
			at = time.Duration(s.Rand().Int63n(int64(cfg.Stagger)))
		}
		s.At(at, func() {
			h.booted = s.Now()
			h.boot(m)
		})
	}
	if cfg.Scenario != nil {
		cfg.Scenario(h)
	} else {
		h.faultSchedule(int32(perm[cfg.Nodes-1]))
	}
	for i := 0; i < cfg.Clients; i++ {
		cl := &simClient{id: i, rng: rand.New(rand.NewSource(cfg.Seed*31 + int64(i))), guess: int32(i % cfg.Nodes), putFrac: 0.5, seed: -1}
		if i == 0 {
			cl.putFrac = 0
		}
		h.clients = append(h.clients, cl)
		s.At(500*time.Millisecond+time.Duration(i)*7*time.Millisecond, func() { h.nextOp(cl) })
	}

	s.RunFor(cfg.Duration)
	if h.err == nil {
		if res := sim.Check(sim.KVModel(), h.history); !res.Ok {
			h.failf("history of %d ops is not linearizable; bad window:\n%s", len(h.history), sim.FormatOps(res.Bad))
		}
	}
	r := &raftSimResult{
		TraceHash: s.Trace.Hash(), TraceCount: s.Trace.Count(), Events: s.Events(),
		Ops: len(h.history), Elections: h.elections, Restores: h.restores, Holds: h.holds,
		ColdStart: h.firstCommit.Sub(h.booted), ExitGap: h.exitGap, Gaps: h.gaps, History: h.history, Err: h.err,
	}
	if h.firstCommit.IsZero() {
		r.ColdStart = math.MaxInt64
	}
	return r
}

// faultSchedule is what every seed of the matrix goes through besides
// the partition window and the message faults: a seeded victim crashes
// and restarts on a seeded schedule. Later whoever leads is cut off from
// every member while it keeps running and the clients still reach it —
// the deposed leader that still believes it leads, and answers reads for
// as long as it trusts its lease — later still whoever leads then
// crashes, and in the end the power fails.
func (h *raftSim) faultSchedule(victim int32) {
	s := h.sim
	crashAt := 5*time.Second + time.Duration(s.Rand().Int63n(int64(time.Second)))
	s.At(crashAt, func() { h.crash(victim) })
	s.At(crashAt+800*time.Millisecond, func() { h.restart(victim) })
	s.At(7500*time.Millisecond, func() {
		if m := h.leader(); m != nil {
			h.net.SetDown(m.id, true)
			h.lost()
			s.At(1200*time.Millisecond, func() { h.net.SetDown(m.id, m.core == nil) })
		}
	})
	s.At(9500*time.Millisecond, func() {
		if m := h.leader(); m != nil {
			h.crash(m.id)
			s.At(700*time.Millisecond, func() { h.restart(m.id) })
		}
	})
	for _, at := range h.cfg.PowerCuts {
		s.At(at, func() {
			for _, m := range h.members {
				h.crash(m.id)
				s.At(300*time.Millisecond+time.Duration(m.id)*40*time.Millisecond, func() { h.restart(m.id) })
			}
		})
	}
}

// lost notes that the group has just been deprived of its leader.
func (h *raftSim) lost() {
	if h.lostAt.IsZero() {
		h.lostAt = h.sim.Now()
	}
}

// leader returns a running member that believes it leads, if any.
func (h *raftSim) leader() *simMember {
	for _, m := range h.members {
		if m.core != nil && m.core.IsLeader() {
			return m
		}
	}
	return nil
}

func (h *raftSim) failf(format string, args ...interface{}) {
	if h.err == nil {
		h.err = fmt.Errorf("at %s: %s", h.sim.Now().Sub(h.start), fmt.Sprintf(format, args...))
	}
}

// now is what m's clock reads: the clocks agreed when the run started
// and have each kept their own pace since. until is how long from now,
// in true time, before it reads at.
func (h *raftSim) now(m *simMember) time.Time {
	return h.start.Add(time.Duration(float64(h.sim.Now().Sub(h.start)) * m.rate))
}

func (h *raftSim) until(m *simMember, at time.Time) time.Duration {
	// Two nanoseconds late rather than one early to rounding: a timer that
	// fires before its member's clock says so would be armed again at once.
	return h.start.Add(time.Duration(float64(at.Sub(h.start))/m.rate) + 2).Sub(h.sim.Now())
}

// boot starts (or restarts) a member on its surviving store with a
// fresh state machine.
func (h *raftSim) boot(m *simMember) {
	rng := rand.New(rand.NewSource(h.cfg.Seed*1_000_003 + int64(m.id)*101 + int64(m.epoch)))
	now := h.now(m)
	core, err := NewCore("sim", m.addr, h.addrs, m.store, h.cfg.Protocol, rng, now)
	if err != nil {
		h.failf("n%d: NewCore: %v", m.id, err)
		return
	}
	if h.cfg.fastRestart && core.term > 0 {
		// Broken twin: a member that has had a leader is as impatient as
		// one that never did.
		core.electionAt = now.Add(time.Duration(h.sim.Rand().Int63n(int64(h.cfg.Protocol.HeartbeatInterval))))
	}
	if h.cfg.forgetContactOnRestart {
		core.contact = time.Time{}
	}
	m.core, m.fsm, m.in, m.out = core, &simFSM{kv: map[string]string{}}, 0, 0
	m.role, m.seenCommit, m.armed, m.diskFree = Follower, 0, time.Time{}, time.Time{}
	m.version++
	h.settle(m)
}

func (h *raftSim) crash(id int32) {
	m := h.members[id]
	if m.core == nil || h.err != nil {
		return
	}
	h.sim.Trace.Record(h.sim.Now(), evCrash, id, -1, m.core.term)
	if m.core.IsLeader() {
		h.lost()
	}
	h.net.SetDown(id, true)
	m.core, m.fsm = nil, nil
	m.epoch++
	// Ops registered here are in limbo: their clients time out. The log
	// is back to what the disk holds.
	m.version++
	if id == h.exiting && h.exitAt.IsZero() {
		h.exitAt = h.sim.Now()
	}
}

// stop is the graceful exit: a leader names its successor on the way
// down.
func (h *raftSim) stop(id int32) {
	m := h.members[id]
	if m.core == nil || h.err != nil {
		return
	}
	m.core.Transfer()
	h.settle(m)
	h.crash(id)
}

func (h *raftSim) restart(id int32) {
	if h.err != nil || h.members[id].core != nil {
		return // two crashes overlapped and the earlier restart got here first
	}
	h.sim.Trace.Record(h.sim.Now(), evRestart, id, -1, 0)
	h.net.SetDown(id, false)
	h.boot(h.members[id])
}

// settle is what a driver does after a step: carry out the effects, run
// the state machine, re-arm the timer — then check the invariants.
func (h *raftSim) settle(m *simMember) {
	for h.err == nil {
		if h.cfg.selfCountAtPersist && m.core.IsLeader() {
			// Broken twin: the leader's own copy counts before it is
			// durable.
			durable := m.core.persisted
			m.core.persisted = m.core.lastIndex()
			m.core.advanceCommit(h.now(m))
			m.core.persisted = durable
		}
		if h.cfg.leaseSurvivesTransfer {
			m.core.transferred = false
		}
		if h.cfg.forgetOverwritten {
			// Broken twin: whoever waits where another term's entry now is.
			m.core.pending = keepIf(m.core.pending, func(p request) bool {
				e, err := m.core.entryAt(p.index)
				return err != nil || e.Term == p.term
			})
		}
		eff := m.core.Take()
		h.dispatch(m, eff)
		task, ok := m.core.NextApply()
		if !ok {
			if len(eff.Released) > 0 {
				continue // what was released has been started again
			}
			break
		}
		h.apply(m, task)
		m.core.Applied(task.Index)
		if m.core.SnapshotDue() {
			m.core.Compact(m.fsm.snapshot(), nil)
		}
	}
	if h.err != nil {
		return
	}
	if d := m.core.Deadline(); m.armed.IsZero() || d.Before(m.armed) {
		h.arm(m, d)
	}
	h.checkInvariants(m)
}

func (h *raftSim) dispatch(m *simMember, eff Effects) {
	for _, msg := range eff.Msgs {
		h.send(m, msg)
	}
	for _, p := range eff.Persist {
		h.write(m, p)
	}
	for _, a := range eff.Acks {
		if reg := h.back(m, a.Tag); a.Err == nil { // with an error the member stays silent
			reg.reply(a.Reply)
		}
	}
	for _, d := range eff.Done {
		// What a snapshot was installed over may have executed: no retry.
		if reg := h.back(m, d.Tag); !errors.Is(d.Err, ErrTimeout) {
			h.retry(reg, d.Err)
		}
	}
	for _, tag := range eff.Released {
		h.begin(m, h.back(m, tag))
	}
	for _, r := range eff.Reads {
		for _, tag := range r.Tags {
			if reg := h.back(m, tag); r.Err != nil {
				h.retry(reg, r.Err)
			} else if reg.op.gen == reg.gen && !reg.op.done {
				v, found := m.fsm.kv[reg.op.key]
				h.finish(reg.op, sim.KVOutput{Value: v, Found: found})
			}
		}
	}
}

// back counts out again a tag that was counted into m's core (m.in) with
// the input it went with.
func (h *raftSim) back(m *simMember, tag interface{}) opReg {
	m.out++
	return *tag.(*opReg)
}

// write hands p to the member's disk: one write at a time, each taking
// seeded time. Only when it is done does the store hold p and the core
// hear Persisted; a crash before that loses it.
func (h *raftSim) write(m *simMember, p Persist) {
	m.version++
	now := h.sim.Now()
	took := h.cfg.PersistMin + time.Duration(h.sim.Rand().Int63n(int64(h.cfg.PersistMax-h.cfg.PersistMin)+1))
	if m.diskFree.Before(now) {
		m.diskFree = now
	}
	m.diskFree = m.diskFree.Add(took)
	epoch := m.epoch
	h.sim.At(m.diskFree.Sub(now), func() {
		if h.err != nil || m.epoch != epoch {
			return
		}
		if err := p.writeTo(m.store); err != nil {
			h.failf("n%d: persist %d: %v", m.id, p.Seq, err)
			return
		}
		m.version++
		m.core.Persisted(h.now(m), p.Seq, nil)
		h.settle(m)
	})
}

func (h *raftSim) arm(m *simMember, d time.Time) {
	m.armed = d
	epoch := m.epoch
	h.sim.At(h.until(m, d), func() {
		if h.err != nil || m.epoch != epoch || m.core == nil || !m.armed.Equal(d) {
			return
		}
		m.armed = time.Time{}
		if now := h.now(m); !m.core.Deadline().After(now) {
			m.core.Tick(now)
		}
		h.settle(m)
	})
}

// apply runs one task on the member's state machine, checking
// state-machine safety: indexes arrive in order, never at or below a
// restored index, and every FSM sees the same entry at an index.
func (h *raftSim) apply(m *simMember, task ApplyTask) {
	if task.Restore {
		if task.Index <= m.fsm.last {
			h.failf("n%d: restore to %d but the FSM is already at %d", m.id, task.Index, m.fsm.last)
		}
		if err := m.fsm.restore(task.Snapshot); err != nil {
			h.failf("n%d: restore: %v", m.id, err)
		}
		if m.fsm.last != task.Index {
			h.failf("n%d: snapshot labelled %d holds state at %d", m.id, task.Index, m.fsm.last)
		}
		h.restores++
		return
	}
	for i, e := range task.Entries {
		if e.Index != m.fsm.last+1 {
			h.failf("n%d: FSM at %d handed index %d", m.id, m.fsm.last, e.Index)
			return
		}
		if ref, ok := h.applied[e.Index]; !ok {
			h.applied[e.Index] = e
		} else if ref.Term != e.Term || !bytes.Equal(ref.Data, e.Data) {
			h.failf("state-machine safety: n%d applies %d/%q at index %d, another member applied %d/%q",
				m.id, e.Term, e.Data, e.Index, ref.Term, ref.Data)
			return
		}
		m.fsm.last = e.Index
		if e.Type == EntryCommand {
			k, v, _ := strings.Cut(string(e.Data), "=")
			m.fsm.kv[k] = v
		}
		if task.Tags != nil && task.Tags[i] != nil {
			if reg := h.back(m, task.Tags[i]); reg.op.gen == reg.gen && !reg.op.done {
				h.finish(reg.op, sim.KVOutput{})
			}
		}
	}
}

// --- network ---

// send puts one request on the simulated wire; the receiver's reply
// travels back the same way, each leg with its own fault draw.
func (h *raftSim) send(from *simMember, msg Message) {
	to := h.byAddr[msg.To]
	epoch := from.epoch
	h.transmit(from.id, to, func() {
		dst := h.members[to]
		if dst.core == nil {
			return
		}
		at, now := h.sim.Now(), h.now(dst)
		// reply carries the answer back, whenever the member gives it.
		reply := func(vote *requestVoteReply, app *appendEntriesReply) {
			carry := func() {
				h.transmit(to, from.id, func() {
					if from.core == nil || from.epoch != epoch {
						return
					}
					at, now := h.sim.Now(), h.now(from)
					if vote != nil {
						h.sim.Trace.Record(at, evReply, to, from.id, vote.Term<<1|b2u(vote.Granted))
						from.core.VoteReply(now, msg, vote)
					} else {
						h.sim.Trace.Record(at, evReply, to, from.id, app.Term<<1|b2u(app.Success))
						if h.cfg.leaseFromReply {
							msg.Sent = now // broken twin: as if it had only just left
						}
						from.core.AppendReply(now, msg, app)
					}
					h.settle(from)
				})
			}
			if app != nil && from == h.slowAcks {
				h.sim.At(h.ackLag, carry)
			} else {
				carry()
			}
		}
		if msg.TimeoutNow != nil {
			h.sim.Trace.Record(at, evDeliver, from.id, to, (msg.TimeoutNow.PrevLogIndex+uint64(len(msg.TimeoutNow.Entries)))<<8|4)
			dst.core.TimeoutNow(now, msg.TimeoutNow) // nobody waits for the reply
			h.settle(dst)
			return
		}
		if msg.Vote != nil {
			if h.cfg.forgetVotes {
				dst.core.votedFor = ""
			}
			if h.cfg.grantInsideLease {
				dst.core.contact = time.Time{}
			}
			h.sim.Trace.Record(at, evDeliver, from.id, to, msg.Vote.Term<<8|1)
			vote, err := dst.core.RequestVote(now, msg.Vote)
			h.settle(dst)
			if err == nil { // else the member could not persist: it stays silent
				reply(vote, nil)
			}
			return
		}
		// Log traffic is answered by the Ack carrying its tag: in the
		// step below, or in the one that hears from the disk.
		dst.in++
		tag := &opReg{reply: func(app *appendEntriesReply) { reply(nil, app) }}
		if msg.Snapshot != nil {
			h.sim.Trace.Record(at, evDeliver, from.id, to, msg.Snapshot.LastIndex<<8|2)
			dst.core.InstallSnapshot(now, msg.Snapshot, tag)
		} else {
			h.sim.Trace.Record(at, evDeliver, from.id, to, (msg.Append.PrevLogIndex+uint64(len(msg.Append.Entries)))<<8|3)
			dst.core.AppendEntries(now, msg.Append, tag)
		}
		if h.cfg.ackBeforeDurable {
			// Broken twin: what waits for the disk is acknowledged now.
			for _, a := range dst.core.acks {
				dst.core.eff.Acks = append(dst.core.eff.Acks, Ack{Tag: a.tag, Reply: &appendEntriesReply{Term: dst.core.term, Success: true}})
			}
			dst.core.acks = nil
		}
		h.settle(dst)
	})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (h *raftSim) transmit(from, to int32, deliver func()) {
	lat, dup, ok := h.net.Deliver(from, to, h.sim.Now())
	if !ok {
		return
	}
	guarded := func() {
		if h.err == nil {
			deliver()
		}
	}
	h.sim.At(lat, guarded)
	if dup {
		h.sim.At(lat+3*time.Millisecond, guarded)
	}
}

// --- clients ---

var simKeys = []string{"a", "b", "c", "d"}

// nextOp starts a client's next operation after its think time.
func (h *raftSim) nextOp(cl *simClient) {
	if h.err != nil || h.sim.Now().Sub(h.start) > h.cfg.Duration-time.Second {
		return // leave the last second for operations in flight to settle
	}
	now := h.sim.Now()
	op := &clientOp{
		client:   cl.id,
		put:      cl.rng.Float64() < cl.putFrac,
		key:      simKeys[cl.rng.Intn(len(simKeys))],
		call:     now.UnixNano(),
		deadline: now.Add(600 * time.Millisecond),
	}
	if op.put {
		cl.seq++
		op.value = fmt.Sprintf("c%d-%d", cl.id, cl.seq)
	}
	if cl.seed >= 0 {
		cl.guess = cl.seed
	}
	h.sim.At(600*time.Millisecond, func() { h.timeout(op) })
	h.submit(op)
}

// submit hands op to the member its client believes leads.
func (h *raftSim) submit(op *clientOp) {
	if h.err != nil || op.done {
		return
	}
	cl := h.clients[op.client]
	m := h.members[cl.guess]
	op.gen++
	reg := opReg{op: op, gen: op.gen}
	if m.core == nil {
		h.retry(reg, ErrNoLeader)
		return
	}
	h.begin(m, reg)
	h.settle(m)
}

// begin hands reg's operation to m's core — which, having no leader to
// name, parks it the first time round instead.
func (h *raftSim) begin(m *simMember, reg opReg) {
	op, now, first, t := reg.op, h.now(m), !reg.held, &reg
	reg.held, reg.since = true, now
	m.in++
	if first && m.core.Hold(now, t) {
		if h.holds++; h.cfg.neverRelease {
			// Broken twin: the bound that lets a hold go never comes.
			m.core.held[len(m.core.held)-1].deadline = now.Add(time.Hour)
		}
	} else if op.put {
		m.core.Propose(now, []byte(op.key+"="+op.value), t, time.Time{})
	} else {
		m.core.Read(now, t, time.Time{})
	}
}

// retry re-submits an attempt that certainly did not execute, following
// the leader hint when the refusal carries one.
func (h *raftSim) retry(reg opReg, err error) {
	op := reg.op
	if op.done || op.gen != reg.gen {
		return
	}
	cl := h.clients[op.client]
	hint := ""
	if i := strings.Index(err.Error(), "(leader: "); i >= 0 && errors.Is(err, ErrNotLeader) {
		hint = strings.TrimSuffix(err.Error()[i+len("(leader: "):], ")")
	}
	if id, ok := h.byAddr[hint]; ok {
		cl.guess = id
	} else {
		cl.guess = (cl.guess + 1) % int32(h.cfg.Nodes)
	}
	h.sim.At(10*time.Millisecond, func() {
		if op.gen == reg.gen && h.sim.Now().Before(op.deadline) {
			h.submit(op)
		}
	})
}

func (h *raftSim) finish(op *clientOp, out sim.KVOutput) {
	op.done = true
	now := h.sim.Now()
	in := sim.KVInput{Op: sim.KVGet, Key: op.key}
	if op.put {
		in = sim.KVInput{Op: sim.KVPut, Key: op.key, Value: op.value}
	}
	h.history = append(h.history, sim.Op{Client: op.client, Input: in, Output: out, Call: op.call, Return: now.UnixNano()})
	h.sim.Trace.Record(now, evClientOp, int32(op.client), -1, uint64(len(h.history)))
	cl := h.clients[op.client]
	h.sim.At(time.Duration(10+cl.rng.Intn(40))*time.Millisecond, func() { h.nextOp(cl) })
}

// timeout gives up on op. A put that some member appended may still
// commit: it stays in the history as ambiguous, concurrent with
// everything after it. A read that never returned observed nothing.
func (h *raftSim) timeout(op *clientOp) {
	if op.done || h.err != nil {
		return
	}
	op.done = true
	if op.put {
		h.history = append(h.history, sim.Op{
			Client: op.client, Input: sim.KVInput{Op: sim.KVPut, Key: op.key, Value: op.value},
			Output: sim.Unobserved, Call: op.call, Return: sim.PendingReturn, Maybe: true,
		})
	}
	cl := h.clients[op.client]
	cl.guess = (cl.guess + 1) % int32(h.cfg.Nodes)
	h.nextOp(cl)
}

// --- invariants ---

func (h *raftSim) checkInvariants(m *simMember) {
	st := m.core.Status()
	now := h.sim.Now()
	// Election safety: at most one leader per term.
	if st.Role == Leader {
		if prev, ok := h.leaderOf[st.Term]; ok && prev != m.id {
			h.failf("election safety: n%d and n%d both led term %d", prev, m.id, st.Term)
			return
		}
		h.leaderOf[st.Term] = m.id
	}
	if st.Role != m.role {
		h.sim.Trace.Record(now, evRole, m.id, -1, st.Term<<2|uint64(st.Role))
		if st.Role == Leader {
			h.elections++
			h.checkLeaderCompleteness(m, st.Term)
		}
		if m.role == Leader && m.id == h.exiting && h.exitAt.IsZero() {
			h.exitAt = now
		}
		m.role = st.Role
	}
	// A follower restart never deposes a healthy leader, and a held
	// request is answered within an election timeout.
	if h.settledTerm != 0 && st.Term > h.settledTerm {
		h.failf("n%d moved to term %d: a follower restart deposed the healthy leader of term %d", m.id, st.Term, h.settledTerm)
		return
	}
	for _, hd := range m.core.held {
		reg := hd.tag.(*opReg)
		if held := h.now(m).Sub(reg.since); held > h.cfg.Protocol.ElectionTimeoutMax { // by the member's clock, like the bound
			h.failf("n%d has held client %d's operation for %v: the bound is %v", m.id, reg.op.client, held, h.cfg.Protocol.ElectionTimeoutMax)
			return
		}
	}
	// The ledger: tags in = tags out + tags held; one back twice is one out too many.
	if k := m.core.outstanding(); m.in != m.out+k {
		h.failf("ledger: n%d was handed %d tags, has handed back %d and holds %d", m.id, m.in, m.out, k)
		return
	}
	// Committed entries are committed for good, and identically
	// everywhere.
	if st.CommitIndex > m.seenCommit {
		h.sim.Trace.Record(now, evCommit, m.id, -1, st.CommitIndex)
		for idx := max(m.seenCommit+1, m.firstIndex()); idx <= st.CommitIndex; idx++ {
			e, err := m.entry(idx)
			if err != nil {
				h.failf("n%d: commit index %d beyond its log: %v", m.id, st.CommitIndex, err)
				return
			}
			if ref, ok := h.committed[idx]; !ok {
				h.committed[idx] = e
				h.maxCommitted = max(h.maxCommitted, idx)
				if h.firstCommit.IsZero() {
					h.firstCommit = now
				}
				if !h.exitAt.IsZero() && h.exitGap == 0 {
					h.exitGap = now.Sub(h.exitAt) // still 0 for what the leaver itself committed last
				}
				if !h.lostAt.IsZero() {
					h.gaps = append(h.gaps, now.Sub(h.lostAt))
					h.lostAt = time.Time{}
				}
			} else if ref.Term != e.Term || !bytes.Equal(ref.Data, e.Data) {
				h.failf("n%d commits %d/%q at index %d, %d/%q was committed there", m.id, e.Term, e.Data, idx, ref.Term, ref.Data)
				return
			}
		}
		m.seenCommit = st.CommitIndex
	}
	// Log matching, against every other log (crashed members' logs are
	// still on their disks).
	if m.version != m.checkedVer {
		m.checkedVer = m.version
		for _, o := range h.members {
			if o != m {
				h.checkLogMatching(m, o)
			}
		}
	}
}

// checkLeaderCompleteness: the leader of a term holds every entry
// committed before it was elected (or a snapshot that covers it).
func (h *raftSim) checkLeaderCompleteness(m *simMember, term uint64) {
	if m.lastIndex() < h.maxCommitted {
		h.failf("leader completeness: n%d leads term %d with last index %d, index %d is committed",
			m.id, term, m.lastIndex(), h.maxCommitted)
		return
	}
	for idx := m.firstIndex(); idx <= h.maxCommitted; idx++ {
		ref, ok := h.committed[idx]
		if !ok {
			continue // committed while every observer had it compacted
		}
		if e, err := m.entry(idx); err != nil || e.Term != ref.Term || !bytes.Equal(e.Data, ref.Data) {
			h.failf("leader completeness: n%d leads term %d without committed entry %d (%d/%q): has %d/%q, %v",
				m.id, term, idx, ref.Term, ref.Data, e.Term, e.Data, err)
			return
		}
	}
}

// checkLogMatching: if two logs hold an entry with the same index and
// term, they are identical in all entries up to that index.
func (h *raftSim) checkLogMatching(a, b *simMember) {
	lo := max(a.firstIndex(), b.firstIndex())
	hi := min(a.lastIndex(), b.lastIndex())
	agree := uint64(0)
	for idx := hi; idx >= lo && idx > 0; idx-- {
		ea, _ := a.entry(idx)
		eb, _ := b.entry(idx)
		if ea.Term == eb.Term {
			agree = idx
			break
		}
	}
	for idx := lo; idx <= agree; idx++ {
		ea, _ := a.entry(idx)
		eb, _ := b.entry(idx)
		if ea.Term != eb.Term || ea.Type != eb.Type || !bytes.Equal(ea.Data, eb.Data) {
			h.failf("log matching: n%d and n%d agree at index %d (term %d) but differ at %d: %d/%q vs %d/%q",
				a.id, b.id, agree, ea.Term, idx, ea.Term, ea.Data, eb.Term, eb.Data)
			return
		}
	}
}

// --- tests ---

// replayLine is the reproduction line every failing sim run prints.
func replayLine(t *testing.T, seed int64) string {
	return testutil.ReplayLine(t, seed, "./internal/raft/")
}

// TestRaftSimSeedMatrix: 3- and 5-member groups, on a disk faster and
// on one slower than the network, under loss, duplication, delay, a
// partition window, two crash-restarts and a power failure per seed.
// Every invariant holds after every event and every client history is
// linearizable. Deterministic per seed: a seed that passes once always
// passes.
func TestRaftSimSeedMatrix(t *testing.T) {
	var gaps []time.Duration
	defer func() {
		if len(gaps) > 0 {
			sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
			t.Logf("no commit after the leader was lost (%d times): median %v, worst %v", len(gaps), gaps[len(gaps)/2], gaps[len(gaps)-1])
		}
	}()
	for _, nodes := range []int{3, 5} {
		for _, disk := range simDisks {
			for _, seed := range testutil.SimSeeds(t, 8) {
				t.Run(fmt.Sprintf("n=%d/disk=%s/seed=%d", nodes, disk.name, seed), func(t *testing.T) {
					cfg := testRaftSimConfig(nodes, seed)
					cfg.PersistMin, cfg.PersistMax = disk.min, disk.max
					r := runRaftSim(cfg)
					t.Logf("%s", r)
					if r.Err != nil {
						t.Log(replayLine(t, seed))
						t.Fatal(r.Err)
					}
					gaps = append(gaps, r.Gaps...)
					// The schedule must have exercised what it claims to.
					if r.Ops < 100 || r.Elections < 2 || r.Restores == 0 {
						t.Log(replayLine(t, seed))
						t.Fatalf("thin run: %s", r)
					}
				})
			}
		}
	}
}

// TestRaftSimDeterministicReplay: two runs at one seed produce the same
// trace — same events, same rolling hash, same history; another seed
// produces a different one.
func TestRaftSimDeterministicReplay(t *testing.T) {
	seed := testutil.SimSeeds(t, 1)[0]
	a := runRaftSim(testRaftSimConfig(5, seed))
	b := runRaftSim(testRaftSimConfig(5, seed))
	t.Logf("run1: %s", a)
	t.Logf("run2: %s", b)
	if a.Err != nil {
		t.Log(replayLine(t, seed))
		t.Fatal(a.Err)
	}
	if a.String() != b.String() || len(a.History) != len(b.History) {
		t.Fatalf("replay diverged:\n  run1: %s\n  run2: %s", a, b)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("histories differ at op %d: %+v vs %+v", i, a.History[i], b.History[i])
		}
	}
	if c := runRaftSim(testRaftSimConfig(5, seed+1)); c.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced identical traces")
	}
}

// caughtBy runs broken over the seeds until one of them fails, which
// must be with one of the violations in want, identically on replay,
// and with a replay line that pins the seed.
func caughtBy(t *testing.T, broken func(seed int64) raftSimConfig, want ...string) {
	t.Helper()
	for _, seed := range testutil.SimSeeds(t, 8) {
		r := runRaftSim(broken(seed))
		if r.Err == nil {
			continue
		}
		expected := false
		for _, w := range want {
			expected = expected || strings.Contains(r.Err.Error(), w)
		}
		if !expected {
			t.Fatalf("seed %d: the broken rule surfaced as %v, want one of %q", seed, r.Err, want)
		}
		line := replayLine(t, seed)
		t.Logf("caught: %v\n%s", r.Err, line)
		if !strings.Contains(line, fmt.Sprintf("SIM_SEED=%d go test", seed)) {
			t.Fatalf("replay line %q does not pin the seed", line)
		}
		// The line is only worth printing if the seed reproduces.
		if again := runRaftSim(broken(seed)); again.Err == nil || again.Err.Error() != r.Err.Error() || again.TraceHash != r.TraceHash {
			t.Fatalf("seed %d did not replay: %v (trace %016x) then %v (trace %016x)", seed, r.Err, r.TraceHash, again.Err, again.TraceHash)
		}
		return
	}
	t.Fatal("the broken rule went unnoticed on every seed")
}

// TestRaftSimCatchesBrokenRule proves the invariant checks have teeth:
// with members that forget whom they voted for (the hook lives in this
// file, the Core is untouched) and election timeouts close enough to
// collide, two members win the same term — and the run must stop at
// that event with an election-safety violation, identically on replay.
func TestRaftSimCatchesBrokenRule(t *testing.T) {
	caughtBy(t, func(seed int64) raftSimConfig {
		cfg := testRaftSimConfig(5, seed)
		cfg.forgetVotes = true
		cfg.Protocol.ElectionTimeoutMax = cfg.Protocol.ElectionTimeoutMin + 2*time.Millisecond
		return cfg
	}, "election safety")
}

// TestRaftSimCatchesBrokenDurability: the two ways of getting "durable
// before it counts" wrong. A leader that counts itself when it hands an
// entry to its disk, or a follower that acknowledges one then, commits
// — and answers a client — on copies a power cut erases.
func TestRaftSimCatchesBrokenDurability(t *testing.T) {
	// How a committed entry that was erased shows: a leader is elected
	// without it, another entry is committed or applied in its place, or
	// a read misses the write.
	lostWrite := []string{"leader completeness", "was committed there", "state-machine safety", "not linearizable"}
	// A power cut a second and a disk of very uneven pace, so that a cut
	// falls between a commit and the disks it was counted on.
	brownout := func(seed int64) raftSimConfig {
		cfg := testRaftSimConfig(3, seed)
		cfg.PersistMin, cfg.PersistMax = time.Millisecond, 40*time.Millisecond
		cfg.PowerCuts = nil
		for at := 1500 * time.Millisecond; at < cfg.Duration-time.Second; at += time.Second {
			cfg.PowerCuts = append(cfg.PowerCuts, at)
		}
		return cfg
	}
	t.Run("sound", func(t *testing.T) { // the schedule alone breaks nothing
		for _, seed := range testutil.SimSeeds(t, 8) {
			if r := runRaftSim(brownout(seed)); r.Err != nil {
				t.Log(replayLine(t, seed))
				t.Fatal(r.Err)
			}
		}
	})
	t.Run("leader counts itself at Persist", func(t *testing.T) {
		caughtBy(t, func(seed int64) raftSimConfig {
			cfg := brownout(seed)
			cfg.selfCountAtPersist = true
			return cfg
		}, lostWrite...)
	})
	t.Run("follower acknowledges before Persisted", func(t *testing.T) {
		caughtBy(t, func(seed int64) raftSimConfig {
			cfg := brownout(seed)
			cfg.ackBeforeDurable = true
			return cfg
		}, lostWrite...)
	})
}

// --- what a planned event costs ---

// quietRaftSimConfig is a group nothing goes wrong in: no message
// faults, no partition, no crash but what its scenario schedules.
func quietRaftSimConfig(nodes int, seed int64, scenario func(h *raftSim)) raftSimConfig {
	cfg := testRaftSimConfig(nodes, seed)
	cfg.Faults = mercury.ChaosConfig{}
	cfg.Scenario = scenario
	cfg.Duration = 4 * time.Second
	return cfg
}

// The simulated network delivers in 1–2 ms.
const simMaxDelay = 2 * time.Millisecond

// TestRaftSimColdStart: a virgin group is in service an election after
// it starts, not an election timeout after. Counted from the last
// member's start, the first commit — the winner's no-op — comes within a
// heartbeat interval (the first deadline) plus the vote's and the no-op's
// round trips and one disk write in at least nine seeds of ten, and
// within two election timeouts in all. Members that start a whole
// heartbeat interval apart are the rule's worst case: the early ones
// campaign before a quorum is up, term 1's votes split between them, and
// the group falls back on the timers it would have waited for anyway —
// rarely with three members, in about one seed of five with five (162 of
// 200), which is why that cell only reports its share.
func TestRaftSimColdStart(t *testing.T) {
	seeds := testutil.SimSeeds(t, 32)
	for _, nodes := range []int{3, 5} {
		for _, stagger := range []time.Duration{simMaxDelay, 50 * time.Millisecond} {
			t.Run(fmt.Sprintf("n=%d/within=%v", nodes, stagger), func(t *testing.T) {
				prompt, worst := 0, time.Duration(0)
				for _, seed := range seeds {
					cfg := quietRaftSimConfig(nodes, seed, func(*raftSim) {})
					cfg.Stagger, cfg.Duration = stagger, 2*time.Second
					r := runRaftSim(cfg)
					if r.Err != nil {
						t.Log(replayLine(t, seed))
						t.Fatal(r.Err)
					}
					if r.ColdStart > 2*cfg.Protocol.ElectionTimeoutMax {
						t.Log(replayLine(t, seed))
						t.Fatalf("seed %d: first commit %v after the last member started", seed, r.ColdStart)
					}
					if r.ColdStart <= cfg.Protocol.HeartbeatInterval+4*simMaxDelay+cfg.PersistMax {
						prompt++
					}
					worst = max(worst, r.ColdStart)
				}
				t.Logf("first commit within a heartbeat interval and two round trips in %d/%d seeds, worst %v", prompt, len(seeds), worst)
				if spread := nodes == 5 && stagger > simMaxDelay; !spread && prompt*10 < len(seeds)*9 {
					t.Fatalf("only %d of %d seeds had a leader within a heartbeat interval and two round trips", prompt, len(seeds))
				}
			})
		}
	}
}

// TestRaftSimPlannedExit: a leader that is stopped gracefully, or
// removed from the group, under client load hands over with TimeoutNow.
// With no faults the group goes without a commit for five message
// delays — TimeoutNow, the vote's round trip, the no-op's — and one disk
// write; with the matrix's loss, duplication and delay on every link,
// where the TimeoutNow itself may be lost, never for two election
// timeouts.
func TestRaftSimPlannedExit(t *testing.T) {
	exits := map[string]func(h *raftSim, m *simMember){
		"stop": func(h *raftSim, m *simMember) { h.stop(m.id) },
		"remove": func(h *raftSim, m *simMember) {
			if m.core.ChangeConfig(h.now(m), m.addr, true, nil, time.Time{}) == 0 {
				h.failf("n%d: the leader refused to remove itself", m.id)
			}
			h.settle(m)
		},
	}
	for name, exit := range exits {
		scenario := func(h *raftSim) {
			h.sim.At(1500*time.Millisecond, func() {
				m := h.leader()
				if m == nil {
					h.failf("no leader to send away")
					return
				}
				h.exiting = m.id
				exit(h, m)
			})
		}
		for _, nodes := range []int{3, 5} {
			for _, faults := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n=%d/faults=%v", name, nodes, faults), func(t *testing.T) {
					var worst time.Duration
					defer func() { t.Logf("worst gap after the exit: %v", worst) }()
					for _, seed := range testutil.SimSeeds(t, 8) {
						cfg := quietRaftSimConfig(nodes, seed, scenario)
						bound := 5*simMaxDelay + cfg.PersistMax
						if faults {
							cfg.Faults = testRaftSimConfig(nodes, seed).Faults
							bound = 2 * cfg.Protocol.ElectionTimeoutMax
						}
						r := runRaftSim(cfg)
						if r.Err != nil {
							t.Log(replayLine(t, seed))
							t.Fatal(r.Err)
						}
						worst = max(worst, r.ExitGap)
						if r.ExitGap <= 0 || r.ExitGap > bound || r.Ops < 50 {
							t.Log(replayLine(t, seed))
							t.Fatalf("seed %d: no commit for %v after the leader left, bound %v (%s)", seed, r.ExitGap, bound, r)
						}
					}
				})
			}
		}
	}
}

// isolatedSeed cuts one follower off from the group for good and makes
// it the member client 0 begins every operation at. Once its election
// timer has run out the member knows no leader, and no transition will
// ever name one: only the bound lets its held requests go.
func isolatedSeed(h *raftSim) {
	h.sim.At(time.Second, func() {
		for _, m := range h.members {
			if !m.core.IsLeader() {
				h.net.SetDown(m.id, true)
				h.clients[0].seed = m.id
				return
			}
		}
	})
}

// TestRaftSimHeldRequestsAreBounded: a client whose first seed is
// partitioned alone still gets its answers — from the seed, a refusal
// no later than one election timeout after it asked (checked after every
// event), and then from the leader.
func TestRaftSimHeldRequestsAreBounded(t *testing.T) {
	for _, seed := range testutil.SimSeeds(t, 8) {
		r := runRaftSim(quietRaftSimConfig(3, seed, isolatedSeed))
		if r.Err != nil {
			t.Log(replayLine(t, seed))
			t.Fatal(r.Err)
		}
		reads := 0
		for _, op := range r.History {
			if op.Client == 0 && time.Duration(op.Call-r.History[0].Call) > time.Second {
				reads++
			}
		}
		if r.Holds < 3 || reads < 3 {
			t.Log(replayLine(t, seed))
			t.Fatalf("seed %d: %d operations held, %d of client 0's completed while its seed was cut off (%s)", seed, r.Holds, reads, r)
		}
	}
}

// followerRestart restarts a follower of a group nothing is wrong with.
// From then on nobody has cause to leave the leader's term.
func followerRestart(h *raftSim) {
	h.sim.At(1500*time.Millisecond, func() {
		leader := h.leader()
		if leader == nil {
			h.failf("no leader")
			return
		}
		for _, m := range h.members {
			if m != leader {
				h.crash(m.id)
				h.sim.At(200*time.Millisecond, func() {
					h.settledTerm = leader.core.term
					h.restart(m.id)
				})
				return
			}
		}
	})
}

// TestRaftSimCatchesForgottenTag: a core that forgets who waits for an
// entry a newer leader overwrote hands one tag too few back.
func TestRaftSimCatchesForgottenTag(t *testing.T) {
	caughtBy(t, func(seed int64) raftSimConfig {
		cfg := testRaftSimConfig(3, seed)
		cfg.forgetOverwritten = true
		return cfg
	}, "ledger: ")
}

// TestRaftSimCatchesBrokenTiming: the two ways of getting the timing
// rules wrong, each a hook in this file on an untouched Core. The fast
// first deadline is for a member that never had a leader; given to one
// that restarts with a term, it campaigns before the next heartbeat
// reaches it and deposes a leader nothing was wrong with. And a held
// request whose bound never comes outlives it.
func TestRaftSimCatchesBrokenTiming(t *testing.T) {
	t.Run("sound", func(t *testing.T) { // the schedules alone break nothing
		for _, seed := range testutil.SimSeeds(t, 8) {
			for _, nodes := range []int{3, 5} {
				if r := runRaftSim(quietRaftSimConfig(nodes, seed, followerRestart)); r.Err != nil {
					t.Log(replayLine(t, seed))
					t.Fatal(r.Err)
				}
			}
		}
	})
	t.Run("a restarted member is as impatient as a virgin one", func(t *testing.T) {
		caughtBy(t, func(seed int64) raftSimConfig {
			cfg := quietRaftSimConfig(3, seed, followerRestart)
			cfg.fastRestart = true
			return cfg
		}, "a follower restart deposed the healthy leader")
	})
	t.Run("a held request is never released", func(t *testing.T) {
		caughtBy(t, func(seed int64) raftSimConfig {
			cfg := quietRaftSimConfig(3, seed, isolatedSeed)
			cfg.neverRelease = true
			return cfg
		}, "has held client")
	})
}

// --- the lease ---

// leaseAttack is a schedule that gets a second leader elected, and writes
// committed under it, while the first is cut off from its peers — not
// from the clients — and may still trust its lease: harmless when every
// rule the lease rests on holds, a stale read when one does not. The seed
// matrix is too kind for that: its members campaign only after their
// leader has been silent for an election timeout, by which time any lease
// has run out. Each field is one way a member asks for votes, or answers,
// sooner.
type leaseAttack struct {
	// candidate: a follower is cut off alone until it campaigns, and let
	// back in the instant before its next attempt: a member with nothing
	// to catch up on asking for votes while the others still hear the
	// leader.
	candidate bool
	// restart: the other follower crashes and restarts just before.
	restart bool
	// transfer: the leader names its successor, and stays.
	transfer bool
	// lull: the answers to what the leader sends take that much longer
	// than other messages, and the cut falls just before its next
	// heartbeat: what it last sent is at its oldest, the answer at its
	// newest.
	lull time.Duration
}

func (atk leaseAttack) scenario(h *raftSim) {
	for at := time.Second; at < h.cfg.Duration-1500*time.Millisecond; at += 1300 * time.Millisecond {
		h.sim.At(at, func() { atk.episode(h) })
	}
}

// writes switches the writing clients' puts on or off.
func (h *raftSim) writes(on bool) {
	for _, cl := range h.clients[1:] {
		cl.putFrac = 0
		if on {
			cl.putFrac = 0.5
		}
	}
}

func (atk leaseAttack) episode(h *raftSim) {
	a := h.leader()
	var others []*simMember
	for _, m := range h.members {
		if m != a && m.core != nil {
			others = append(others, m)
		}
	}
	if a == nil || len(others) < 2 {
		return
	}
	b, c := others[0], others[1]
	// From here to the cut nothing is appended: whoever campaigns has the
	// whole log, and only heartbeats leave the leader.
	h.writes(false)
	h.net.SetDown(c.id, atk.candidate)
	if atk.lull > 0 {
		h.slowAcks, h.ackLag = a, atk.lull
	}
	strike := func() {
		if atk.transfer {
			a.core.Transfer()
			h.settle(a)
		}
		h.net.SetDown(a.id, true)
		h.net.SetDown(c.id, false)
		// The reader stays with the leader it knows; the writers go to its
		// successor the moment there is one.
		h.clients[0].guess = a.id
		var follow func()
		follow = func() {
			for _, m := range h.members {
				if m != a && m.core != nil && m.core.IsLeader() {
					h.writes(true)
					for _, cl := range h.clients[1:] {
						cl.seed = m.id
					}
					return
				}
			}
			if h.net.Down(a.id) {
				h.sim.At(2*time.Millisecond, follow)
			}
		}
		follow()
		h.sim.At(450*time.Millisecond, func() {
			h.net.SetDown(a.id, a.core == nil)
			h.slowAcks = nil
			h.writes(true)
			for _, cl := range h.clients[1:] {
				cl.seed = -1
			}
		})
	}
	var aim func()
	aim = func() {
		wait := 10 * time.Millisecond
		switch {
		case atk.candidate:
			wait = h.until(c, c.core.electionAt)
		case atk.lull > 0:
			wait = h.until(a, a.core.heartbeatAt)
		}
		if wait < 10*time.Millisecond {
			h.sim.At(wait+time.Millisecond, aim) // too close: the one after
			return
		}
		if atk.restart {
			h.sim.At(wait-7*time.Millisecond, func() { h.crash(b.id) })
			h.sim.At(wait-4*time.Millisecond, func() { h.restart(b.id) })
		}
		h.sim.At(wait-time.Millisecond, strike)
	}
	h.sim.At(350*time.Millisecond, aim)
}

// TestRaftSimCatchesBrokenLease: the four rules that make a read under
// the lease safe, each broken by a hook in this file on an untouched Core
// and each, under the schedule that leans on it, answered by a history
// the checker rejects: a voter that does not withhold, a restarted member
// that does not count its boot as a contact, a leader that trusts its
// lease after naming a successor, and a lease counted from when an
// acknowledgement arrived instead of from when what it acknowledges left.
func TestRaftSimCatchesBrokenLease(t *testing.T) {
	twins := []struct {
		name    string
		nodes   int
		attack  leaseAttack
		breakIt func(cfg *raftSimConfig)
	}{
		{"grantInsideLease", 3, leaseAttack{candidate: true}, func(cfg *raftSimConfig) { cfg.grantInsideLease = true }},
		{"forgetContactOnRestart", 3, leaseAttack{candidate: true, restart: true}, func(cfg *raftSimConfig) { cfg.forgetContactOnRestart = true }},
		{"leaseSurvivesTransfer", 3, leaseAttack{transfer: true}, func(cfg *raftSimConfig) { cfg.leaseSurvivesTransfer = true }},
		{"leaseFromReply", 5, leaseAttack{lull: 80 * time.Millisecond}, func(cfg *raftSimConfig) { cfg.leaseFromReply = true }},
	}
	for _, tw := range twins {
		config := func(seed int64) raftSimConfig {
			cfg := quietRaftSimConfig(tw.nodes, seed, tw.attack.scenario)
			cfg.Duration = 8 * time.Second
			if tw.attack.lull > 0 {
				// Heartbeats far apart and timers close together: the followers'
				// patience starts long before the leader hears that it did, and
				// ends soon after the leader's own should have.
				cfg.Protocol.HeartbeatInterval = 100 * time.Millisecond
				cfg.Protocol.ElectionTimeoutMax = 200 * time.Millisecond
			}
			return cfg
		}
		t.Run(tw.name+"/sound", func(t *testing.T) { // the schedule alone breaks nothing
			for _, seed := range testutil.SimSeeds(t, 8) {
				r := runRaftSim(config(seed))
				if r.Err != nil || r.Elections < 3 {
					t.Log(replayLine(t, seed))
					t.Fatalf("%v (%s)", r.Err, r)
				}
			}
		})
		t.Run(tw.name, func(t *testing.T) {
			caughtBy(t, func(seed int64) raftSimConfig {
				cfg := config(seed)
				tw.breakIt(&cfg)
				return cfg
			}, "not linearizable")
		})
	}
}
