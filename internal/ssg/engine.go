package ssg

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// This file holds the transport-free SWIM protocol core. Engine owns
// every protocol rule — the membership table, incarnation arithmetic,
// suspicion clocks, gossip budgets, probe-target selection and the
// probe round itself (direct ping, ack window, k ping-reqs, relays on
// behalf of others, the verdict at the end of the period) — but
// performs no I/O, reads no clock and starts no goroutines. Inputs are
// events carrying the current time (a timer tick, a ping, a ping-req or
// an ack from a peer, membership assertions); outputs are the Effects
// each step leaves behind plus the next timer deadline. Members are
// dense int32 IDs throughout; addresses exist only in the AddrTable.
// Two drivers run it:
//
//   - the live Group (group.go), which wraps one Engine in a mutex and
//     wires it to margo RPCs, a timer goroutine, a few senders and the
//     one notifier goroutine that calls membership callbacks; and
//   - the deterministic simulator (internal/sim), which runs thousands
//     of engines single-threaded on sim.Sim + sim.Net, so the code that
//     decides "ping-req", "suspect", "dead" and "refute" in production
//     is the code that is checked at 10k nodes.
//
// An Engine is NOT safe for concurrent use: the caller serializes all
// calls, and consumes the Effects of one step before the next input.
//
// Memory layout is deliberately compact so a 10k-node simulation
// (10k engines x 10k members = 100M membership records) stays within a
// couple of GB: per-member state is an 8-byte slot in a flat slice
// indexed by ID — no per-member allocation, no per-engine strings.

// AddrTable interns member addresses into dense int32 IDs. A table may
// be shared by many engines (the simulator shares one across the whole
// cluster so each address string is stored once); callers must
// serialize access along with the engines that use it.
type AddrTable struct {
	ids   map[string]int32
	addrs []string
}

// NewAddrTable returns an empty table.
func NewAddrTable() *AddrTable { return &AddrTable{ids: map[string]int32{}} }

// Intern returns the ID for addr, assigning the next dense ID on first
// sight.
func (t *AddrTable) Intern(addr string) int32 {
	if id, ok := t.ids[addr]; ok {
		return id
	}
	id := int32(len(t.addrs))
	t.ids[addr] = id
	t.addrs = append(t.addrs, addr)
	return id
}

// Addr returns the address for a previously interned ID.
func (t *AddrTable) Addr(id int32) string { return t.addrs[id] }

// Len returns the number of interned addresses.
func (t *AddrTable) Len() int { return len(t.addrs) }

// IDUpdate is a gossiped membership assertion: "ID is in this state at
// this incarnation". It rides piggyback on probe traffic and is the
// unit the update rules consume; Update (wire.go) is its address-keyed
// wire form.
type IDUpdate struct {
	ID          int32
	Incarnation uint64
	State       State
}

// MsgKind says which of the three SWIM messages a Msg is.
type MsgKind uint8

const (
	// MsgPing asks To for an ack.
	MsgPing MsgKind = iota + 1
	// MsgPingReq asks To to ping Target and report back.
	MsgPingReq
	// MsgAck answers the ping or ping-req the receiver sent as Seq.
	MsgAck
)

// Msg is one message the engine wants delivered. Seq is the sender's
// number for a ping or ping-req and comes back unchanged in the ack
// that answers it.
type Msg struct {
	Kind   MsgKind
	To     int32
	Target int32 // MsgPingReq only
	Seq    uint64
	// OK on an ack to a ping-req says the target answered the relayed
	// ping; an ack to a ping always carries true.
	OK bool
	// Timeout, on a ping or ping-req, is how long an answer can still
	// matter: a driver that holds resources for the exchange may drop
	// them after that.
	Timeout time.Duration
	Updates []IDUpdate
}

// Transition is one membership change as seen by this member. A newly
// discovered member arrives as a transition from StateDead.
type Transition struct {
	ID          int32
	Incarnation uint64
	Old, New    State
}

// Effects is what a step asks its driver to do: deliver Msgs (loss is
// tolerated) and report Transitions, both in order.
type Effects struct {
	Msgs        []Msg
	Transitions []Transition
}

// slot is one member's state as seen by one engine: 8 bytes, indexed
// by interned ID. Suspicion deadlines live in a side map because at
// any instant only a handful of members are suspects.
//
// Incarnations are stored as uint32 (the wire type stays uint64):
// incarnations start at zero and bump only on refutation, so four
// billion is unreachable in practice; absurd remote values saturate,
// which freezes that member's conflict resolution at the cap rather
// than corrupting it. Halving the slot matters because the simulator
// holds 100M of them (10k engines x 10k members).
type slot struct {
	inc     uint32
	state   State
	present bool
}

// clampInc saturates a wire incarnation into slot storage.
func clampInc(v uint64) uint32 {
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

// The gossip buffer keeps at most ONE pending assertion per member —
// the latest one (memberlist semantics: a newer assertion about a
// member supersedes any older queued one; retransmitting an obsolete
// rumor would only waste the pipe). Budget-indexed buckets give
// O(PiggybackLimit) freshest-first selection with no hashing in the
// probe hot path.
//
// Each bucket entry carries the full assertion inline (gEntry), so a
// takeGossip scan reads sequentially; the only random access per entry
// is one packed meta word (gen<<16 | budget) that decides liveness: an
// entry is current iff its generation matches the member's. Enqueueing
// bumps the generation, which lazily invalidates every older copy.

// gEntry is one queued assertion, stored inline in its budget bucket.
type gEntry struct {
	id    int32
	gen   uint16
	state State
	inc   uint32
}

// round is the probe this member started in the current period.
type round struct {
	pending bool // no ack yet: a verdict is due at the end of the period
	target  int32
	seq     uint64 // of the direct ping
	reqLo   uint64 // the ping-reqs took seqs (reqLo, reqHi]
	reqHi   uint64
}

// relay is a ping in flight on behalf of a ping-req.
type relay struct {
	seq      uint64 // of our ping to target
	from     int32  // who asked
	reqSeq   uint64 // their number for the ping-req
	target   int32
	deadline time.Time
}

// Engine is one member's SWIM protocol state machine.
type Engine struct {
	tbl   *AddrTable
	cfg   Config
	rng   *rand.Rand
	stats *Stats

	self    int32
	selfInc uint64
	version uint64

	slots []slot
	order []int32 // present member IDs, sorted by address

	gMeta    []uint32   // per member: generation<<16 | remaining budget (0 = idle)
	gLive    int        // members with budget > 0
	gEntries int        // bucket entries not yet passed by a head (incl. stale)
	gTop     int        // highest bucket that may hold live entries
	buckets  [][]gEntry // buckets[b]: assertions enqueued at budget b, FIFO
	heads    []int      // per-bucket scan offset past consumed/stale entries
	lens     []int      // scratch: bucket-length snapshot for one takeGossip call

	dead []int32 // members seen transitioning to dead (lazily cleaned)

	suspectAt   map[int32]time.Time
	suspectNext time.Time // earliest deadline in suspectAt (conservative)

	probe    []int32
	probeIdx int

	// The three timers. periodAt ends the current protocol period: the
	// round gets its verdict and the next one starts. ackAt, non-zero
	// while the direct ack is awaited, fans the ping-reqs out. relays
	// are in deadline order; a due one is answered "no".
	periodAt time.Time
	ackAt    time.Time
	relays   []relay
	round    round
	seq      uint64

	eff Effects
}

// NewEngine creates the protocol core for self, bootstrapped with the
// given members (self is added if absent); every ID must come from
// tbl. cfg defaults are applied. rng drives probe-order shuffling and
// the phase of the first period — members started together must not
// probe in lockstep — and must be seeded by the caller; stats is where
// the engine counts (engines may share one).
func NewEngine(tbl *AddrTable, self int32, members []int32, cfg Config, rng *rand.Rand, stats *Stats, now time.Time) *Engine {
	e := &Engine{
		tbl:       tbl,
		cfg:       cfg.withDefaults(),
		rng:       rng,
		stats:     stats,
		self:      self,
		suspectAt: map[int32]time.Time{},
	}
	// Bulk bootstrap: append members unsorted and sort once, instead of
	// one sorted-insert (an O(n) memmove) per member — at 10k members
	// x 10k simulated engines the incremental path is minutes of setup.
	e.ensure(self)
	e.order = make([]int32, 0, len(members)+1)
	boot := func(id int32) {
		if !e.slots[id].present {
			e.slots[id] = slot{present: true, state: StateAlive}
			e.order = append(e.order, id)
		}
	}
	for _, id := range members {
		boot(id)
	}
	boot(self)
	byAddr := func(i, j int) bool { return tbl.Addr(e.order[i]) < tbl.Addr(e.order[j]) }
	if !sort.SliceIsSorted(e.order, byAddr) {
		sort.Slice(e.order, byAddr)
	}
	e.version++
	e.periodAt = now.Add(time.Duration(rng.Int63n(int64(e.cfg.ProtocolPeriod))))
	return e
}

// Config returns the configuration in force, defaults resolved.
func (e *Engine) Config() Config {
	c := e.cfg
	c.SuspicionPeriods = e.suspicionPeriods()
	return c
}

// suspicionPeriods is the refutation window in protocol periods. Left
// unset it follows the group's size: the window must cover a rumor
// round trip — the suspicion gossiping out to the suspect and the
// refutation gossiping back — and epidemic spread time grows with
// log n. Lifeguard-style scaling: 4 periods per decade of membership.
func (e *Engine) suspicionPeriods() int {
	if e.cfg.SuspicionPeriods > 0 {
		return e.cfg.SuspicionPeriods
	}
	if n := 4 * int(math.Ceil(math.Log10(float64(len(e.order))+1))); n > 4 {
		return n
	}
	return 4
}

// Take returns the effects accumulated since the last call. They alias
// the engine's buffers: use them before the next input.
func (e *Engine) Take() Effects {
	eff := e.eff
	e.eff.Msgs, e.eff.Transitions = e.eff.Msgs[:0], e.eff.Transitions[:0]
	return eff
}

// ensure grows the per-member arrays to cover id.
func (e *Engine) ensure(id int32) {
	if int(id) >= len(e.slots) {
		n := e.tbl.Len()
		grown := make([]slot, n)
		copy(grown, e.slots)
		e.slots = grown
		gm := make([]uint32, n)
		copy(gm, e.gMeta)
		e.gMeta = gm
	}
}

// add registers a newly discovered member: it arrives as a transition
// from StateDead.
func (e *Engine) add(now time.Time, id int32, inc uint64, s State) {
	e.slots[id] = slot{present: true, state: StateDead}
	addr := e.tbl.Addr(id)
	i := sort.Search(len(e.order), func(i int) bool { return e.tbl.Addr(e.order[i]) >= addr })
	e.order = append(e.order, 0)
	copy(e.order[i+1:], e.order[i:])
	e.order[i] = id
	e.transition(now, id, s, inc)
}

// transition applies a state change to a known member, bumping the
// view version and (re)arming or clearing its refutation window.
func (e *Engine) transition(now time.Time, id int32, s State, inc uint64) {
	sl := &e.slots[id]
	old := sl.state
	sl.state = s
	sl.inc = clampInc(inc)
	e.version++
	switch s {
	case StateSuspect:
		// Track the earliest pending deadline so expireSuspicions can
		// skip its map scan on the overwhelmingly common period where
		// nothing is due.
		dl := now.Add(time.Duration(e.suspicionPeriods()) * e.cfg.ProtocolPeriod)
		e.suspectAt[id] = dl
		if e.suspectNext.IsZero() || dl.Before(e.suspectNext) {
			e.suspectNext = dl
		}
	case StateDead:
		e.dead = append(e.dead, id)
		fallthrough
	default:
		delete(e.suspectAt, id)
	}
	e.eff.Transitions = append(e.eff.Transitions, Transition{ID: id, Incarnation: inc, Old: old, New: s})
}

// View returns a snapshot of the membership, sorted by address.
func (e *Engine) View() View {
	v := View{Version: e.version, Members: make([]Member, 0, len(e.order))}
	for _, id := range e.order {
		sl := e.slots[id]
		v.Members = append(v.Members, Member{Addr: e.tbl.Addr(id), Incarnation: uint64(sl.inc), State: sl.state})
	}
	return v
}

// State returns a member's state and incarnation.
func (e *Engine) State(id int32) (State, uint64, bool) {
	if int(id) >= len(e.slots) || !e.slots[id].present {
		return 0, 0, false
	}
	sl := e.slots[id]
	return sl.state, uint64(sl.inc), true
}

// probeable reports whether id is a peer worth pinging: present and
// alive or suspect.
func (e *Engine) probeable(id int32) bool {
	sl := e.slots[id]
	return id != e.self && sl.present && (sl.state == StateAlive || sl.state == StateSuspect)
}

// --- time and the probe round ---

// Deadline is when Tick next has something to do.
func (e *Engine) Deadline() time.Time {
	d := e.periodAt
	if !e.ackAt.IsZero() && e.ackAt.Before(d) {
		d = e.ackAt
	}
	if len(e.relays) > 0 && e.relays[0].deadline.Before(d) {
		d = e.relays[0].deadline
	}
	return d
}

// Tick fires every timer that is due at now.
func (e *Engine) Tick(now time.Time) {
	for len(e.relays) > 0 && !now.Before(e.relays[0].deadline) {
		r := e.relays[0]
		e.relays = e.relays[1:]
		e.send(Msg{Kind: MsgAck, To: r.from, Seq: r.reqSeq, Updates: e.takeGossip()})
	}
	switch {
	case !now.Before(e.periodAt):
		// The SWIM verdict: a round that saw no ack, direct or relayed,
		// by the end of its period suspects its target. A member that
		// slept through a whole further period (a stalled process, a
		// paused VM) cannot tell a dead peer from its own absence and
		// renders none.
		if e.round.pending && now.Sub(e.periodAt) < e.cfg.ProtocolPeriod {
			e.suspect(now, e.round.target)
		}
		e.expireSuspicions(now)
		e.startRound(now)
	case !e.ackAt.IsZero() && !now.Before(e.ackAt):
		e.ackAt = time.Time{}
		left := e.periodAt.Sub(now)
		e.round.reqLo = e.seq
		for _, via := range e.indirectVia(e.round.target, e.cfg.IndirectPings) {
			e.seq++
			e.stats.PingReqsSent.Add(1)
			e.send(Msg{Kind: MsgPingReq, To: via, Target: e.round.target, Seq: e.seq, Timeout: left, Updates: e.takeGossip()})
		}
		e.round.reqHi = e.seq
	}
}

// startRound opens the next protocol period with a direct ping.
func (e *Engine) startRound(now time.Time) {
	e.periodAt = now.Add(e.cfg.ProtocolPeriod)
	e.round, e.ackAt = round{}, time.Time{}
	target, ok := e.nextProbeTarget()
	if !ok {
		return
	}
	e.seq++
	e.round = round{pending: true, target: target, seq: e.seq}
	e.ackAt = now.Add(e.cfg.PingTimeout)
	e.stats.PingsSent.Add(1)
	e.send(Msg{Kind: MsgPing, To: target, Seq: e.seq, Timeout: e.cfg.ProtocolPeriod, Updates: e.takeGossip()})
}

func (e *Engine) send(m Msg) { e.eff.Msgs = append(e.eff.Msgs, m) }

// Ping handles a ping from a peer: fold its gossip in and ack with
// ours. If the pinger itself is locally believed suspect or dead the
// ack says so: telling it triggers its refutation, SWIM's mechanism
// for recovering from false positives.
func (e *Engine) Ping(now time.Time, from int32, seq uint64, ups []IDUpdate) {
	e.Apply(now, ups)
	reply := e.takeGossip()
	if s, inc, ok := e.State(from); ok && (s == StateDead || s == StateSuspect) {
		reply = append(reply, IDUpdate{ID: from, Incarnation: inc, State: s})
	}
	e.send(Msg{Kind: MsgAck, To: from, Seq: seq, OK: true, Updates: reply})
}

// PingReq handles a request to probe target on from's behalf: ping it
// and remember whom to tell. The answer is an ack to from carrying seq,
// sent when target acks or, with OK false, when PingTimeout runs out.
func (e *Engine) PingReq(now time.Time, from int32, seq uint64, target int32, ups []IDUpdate) {
	e.Apply(now, ups)
	e.seq++
	e.relays = append(e.relays, relay{seq: e.seq, from: from, reqSeq: seq, target: target, deadline: now.Add(e.cfg.PingTimeout)})
	e.stats.PingsSent.Add(1)
	e.send(Msg{Kind: MsgPing, To: target, Seq: e.seq, Timeout: e.cfg.PingTimeout, Updates: e.takeGossip()})
}

// Ack handles the answer to the ping or ping-req this member sent as
// seq. A positive answer to the open round settles it, however late in
// the period; one to a relayed ping is passed on to whoever asked.
// Duplicates and answers to anything older only contribute gossip.
func (e *Engine) Ack(now time.Time, from int32, seq uint64, ok bool, ups []IDUpdate) {
	r := &e.round
	if ok && r.pending && (seq == r.seq || (seq > r.reqLo && seq <= r.reqHi)) {
		r.pending, e.ackAt = false, time.Time{}
		e.stats.AcksReceived.Add(1)
		e.noteAlive(now, r.target)
	}
	relayed := -1
	for i := range e.relays {
		if e.relays[i].seq == seq {
			relayed = i
			break
		}
	}
	if relayed >= 0 && ok {
		e.noteAlive(now, e.relays[relayed].target)
	}
	e.Apply(now, ups)
	if relayed >= 0 {
		rl := e.relays[relayed]
		e.relays = append(e.relays[:relayed], e.relays[relayed+1:]...)
		e.send(Msg{Kind: MsgAck, To: rl.from, Seq: rl.reqSeq, OK: ok, Updates: e.takeGossip()})
	}
}

// noteAlive records an ack as evidence of life: a member we believed
// dead is resurrected (its refutation gossip will follow with a higher
// incarnation).
func (e *Engine) noteAlive(now time.Time, id int32) {
	if s, inc, ok := e.State(id); ok && s == StateDead {
		e.transition(now, id, StateAlive, inc)
	}
}

// pickDead returns a uniformly random member currently believed dead,
// compacting stale entries (resurrected members) as it goes.
func (e *Engine) pickDead() (int32, bool) {
	for len(e.dead) > 0 {
		i := e.rng.Intn(len(e.dead))
		id := e.dead[i]
		if e.slots[id].present && e.slots[id].state == StateDead {
			return id, true
		}
		e.dead[i] = e.dead[len(e.dead)-1]
		e.dead = e.dead[:len(e.dead)-1]
	}
	return 0, false
}

// nextProbeTarget implements SWIM's randomized round-robin: a shuffled
// pass over all alive peers, reshuffled when exhausted. With no alive
// peers it falls back to a random dead member so a fully partitioned
// member can rediscover the group after healing.
//
// Even with alive peers, roughly one probe round in 16 targets a dead
// member instead: on a large bisected cluster both halves keep plenty
// of alive peers, so the no-alive-peers fallback never fires and the
// sides would otherwise never re-contact each other after the
// partition heals. An ack from a "dead" member resurrects it
// (noteAlive) and the ack's extra assertion triggers the
// incarnation-bump refutations that spread the resurrection.
func (e *Engine) nextProbeTarget() (int32, bool) {
	if len(e.dead) > 0 && e.rng.Intn(16) == 0 {
		if id, ok := e.pickDead(); ok {
			return id, true
		}
	}
	if e.probeIdx >= len(e.probe) {
		e.probe = e.probe[:0]
		for _, id := range e.order {
			if e.probeable(id) {
				e.probe = append(e.probe, id)
			}
		}
		e.rng.Shuffle(len(e.probe), func(i, j int) { e.probe[i], e.probe[j] = e.probe[j], e.probe[i] })
		e.probeIdx = 0
	}
	for e.probeIdx < len(e.probe) {
		id := e.probe[e.probeIdx]
		e.probeIdx++
		if e.probeable(id) {
			return id, true
		}
	}
	return e.pickDead()
}

// indirectVia returns up to k random alive peers to relay an indirect
// probe of target. For large clusters it rejection-samples from the
// member table instead of materializing and shuffling the full
// candidate list (an O(n) allocation on every failed direct ping);
// dense membership means a handful of draws find k alive peers. Sparse
// or tiny clusters fall back to the exact scan.
func (e *Engine) indirectVia(target int32, k int) []int32 {
	if n := len(e.order); n >= 64 {
		var out []int32
	sample:
		for tries := 0; tries < 8*k+16 && len(out) < k; tries++ {
			id := e.order[e.rng.Intn(n)]
			if id == target || !e.probeable(id) {
				continue
			}
			for _, o := range out {
				if o == id {
					continue sample
				}
			}
			out = append(out, id)
		}
		if len(out) == k {
			return out
		}
	}
	var peers []int32
	for _, id := range e.order {
		if id != target && e.probeable(id) {
			peers = append(peers, id)
		}
	}
	e.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > k {
		peers = peers[:k]
	}
	return peers
}

// --- gossip ---

// enqueueGossip queues an assertion for piggybacking with a budget of
// RetransmitMult*log2(N+1) transmissions, superseding any older
// queued assertion about the same member (the generation bump lazily
// invalidates every older bucket copy).
func (e *Engine) enqueueGossip(id int32, inc uint64, s State) {
	n := len(e.order)
	budget := e.cfg.RetransmitMult * int(math.Ceil(math.Log2(float64(n+1))))
	if budget < 1 {
		budget = 1
	}
	m := e.gMeta[id]
	if m&0xffff == 0 {
		e.gLive++
	}
	gen := uint16(m>>16) + 1
	e.gMeta[id] = uint32(gen)<<16 | uint32(budget)
	e.bucketPut(budget, gEntry{id: id, gen: gen, state: s, inc: clampInc(inc)})
}

// bucketPut appends an entry to the budget-b bucket, growing the
// bucket array as needed. Stale copies in other buckets are skipped
// lazily by the generation check during scans.
func (e *Engine) bucketPut(b int, en gEntry) {
	for len(e.buckets) <= b {
		e.buckets = append(e.buckets, nil)
		e.heads = append(e.heads, 0)
	}
	e.buckets[b] = append(e.buckets[b], en)
	e.gEntries++
	if b > e.gTop {
		e.gTop = b
	}
}

// takeGossip selects up to PiggybackLimit updates to send, consuming
// transmission budget. Selection prefers the rumors with the MOST
// remaining budget — i.e. the least-transmitted, freshest ones — with
// enqueue order as the deterministic tie-break (the same policy as
// memberlist's TransmitLimitedQueue). Plain FIFO order deadlocks at
// scale: when more rumors are pending than piggyback slots, the head
// entries monopolize the pipe for their whole retransmit budget (tens
// of sends) while fresh rumors — deaths, refutations — starve behind
// them, and a cluster-wide rumor never reaches everyone. Freshest-
// first gets a new rumor onto the wire on the very next send, which
// is what epidemic dissemination time bounds assume. The result is
// the message's own: it travels while the engine moves on.
func (e *Engine) takeGossip() []IDUpdate {
	if e.gLive == 0 {
		return nil
	}
	max := e.cfg.PiggybackLimit
	if e.gLive < max {
		max = e.gLive
	}
	out := make([]IDUpdate, 0, max)
	// Trim the top-bucket hint past trailing fully-consumed buckets so
	// the scan starts where live entries can actually be.
	for e.gTop >= 1 && e.heads[e.gTop] >= len(e.buckets[e.gTop]) {
		e.gTop--
	}
	// Snapshot bucket lengths: a taken rumor's decremented copy is
	// appended past its bucket's snapshot, so this call never re-takes
	// it (a rumor drains one transmission per send, not its whole
	// budget at once). The leftovers are scanned on the next call.
	if cap(e.lens) <= e.gTop {
		e.lens = make([]int, len(e.buckets))
	}
	lens := e.lens[:e.gTop+1]
	for b := 1; b <= e.gTop; b++ {
		lens[b] = len(e.buckets[b])
	}
	for b := e.gTop; b >= 1 && len(out) < e.cfg.PiggybackLimit; b-- {
		bucket := e.buckets[b]
		h := e.heads[b]
		for h < lens[b] && len(out) < e.cfg.PiggybackLimit {
			en := bucket[h]
			h++
			e.gEntries--
			if uint16(e.gMeta[en.id]>>16) != en.gen {
				continue // stale copy: superseded, spent, or evicted
			}
			out = append(out, IDUpdate{ID: en.id, Incarnation: uint64(en.inc), State: en.state})
			e.gMeta[en.id] = uint32(en.gen)<<16 | uint32(b-1)
			if b-1 >= 1 {
				e.bucketPut(b-1, en)
			} else {
				e.gLive--
			}
			e.stats.UpdatesGossiped.Add(1)
		}
		e.heads[b] = h
	}
	e.compactGossip()
	return out
}

// compactGossip bounds the queue under rumor overload and rebuilds
// the buckets once stale copies dominate. When more rumors are live
// than the pipe can ever drain (demand is budget x arrival rate,
// capacity is PiggybackLimit per send), the most-transmitted rumors
// are evicted first — they are the ones everyone has already heard.
func (e *Engine) compactGossip() {
	const maxLive = 256 // live-rumor bound under overload
	if e.gLive > maxLive {
		evict := e.gLive - maxLive
		for b := 1; b < len(e.buckets) && evict > 0; b++ {
			for h := e.heads[b]; h < len(e.buckets[b]) && evict > 0; h++ {
				en := e.buckets[b][h]
				m := e.gMeta[en.id]
				if uint16(m>>16) == en.gen && m&0xffff != 0 {
					gen := uint16(m>>16) + 1 // invalidate without enqueueing
					e.gMeta[en.id] = uint32(gen) << 16
					e.gLive--
					evict--
				}
			}
		}
	}
	if e.gEntries < 64 || e.gEntries < 4*e.gLive {
		return
	}
	// Rebuild: keep only current entries. A member has at most one
	// generation-matching entry ahead of the heads (older copies were
	// consumed or superseded), so no per-member dedup is needed.
	total := 0
	for b := range e.buckets {
		live := e.buckets[b][:0]
		for _, en := range e.buckets[b][e.heads[b]:] {
			if uint16(e.gMeta[en.id]>>16) == en.gen {
				live = append(live, en)
			}
		}
		e.buckets[b] = live
		e.heads[b] = 0
		total += len(live)
	}
	e.gEntries = total
}

// AnnounceSelf queues a fresh alive assertion about this member (used
// after Join so the newcomer propagates even if the seed's gossip is
// slow).
func (e *Engine) AnnounceSelf() {
	e.enqueueGossip(e.self, e.selfInc, StateAlive)
}

// --- suspicion ---

// suspect marks id suspected after a failed probe round and gossips
// the suspicion.
func (e *Engine) suspect(now time.Time, id int32) {
	s, inc, ok := e.State(id)
	if !ok || s != StateAlive {
		return
	}
	e.stats.SuspectsRaised.Add(1)
	e.transition(now, id, StateSuspect, inc)
	e.enqueueGossip(id, inc, StateSuspect)
}

// expireSuspicions declares dead every suspect whose refutation window
// has passed. It runs once per protocol period.
func (e *Engine) expireSuspicions(now time.Time) {
	if len(e.suspectAt) == 0 || !now.After(e.suspectNext) {
		return // earliest deadline still pending; deletions only raise it
	}
	var due []int32
	next := time.Time{}
	for id, dl := range e.suspectAt {
		if e.slots[id].state == StateSuspect && now.After(dl) {
			due = append(due, id)
		} else if next.IsZero() || dl.Before(next) {
			next = dl
		}
	}
	e.suspectNext = next
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] }) // deterministic order
	for _, id := range due {
		e.stats.DeathsDeclared.Add(1)
		inc := uint64(e.slots[id].inc)
		e.transition(now, id, StateDead, inc)
		e.enqueueGossip(id, inc, StateDead)
	}
}

// --- the update rules ---

// Apply folds received membership assertions into local state (the
// SWIM update rules with incarnation numbers).
func (e *Engine) Apply(now time.Time, ups []IDUpdate) {
	for _, u := range ups {
		e.applyOne(now, u)
	}
}

func (e *Engine) applyOne(now time.Time, u IDUpdate) {
	id := u.ID
	e.ensure(id)
	if id == e.self {
		// Refute rumors of our demise with a higher incarnation.
		if (u.State == StateSuspect || u.State == StateDead) && u.Incarnation >= e.selfInc {
			e.selfInc = u.Incarnation + 1
			e.stats.RefutationsSent.Add(1)
			e.slots[e.self].inc = clampInc(e.selfInc)
			e.enqueueGossip(e.self, e.selfInc, StateAlive)
		}
		return
	}
	sl := &e.slots[id]
	if !sl.present {
		// Newly discovered member.
		e.add(now, id, u.Incarnation, u.State)
		e.enqueueGossip(id, u.Incarnation, u.State)
		return
	}
	inc := uint64(sl.inc)
	switch u.State {
	case StateAlive:
		// Strictly newer incarnations only: an alive assertion at the
		// same incarnation as a death rumor must not resurrect the
		// member (refutation always bumps the incarnation first).
		if u.Incarnation > inc {
			e.transition(now, id, StateAlive, u.Incarnation)
			e.enqueueGossip(id, u.Incarnation, StateAlive)
		}
	case StateSuspect:
		if (sl.state == StateAlive && u.Incarnation >= inc) ||
			(sl.state == StateSuspect && u.Incarnation > inc) {
			e.transition(now, id, StateSuspect, u.Incarnation)
			e.enqueueGossip(id, u.Incarnation, StateSuspect)
		}
	case StateDead, StateLeft:
		if sl.state != StateDead && sl.state != StateLeft && u.Incarnation >= inc {
			e.transition(now, id, u.State, u.Incarnation)
			e.enqueueGossip(id, u.Incarnation, u.State)
		}
	}
}
