package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mochi/internal/mercury"
	"mochi/internal/ssg"
)

// Trace event kinds.
const (
	evSend uint8 = iota + 1
	evTransition
	evKill
	evFlap
)

// KillEvent crashes one node at a virtual-time offset.
type KillEvent struct {
	Node int32
	At   time.Duration
}

// SwimConfig describes one SWIM-at-scale simulation.
type SwimConfig struct {
	Nodes int
	Seed  int64
	// Protocol tunes the SWIM engines (defaults apply as in ssg).
	Protocol ssg.Config
	// Duration is the virtual runtime.
	Duration time.Duration
	// Latency/Jitter model one-way link delay (defaults 500µs/300µs).
	Latency, Jitter time.Duration
	// Faults is the per-message fault mix, drawn from per-node seeded
	// ChaosTransport schedules (Seed is derived; the field is ignored).
	Faults mercury.ChaosConfig
	// Kills crashes nodes mid-run. If nil and KillCount > 0, KillCount
	// victims are drawn from the seed at evenly spaced offsets across
	// the middle of the run.
	Kills     []KillEvent
	KillCount int
	// Flappers nodes cycle down/up every FlapPeriod, staying down for
	// FlapDown each cycle (refutation stress).
	Flappers   int
	FlapPeriod time.Duration
	FlapDown   time.Duration
	// Partitions are split-brain windows.
	Partitions []PartitionWindow

	// tamper, set only by tests, may rewrite a message as it leaves
	// node from, or say the engine never sent it: the broken-rule twins
	// use it to prove that the checks a run makes can fail.
	tamper func(from int32, m *ssg.Msg) bool
}

func (c SwimConfig) withDefaults() SwimConfig {
	if c.Latency <= 0 {
		c.Latency = 500 * time.Microsecond
	}
	if c.Jitter <= 0 {
		c.Jitter = 300 * time.Microsecond
	}
	if c.Duration <= 0 {
		c.Duration = time.Minute
	}
	if c.FlapPeriod <= 0 {
		c.FlapPeriod = 10 * time.Second
	}
	if c.FlapDown <= 0 {
		c.FlapDown = 2 * time.Second
	}
	return c
}

// SwimResult aggregates one run's determinism fingerprint and
// detection-quality metrics.
type SwimResult struct {
	Nodes           int
	Seed            int64
	VirtualDuration time.Duration
	Wall            time.Duration
	Events          uint64
	TraceHash       uint64
	TraceCount      uint64

	Kills int
	// Detection latency: kill -> first observer declares dead.
	DetectP50, DetectP99, DetectMax time.Duration
	// Dissemination: kill -> 99% of surviving nodes know.
	DissemP50, DissemMax time.Duration
	Detected             int // kills detected by at least one node
	Disseminated         int // kills known to >= 99% of survivors

	// False positives. FalseSuspicions counts first-hand suspicion
	// events: a probe round ending in suspicion of a target that
	// was up and reachable from the prober (gossip-propagated copies of
	// the same rumor are not re-counted). FalseDeaths counts distinct
	// live nodes that any observer declared dead — the refutation
	// machinery's failures, since a timely refutation clears a false
	// suspicion before it expires into a death.
	FalseSuspicions int64
	FalseDeaths     int64
	// FalseSuspectRate is false suspicions per node per virtual minute.
	FalseSuspectRate float64

	PingsSent       int64
	PingReqsSent    int64
	AcksReceived    int64
	UpdatesGossiped int64
	Refutations     int64

	// StaleDeadBeliefs counts (observer, target) pairs where, at the
	// end of the run, a surviving observer still believes a surviving
	// target dead — the convergence/reconciliation failure metric.
	StaleDeadBeliefs int

	// Err is the first broken invariant: a tag an engine was handed that
	// it neither handed back nor keeps.
	Err error
}

type killRec struct {
	at        time.Time
	firstDead time.Time
	dissemAt  time.Time
	deadSeen  int
}

// swimMember is one node: its harness member and its engine.
type swimMember struct {
	*Member
	eng *ssg.Engine
}

type swimDriver struct {
	*Harness
	cfg     SwimConfig
	members []swimMember
	stats   ssg.Stats

	killRec map[int32]*killRec

	falseSuspicions int64
	falseDeadVict   map[int32]bool
	dissemTarget    int
}

// RunSwim executes one simulation and returns its metrics. The same
// config (seed included) yields a bit-identical run: same TraceHash,
// same counters, same curves.
//
// The driver decides nothing about the protocol: it steps each node's
// ssg.Engine, on a clock of the node's own pace, with what reaches it,
// carries the engine's messages over Net — a ping is its own tag, its
// Seq the pinger's number — wakes it at its own Deadline, and keeps
// score; after every step it checks that every tag it handed an engine
// came back once or is still kept.
func RunSwim(cfg SwimConfig) *SwimResult {
	cfg = cfg.withDefaults()
	start := time.Now()
	d := &swimDriver{
		Harness:       NewHarness(cfg.Seed),
		cfg:           cfg,
		members:       make([]swimMember, cfg.Nodes),
		killRec:       map[int32]*killRec{},
		falseDeadVict: map[int32]bool{},
	}
	d.DupDelay = cfg.Jitter
	d.Wake = d.tick
	d.Invariants = func(m *Member) { d.Ledger(m, d.members[m.ID].eng.Kept()) }
	d.Net = NewNet(cfg.Nodes, cfg.Seed, cfg.Latency, cfg.Jitter, cfg.Faults, d.Now(), cfg.Partitions)

	// Bootstrap: every node knows the full member list (the paper's
	// static bootstrap). Interning all addresses up front fixes the
	// ID space (node i is member ID i); engines share the table so each
	// address exists once. Each engine draws the phase of its first
	// period from its own RNG, like processes started a moment apart.
	tbl := ssg.NewAddrTable()
	ids := make([]int32, cfg.Nodes)
	for i := range ids {
		ids[i] = tbl.Intern(fmt.Sprintf("n%05d", i))
	}
	for i := range d.members {
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
		m := d.NewMember(int32(i))
		d.members[i] = swimMember{m, ssg.NewEngine(tbl, ids[i], ids, cfg.Protocol, rng, &d.stats, d.Clock(m))}
	}

	// Kill schedule.
	kills := cfg.Kills
	if kills == nil && cfg.KillCount > 0 {
		perm := d.Rand().Perm(cfg.Nodes)
		window := cfg.Duration / 2
		for i := 0; i < cfg.KillCount && i < cfg.Nodes; i++ {
			at := cfg.Duration/4 + time.Duration(int64(window)*int64(i)/int64(cfg.KillCount))
			kills = append(kills, KillEvent{Node: int32(perm[i]), At: at})
		}
	}
	d.dissemTarget = int(math.Ceil(0.99 * float64(cfg.Nodes-len(kills)-1)))
	for _, k := range kills {
		d.At(k.At, func() {
			d.Crash(d.members[k.Node].Member)
			d.killRec[k.Node] = &killRec{at: d.Now()}
			d.Trace.Record(d.Now(), evKill, k.Node, -1, 0)
		})
	}

	// Flappers: the last Flappers non-killed nodes cycle down/up.
	killedSet := map[int32]bool{}
	for _, k := range kills {
		killedSet[k.Node] = true
	}
	flapped := 0
	for i := cfg.Nodes - 1; i >= 0 && flapped < cfg.Flappers; i-- {
		if killedSet[int32(i)] {
			continue
		}
		flapped++
		// Stagger flap cycles so flappers do not move in lockstep.
		offset := time.Duration(d.Rand().Int63n(int64(cfg.FlapPeriod)))
		d.At(cfg.FlapPeriod+offset, func() { d.flapDown(d.members[i].Member) })
	}

	for i := range d.members {
		d.settle(int32(i), false)
	}
	d.RunFor(cfg.Duration)
	return d.result(start)
}

// flapDown freezes a node — no messages in or out, no timers — for
// FlapDown; flapUp thaws it with its protocol state intact, so what it
// believed and what was said about it meanwhile have to be reconciled.
func (d *swimDriver) flapDown(m *Member) {
	if m.Crashed {
		return
	}
	d.Freeze(m)
	d.Trace.Record(d.Now(), evFlap, m.ID, -1, 0)
	d.At(d.cfg.FlapDown, func() { d.flapUp(m) })
}

func (d *swimDriver) flapUp(m *Member) {
	if m.Crashed {
		return
	}
	d.Trace.Record(d.Now(), evFlap, m.ID, -1, 1)
	d.At(d.cfg.FlapPeriod, func() { d.flapDown(m) })
	d.Thaw(m)
}

// tick fires a node's due timers, if any, and settles.
func (d *swimDriver) tick(m *Member) {
	e, now := d.members[m.ID].eng, d.Clock(m)
	if !e.Deadline().After(now) {
		e.Tick(now)
	}
	d.settle(m.ID, true)
}

// settle is what a driver does after a step: report the transitions,
// send the messages, re-arm the timer. ticked says the step was a
// Tick, the only step in which an engine suspects first-hand.
func (d *swimDriver) settle(i int32, ticked bool) {
	m, now := d.members[i], d.Now()
	eff := m.eng.Take()
	for _, t := range eff.Transitions {
		d.onTransition(i, now, t, ticked)
	}
	for _, msg := range eff.Msgs {
		if d.cfg.tamper != nil && !d.cfg.tamper(i, &msg) {
			continue
		}
		seq := msg.Seq
		if msg.Kind == ssg.MsgAck {
			seq = msg.Tag.(*ssg.Msg).Seq
			m.Out++
		}
		d.Trace.Record(now, evSend, i, msg.To, uint64(msg.Kind)<<56|seq)
		to := d.members[msg.To]
		d.Transmit(m.Member, to.Member, to.Epoch, func() { d.deliver(i, &msg) })
	}
	d.Stepped(m.Member, m.eng.Deadline())
}

// deliver lands one message at its destination. A ping or ping-req is
// its own tag: the ack that hands it back answers the sender's number.
func (d *swimDriver) deliver(from int32, msg *ssg.Msg) {
	to := d.members[msg.To]
	e, now := to.eng, d.Clock(to.Member)
	switch msg.Kind {
	case ssg.MsgPing:
		to.In++
		e.Ping(now, from, msg, msg.Updates)
	case ssg.MsgPingReq:
		to.In++
		e.PingReq(now, from, msg, msg.Target, msg.Updates)
	case ssg.MsgAck:
		e.Ack(now, from, msg.Tag.(*ssg.Msg).Seq, msg.OK, msg.Updates)
	}
	d.settle(msg.To, false)
}

func (d *swimDriver) onTransition(observer int32, now time.Time, t ssg.Transition, ticked bool) {
	d.Trace.Record(now, evTransition, observer, t.ID, uint64(t.New)<<32|t.Incarnation&0xffffffff)
	switch {
	case t.New == ssg.StateSuspect && ticked:
		// First-hand false positive: the target was up and reachable,
		// yet the whole probe round failed (message loss ate every leg).
		if !d.members[t.ID].Crashed && !d.Net.Down(t.ID) && !d.Net.Partitioned(observer, t.ID, now) {
			d.falseSuspicions++
		}
	case t.New == ssg.StateDead:
		if rec := d.killRec[t.ID]; rec != nil {
			if rec.deadSeen == 0 {
				rec.firstDead = now
			}
			rec.deadSeen++
			if rec.deadSeen >= d.dissemTarget && rec.dissemAt.IsZero() {
				rec.dissemAt = now
			}
		} else if !d.members[t.ID].Crashed && !d.Net.Down(t.ID) {
			d.falseDeadVict[t.ID] = true
		}
	}
}

func (d *swimDriver) result(start time.Time) *SwimResult {
	r := &SwimResult{
		Nodes:           d.cfg.Nodes,
		Seed:            d.cfg.Seed,
		VirtualDuration: d.cfg.Duration,
		Wall:            time.Since(start),
		Events:          d.Events(),
		TraceHash:       d.Trace.Hash(),
		TraceCount:      d.Trace.Count(),
		Kills:           len(d.killRec),
		FalseSuspicions: d.falseSuspicions,
		FalseDeaths:     int64(len(d.falseDeadVict)),
		PingsSent:       d.stats.PingsSent.Load(),
		PingReqsSent:    d.stats.PingReqsSent.Load(),
		AcksReceived:    d.stats.AcksReceived.Load(),
		UpdatesGossiped: d.stats.UpdatesGossiped.Load(),
		Refutations:     d.stats.RefutationsSent.Load(),
		Err:             d.Err,
	}
	for i, o := range d.members {
		if o.Crashed {
			continue
		}
		for j, t := range d.members {
			if j == i || t.Crashed {
				continue
			}
			if st, _, ok := o.eng.State(int32(j)); ok && st == ssg.StateDead {
				r.StaleDeadBeliefs++
			}
		}
	}
	var detect, dissem []time.Duration
	for _, rec := range d.killRec {
		if !rec.firstDead.IsZero() {
			r.Detected++
			detect = append(detect, rec.firstDead.Sub(rec.at))
		}
		if !rec.dissemAt.IsZero() {
			r.Disseminated++
			dissem = append(dissem, rec.dissemAt.Sub(rec.at))
		}
	}
	sort.Slice(detect, func(i, j int) bool { return detect[i] < detect[j] })
	sort.Slice(dissem, func(i, j int) bool { return dissem[i] < dissem[j] })
	if len(detect) > 0 {
		r.DetectP50 = detect[len(detect)/2]
		r.DetectP99 = detect[len(detect)*99/100]
		r.DetectMax = detect[len(detect)-1]
	}
	if len(dissem) > 0 {
		r.DissemP50 = dissem[len(dissem)/2]
		r.DissemMax = dissem[len(dissem)-1]
	}
	nodeMinutes := float64(d.cfg.Nodes) * d.cfg.Duration.Minutes()
	if nodeMinutes > 0 {
		r.FalseSuspectRate = float64(d.falseSuspicions) / nodeMinutes
	}
	return r
}

// String renders the one-line summary the simulation tests log (stable
// formatting: part of the replay-identity diff).
func (r *SwimResult) String() string {
	return fmt.Sprintf(
		"swim n=%d seed=%d virt=%s events=%d trace=%016x kills=%d detected=%d dissem=%d detect_p50=%s detect_p99=%s dissem_p50=%s false_suspect=%d false_dead=%d fs_rate=%.4f/node-min refutes=%d pings=%d",
		r.Nodes, r.Seed, r.VirtualDuration, r.Events, r.TraceHash,
		r.Kills, r.Detected, r.Disseminated,
		r.DetectP50.Round(time.Millisecond), r.DetectP99.Round(time.Millisecond),
		r.DissemP50.Round(time.Millisecond),
		r.FalseSuspicions, r.FalseDeaths, r.FalseSuspectRate, r.Refutations, r.PingsSent)
}
