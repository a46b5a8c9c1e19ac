package ssg

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mochi/internal/testutil"
)

// TestEngineIsPure keeps engine.go a pure state machine: no clock, no
// lock, no goroutine, no network — time for Time and Duration values,
// math/rand for the injected *rand.Rand.
func TestEngineIsPure(t *testing.T) {
	testutil.CheckPure(t, "engine.go", "math", "math/rand", "sort", "time")
}

// rig drives one Engine by hand: member 0 of n, on a clock the test
// moves. Every effect the engine leaves is collected.
type rig struct {
	t     *testing.T
	e     *Engine
	now   time.Time
	stats Stats
	msgs  []Msg
	trans []Transition
}

var rigCfg = Config{ProtocolPeriod: time.Second, PingTimeout: 250 * time.Millisecond, IndirectPings: 2}

func newRig(t *testing.T, n int, cfg Config) *rig {
	tbl := NewAddrTable()
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = tbl.Intern(fmt.Sprintf("m%03d", i))
	}
	r := &rig{t: t, now: time.Unix(100, 0)}
	r.e = NewEngine(tbl, 0, ids, cfg, rand.New(rand.NewSource(1)), &r.stats, r.now)
	return r
}

func (r *rig) collect() {
	eff := r.e.Take()
	r.msgs = append(r.msgs, eff.Msgs...)
	r.trans = append(r.trans, eff.Transitions...)
}

// runTo moves the clock to at, firing every timer on the way at
// exactly its deadline, the way a driver does.
func (r *rig) runTo(at time.Time) {
	for d := r.e.Deadline(); !d.After(at); d = r.e.Deadline() {
		r.now = d
		r.e.Tick(d)
		r.collect()
	}
	r.now = at
}

// startRound runs to the engine's next direct ping and returns it,
// forgetting what was collected before.
func (r *rig) startRound() Msg {
	for i := 0; i < 3; i++ {
		r.msgs, r.trans = nil, nil
		r.runTo(r.e.Deadline())
		for _, m := range r.msgs {
			if m.Kind == MsgPing {
				return m
			}
		}
	}
	r.t.Fatal("engine never started a probe round")
	return Msg{}
}

func (r *rig) sent(kind MsgKind) []Msg {
	var out []Msg
	for _, m := range r.msgs {
		if m.Kind == kind {
			out = append(out, m)
		}
	}
	return out
}

func (r *rig) suspected(id int32) bool {
	for _, tr := range r.trans {
		if tr.ID == id && tr.Old == StateAlive && tr.New == StateSuspect {
			return true
		}
	}
	return false
}

// TestProbeRoundRules drives the prober's side of one round through
// the rule table: which acks settle it, when the ping-reqs go out, and
// that the verdict is rendered once, at the end of the period.
func TestProbeRoundRules(t *testing.T) {
	const (
		direct = iota // the target answers the direct ping
		via           // the first via answers the ping-req
		stale         // an answer to a number this round never used
	)
	type ack struct {
		at   time.Duration // since the round's ping
		what int
		ok   bool
	}
	period, window := rigCfg.ProtocolPeriod, rigCfg.PingTimeout
	cases := []struct {
		name        string
		acks        []ack
		wantReqs    int
		wantSuspect bool
		wantAcks    int64
	}{
		{"ack inside the window: no ping-reqs, no suspicion", []ack{{window / 2, direct, true}}, 0, false, 1},
		{"ack outside the window still settles the round", []ack{{2 * window, direct, true}}, 2, false, 1},
		{"silence: k ping-reqs at the window, suspicion at the period", nil, 2, true, 0},
		{"duplicate ack counts once", []ack{{window / 2, direct, true}, {window/2 + time.Millisecond, direct, true}}, 0, false, 1},
		{"a via's yes settles the round", []ack{{2 * window, via, true}}, 2, false, 1},
		{"a via's no changes nothing: the verdict waits for the period", []ack{{2 * window, via, false}}, 2, true, 0},
		{"relay ack after the decision is too late", []ack{{period + window/2, via, true}}, 2, true, 0},
		{"refusal from the target (no such group) is not an ack", []ack{{window / 2, direct, false}}, 2, true, 0},
		{"an answer to an unknown number only gossips", []ack{{window / 2, stale, true}}, 2, true, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 6, rigCfg)
			ping := r.startRound()
			start := r.now
			if ping.Timeout != period {
				t.Fatalf("direct ping may be answered for %v, want the period", ping.Timeout)
			}
			for _, a := range c.acks {
				r.runTo(start.Add(a.at))
				switch a.what {
				case direct:
					r.e.Ack(r.now, ping.To, ping.Seq, a.ok, nil)
				case via:
					reqs := r.sent(MsgPingReq)
					if len(reqs) == 0 {
						t.Fatal("no ping-req to answer")
					}
					r.e.Ack(r.now, reqs[0].To, reqs[0].Seq, a.ok, nil)
				case stale:
					r.e.Ack(r.now, ping.To, ping.Seq+1000, a.ok, nil)
				}
				r.collect()
			}
			if r.now.Before(start.Add(period)) {
				r.runTo(start.Add(period - time.Millisecond))
				if r.suspected(ping.To) {
					t.Fatal("suspected before the period ended")
				}
			}
			r.runTo(start.Add(period + window/4))
			reqs := r.sent(MsgPingReq)
			if len(reqs) != c.wantReqs {
				t.Fatalf("%d ping-reqs sent, want %d", len(reqs), c.wantReqs)
			}
			for _, q := range reqs {
				if q.Target != ping.To || q.To == ping.To || q.To == 0 {
					t.Fatalf("ping-req %+v: want a third party asked about %d", q, ping.To)
				}
			}
			if got := r.suspected(ping.To); got != c.wantSuspect {
				t.Fatalf("suspected = %v, want %v", got, c.wantSuspect)
			}
			if got := r.stats.AcksReceived.Load(); got != c.wantAcks {
				t.Fatalf("AcksReceived = %d, want %d", got, c.wantAcks)
			}
		})
	}
}

// TestRelayRules drives the via's side: a ping-req becomes a ping to
// the target bounded by the via's own PingTimeout, and its tag comes back
// exactly once — yes when the target acks, no when the timeout runs out
// or when the driver surrenders it on its way out.
func TestRelayRules(t *testing.T) {
	const asker, target = int32(3), int32(4)
	tag := &struct{ name string }{"the asker's ping-req"}
	cases := []struct {
		name      string
		ackAt     time.Duration // target's ack, since the ping-req (0: never)
		surrender bool          // the driver stops at wantAt
		wantOK    bool
		wantAt    time.Duration
	}{
		{"target acks: yes at once", 10 * time.Millisecond, false, true, 10 * time.Millisecond},
		{"via with no route: no at its own PingTimeout", 0, false, false, rigCfg.PingTimeout},
		{"driver stops: Surrender says no at once", 0, true, false, 10 * time.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 6, rigCfg)
			r.startRound() // the via's own round is in flight too
			r.e.Ack(r.now, r.msgs[0].To, r.msgs[0].Seq, true, nil)
			r.msgs = nil
			start := r.now
			r.e.PingReq(r.now, asker, tag, target, nil)
			r.collect()
			pings := r.sent(MsgPing)
			if len(pings) != 1 || pings[0].To != target || pings[0].Timeout != rigCfg.PingTimeout || r.e.Kept() != 1 {
				t.Fatalf("relayed pings %+v, %d tags kept: want one to %d bounded by PingTimeout, and the tag", pings, r.e.Kept(), target)
			}
			if d := r.e.Deadline(); d.After(start.Add(rigCfg.PingTimeout)) {
				t.Fatalf("deadline %v does not cover the relay's timeout", d.Sub(start))
			}
			if c.ackAt > 0 {
				r.runTo(start.Add(c.ackAt))
				r.e.Ack(r.now, target, pings[0].Seq, true, nil)
				r.collect()
			}
			r.runTo(start.Add(c.wantAt))
			if c.surrender {
				r.e.Surrender()
				r.collect()
			}
			acks := r.sent(MsgAck)
			if len(acks) != 1 || acks[0].To != asker || acks[0].Tag != tag || acks[0].OK != c.wantOK || r.e.Kept() != 0 {
				t.Fatalf("answers %+v, %d tags kept: want one to %d with the tag, ok=%v", acks, r.e.Kept(), asker, c.wantOK)
			}
			// A second (or late) ack from the target finds no relay to settle.
			r.runTo(r.now.Add(time.Millisecond))
			r.e.Ack(r.now, target, pings[0].Seq, true, nil)
			r.collect()
			r.runTo(start.Add(rigCfg.ProtocolPeriod / 2))
			if n := len(r.sent(MsgAck)); n != 1 {
				t.Fatalf("%d answers to one ping-req", n)
			}
		})
	}
}

// TestRefutationBumpsIncarnation: told it is suspected, a member
// outbids the rumor and says so on its next message.
func TestRefutationBumpsIncarnation(t *testing.T) {
	r := newRig(t, 4, rigCfg)
	r.e.Apply(r.now, []IDUpdate{{ID: 0, Incarnation: 0, State: StateSuspect}})
	if _, inc, _ := r.e.State(0); inc != 1 || r.stats.RefutationsSent.Load() != 1 {
		t.Fatalf("incarnation %d after one refutation (%d counted), want 1", inc, r.stats.RefutationsSent.Load())
	}
	r.e.Ping(r.now, 2, 9, nil)
	r.collect()
	ack := r.sent(MsgAck)[0]
	if ack.To != 2 || ack.Tag != 9 || !ack.OK {
		t.Fatalf("ack %+v, want one to 2 with tag 9", ack)
	}
	found := false
	for _, u := range ack.Updates {
		found = found || u == IDUpdate{ID: 0, Incarnation: 1, State: StateAlive}
	}
	if !found {
		t.Fatalf("refutation not on the next message: %+v", ack.Updates)
	}
	// A rumor below the new incarnation is stale.
	r.e.Apply(r.now, []IDUpdate{{ID: 0, Incarnation: 0, State: StateDead}})
	if _, inc, _ := r.e.State(0); inc != 1 {
		t.Fatalf("stale rumor bumped the incarnation to %d", inc)
	}
}

// TestPingerBelievedDeadIsTold: the ack to a member we hold dead or
// suspect carries that belief, which is what makes it refute.
func TestPingerBelievedDeadIsTold(t *testing.T) {
	r := newRig(t, 4, rigCfg)
	r.e.Apply(r.now, []IDUpdate{{ID: 2, Incarnation: 3, State: StateDead}})
	for len(r.e.takeGossip()) > 0 { // drain the rumor itself
	}
	r.e.Ping(r.now, 2, 1, nil)
	r.collect()
	ups := r.sent(MsgAck)[0].Updates
	if len(ups) != 1 || ups[0] != (IDUpdate{ID: 2, Incarnation: 3, State: StateDead}) {
		t.Fatalf("ack to a member believed dead carries %+v", ups)
	}
}

// TestOversleptRoundRendersNoVerdict: a member whose timer fires a
// whole period late (a stalled process) cannot tell a dead peer from
// its own absence, and suspects nobody; one that is merely late does.
func TestOversleptRoundRendersNoVerdict(t *testing.T) {
	for _, c := range []struct {
		late time.Duration
		want bool
	}{{rigCfg.ProtocolPeriod / 2, true}, {2 * rigCfg.ProtocolPeriod, false}} {
		r := newRig(t, 6, rigCfg)
		ping := r.startRound()
		end := r.now.Add(rigCfg.ProtocolPeriod)
		r.runTo(end.Add(-time.Millisecond))
		r.now = end.Add(c.late)
		r.e.Tick(r.now)
		r.collect()
		if got := r.suspected(ping.To); got != c.want {
			t.Fatalf("tick %v late: suspected = %v, want %v", c.late, got, c.want)
		}
		if len(r.sent(MsgPing)) != 2 {
			t.Fatalf("tick %v late: the next round did not start", c.late)
		}
	}
}

// TestSuspicionWindowFollowsGroupSize: left unset, the refutation
// window is 4 periods up to nine members and grows by 4 per decade
// (the value the 10k simulation validated); an explicit value wins.
func TestSuspicionWindowFollowsGroupSize(t *testing.T) {
	for _, c := range []struct{ n, set, want int }{{3, 0, 4}, {9, 0, 4}, {10, 0, 8}, {99, 0, 8}, {100, 0, 12}, {1000, 0, 16}, {10000, 0, 20}, {1000, 3, 3}} {
		cfg := rigCfg
		cfg.SuspicionPeriods = c.set
		r := newRig(t, c.n, cfg)
		if got := r.e.Config().SuspicionPeriods; got != c.want {
			t.Fatalf("%d members, SuspicionPeriods=%d: window %d periods, want %d", c.n, c.set, got, c.want)
		}
	}
	// And the window is what expiry uses: 12 members, suspect at t, dead
	// only once 8 periods have passed.
	r := newRig(t, 12, rigCfg)
	t0 := r.now
	r.e.Apply(r.now, []IDUpdate{{ID: 5, Incarnation: 0, State: StateSuspect}})
	r.runTo(t0.Add(8 * rigCfg.ProtocolPeriod))
	if s, _, _ := r.e.State(5); s != StateSuspect {
		t.Fatalf("state %v before the window closed", s)
	}
	r.runTo(t0.Add(10 * rigCfg.ProtocolPeriod))
	if s, _, _ := r.e.State(5); s != StateDead {
		t.Fatalf("state %v two periods after the window closed", s)
	}
}
