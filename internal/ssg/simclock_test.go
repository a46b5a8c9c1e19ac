package ssg

import (
	"fmt"
	"testing"
	"time"

	"mochi/internal/clock"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/testutil"
)

// These tests drive full ssg Groups (real goroutines, real fabric) on
// a shared clock.Sim: protocol periods elapse only when the test calls
// Advance, so timing-sensitive assertions cannot flake on a loaded
// machine. WaitForWaiters paces each round — every group's timer loop
// keeps one timer armed, so n groups means n standing waiters.

type simCluster struct {
	clk    *clock.Sim
	fabric *mercury.Fabric
	insts  []*margo.Instance
	groups []*Group
}

func newSimCluster(t *testing.T, n int, cfg Config) *simCluster {
	t.Helper()
	c := &simCluster{
		clk:    clock.NewSim(time.Time{}),
		fabric: mercury.NewFabric(),
	}
	var addrs []string
	for i := 0; i < n; i++ {
		cls, err := c.fabric.NewClass(fmt.Sprintf("simssg-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.NewWithClock(cls, nil, c.clk)
		if err != nil {
			t.Fatal(err)
		}
		c.insts = append(c.insts, inst)
		addrs = append(addrs, inst.Addr())
	}
	for _, inst := range c.insts {
		g, err := Create(inst, "sim-group", addrs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.groups = append(c.groups, g)
	}
	t.Cleanup(func() {
		for _, g := range c.groups {
			g.Stop()
		}
		for _, inst := range c.insts {
			inst.Finalize()
		}
	})
	return c
}

// step advances one protocol period once every group's timer loop is
// parked on the clock; a loop whose timer fired is not parked again until
// it has stepped, so the next step waits for that.
func (c *simCluster) step(t *testing.T, period time.Duration) {
	t.Helper()
	if !c.clk.WaitForWaiters(len(c.groups), 5*time.Second) {
		t.Fatal("protocol timers never armed on the sim clock")
	}
	c.clk.Advance(period)
}

// TestProtocolLoadOnSimClock is the deflaked version of the old
// wall-clock bounded-load test: exactly 30 protocol periods elapse —
// not "roughly 300ms of sleep on a possibly-stalled VM" — so the ping
// budget is a hard bound, not a heuristic.
func TestProtocolLoadOnSimClock(t *testing.T) {
	cfg := fastCfg()
	c := newSimCluster(t, 4, cfg)
	const rounds = 30
	for i := 0; i < rounds; i++ {
		c.step(t, cfg.ProtocolPeriod)
		// The ack window is virtual time now: let this period's ping go
		// out and its ack land (wall time) before the next Advance
		// closes the window, or a slow machine turns a healthy round
		// into ping-reqs.
		eventually(t, c.groups, 5*time.Second, func() bool {
			for _, g := range c.groups {
				if st := g.Stats(); st.PingsSent.Load() <= int64(i) || st.AcksReceived.Load() != st.PingsSent.Load() {
					return false
				}
			}
			return true
		}, "a ping on a healthy fabric went unsent or unacked")
	}
	for i, g := range c.groups {
		pings := g.Stats().PingsSent.Load()
		if pings == 0 {
			t.Fatalf("group %d sent no pings in %d periods", i, rounds)
		}
		// One direct probe per period plus at most IndirectPings
		// relays per failed probe; on a healthy fabric probes ack
		// directly, so the budget is one ping per elapsed period.
		if pings > rounds {
			t.Fatalf("group %d sent %d pings in %d periods", i, pings, rounds)
		}
	}
}

// TestFailureDetectionOnSimClock kills a member and steps virtual time
// until every survivor declares it dead, bounding the detection time
// in protocol periods instead of wall seconds.
func TestFailureDetectionOnSimClock(t *testing.T) {
	cfg := fastCfg()
	c := newSimCluster(t, 4, cfg)
	victim := c.insts[3].Addr()
	c.fabric.Kill(victim)
	allDead := func() bool {
		for _, g := range c.groups[:3] {
			dead := false
			for _, m := range g.View().Members {
				if m.Addr == victim && m.State == StateDead {
					dead = true
				}
			}
			if !dead {
				return false
			}
		}
		return true
	}
	const maxRounds = 200
	for i := 0; i < maxRounds && !allDead(); i++ {
		c.step(t, cfg.ProtocolPeriod)
	}
	if !allDead() {
		t.Fatalf("victim not declared dead by all survivors within %d periods", maxRounds)
	}
}

// TestGroupShutdownLeaksNoGoroutines asserts Stop/Finalize reap every
// goroutine the membership layer started: the timer loop, the senders,
// the notifier, and the instance's RPC machinery.
func TestGroupShutdownLeaksNoGoroutines(t *testing.T) {
	before := testutil.GoroutineCount()
	func() {
		f := mercury.NewFabric()
		var insts []*margo.Instance
		var addrs []string
		for i := 0; i < 3; i++ {
			cls, err := f.NewClass(fmt.Sprintf("leak-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			inst, err := margo.New(cls, nil)
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, inst)
			addrs = append(addrs, inst.Addr())
		}
		var groups []*Group
		for _, inst := range insts {
			g, err := Create(inst, "leak-group", addrs, fastCfg())
			if err != nil {
				t.Fatal(err)
			}
			groups = append(groups, g)
		}
		// Let a few protocol rounds run so RPCs are in flight.
		eventually(t, groups, 10*time.Second, func() bool {
			for _, g := range groups {
				if g.Stats().PingsSent.Load() < 3 {
					return false
				}
			}
			return true
		}, "the groups never probed")
		for _, g := range groups {
			g.Stop()
		}
		for _, inst := range insts {
			inst.Finalize()
		}
	}()
	testutil.WaitGoroutinesSettle(t, before, 2)
}
