package ssg

import (
	"testing"
	"time"
)

// TestPiggybackLimitRespected: a burst of membership updates must not
// produce oversized gossip payloads.
func TestPiggybackLimitRespected(t *testing.T) {
	c := newCluster(t, 2)
	g := c.groups[0]
	// Inject many updates about unknown members.
	var ups []Update
	for i := 0; i < 100; i++ {
		ups = append(ups, Update{
			Addr:        "sm://ghost-" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Incarnation: 1,
			State:       StateAlive,
		})
	}
	g.applyUpdates(ups)
	batch := g.takeGossip()
	if limit := fastCfg().PiggybackLimit; len(batch) > limit {
		t.Fatalf("gossip batch of %d exceeds limit %d", len(batch), limit)
	}
}

// TestGossipRetransmissionBudgetExpires: updates leave the gossip
// buffer after their retransmission budget is spent.
func TestGossipRetransmissionBudgetExpires(t *testing.T) {
	c := newCluster(t, 2)
	g := c.groups[0]
	g.applyUpdates([]Update{{Addr: "sm://one-shot", Incarnation: 1, State: StateAlive}})
	seen := 0
	for i := 0; i < 100; i++ {
		batch := g.takeGossip()
		found := false
		for _, u := range batch {
			if u.Addr == "sm://one-shot" {
				found = true
			}
		}
		if found {
			seen++
		}
		if len(batch) == 0 && i > 0 {
			break
		}
	}
	if seen == 0 {
		t.Fatal("update never gossiped")
	}
	if seen > 30 {
		t.Fatalf("update gossiped %d times; budget not enforced", seen)
	}
}

// TestViewVersionMonotonic: every membership transition bumps the
// view version.
func TestViewVersionMonotonic(t *testing.T) {
	c := newCluster(t, 3)
	v0 := c.groups[0].View().Version
	c.groups[0].applyUpdates([]Update{{Addr: "sm://newcomer", Incarnation: 0, State: StateAlive}})
	v1 := c.groups[0].View().Version
	if v1 <= v0 {
		t.Fatalf("version did not advance: %d -> %d", v0, v1)
	}
}

// TestDetectionScalesWithSuspicionConfig: a longer suspicion window
// delays death declaration proportionally.
func TestDetectionScalesWithSuspicionConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	measure := func(periods int) time.Duration {
		cfg := fastCfg()
		cfg.SuspicionPeriods = periods
		f := newClusterN(t, 3, cfg)
		victim := f.insts[2].Addr()
		start := time.Now()
		f.fabric.Kill(victim)
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			for _, m := range f.groups[0].View().Members {
				if m.Addr == victim && m.State == StateDead {
					return time.Since(start)
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("never detected with %d suspicion periods", periods)
		return 0
	}
	short := measure(2)
	long := measure(12)
	if long <= short {
		t.Fatalf("suspicion window had no effect: %v vs %v", short, long)
	}
}
