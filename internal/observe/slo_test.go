package observe

import (
	"testing"
	"time"

	"mochi/internal/clock"
	"mochi/internal/metrics"
	"mochi/internal/testutil"
)

func newTestTracker(t *testing.T, objs []Objective) (*Tracker, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(time.Unix(1_700_000_000, 0))
	tr, err := NewTracker(sim, objs)
	if err != nil {
		t.Fatal(err)
	}
	return tr, sim
}

func TestTrackerRejectsBadObjectives(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	for _, objs := range [][]Objective{
		{{RPC: "", TargetMS: 1, ErrorBudget: 0.1}},
		{{RPC: "x", TargetMS: 0, ErrorBudget: 0.1}},
		{{RPC: "x", TargetMS: 1, ErrorBudget: 0}},
		{{RPC: "x", TargetMS: 1, ErrorBudget: 1.5}},
		{{RPC: "x", TargetMS: 1, ErrorBudget: 0.1}, {RPC: "x", TargetMS: 2, ErrorBudget: 0.1}},
	} {
		if _, err := NewTracker(sim, objs); err == nil {
			t.Fatalf("NewTracker(%v): want error", objs)
		}
	}
}

func TestTrackerBurnRate(t *testing.T) {
	// 10ms target, 10% budget: one slow request in ten burns at
	// exactly 1.0.
	tr, sim := newTestTracker(t, []Objective{{RPC: "kv_put", TargetMS: 10, ErrorBudget: 0.1}})

	for i := 0; i < 9; i++ {
		tr.Observe("kv_put", time.Millisecond)
	}
	tr.Observe("kv_put", 50*time.Millisecond)
	// Untracked RPCs must be ignored, not crash.
	tr.Observe("unknown_rpc", time.Hour)

	if got := tr.BurnRate("kv_put", 5*time.Minute); got != 1.0 {
		t.Fatalf("burn rate: want 1.0, got %g", got)
	}
	if got := tr.BurnRate("kv_put", time.Hour); got != 1.0 {
		t.Fatalf("1h burn rate: want 1.0, got %g", got)
	}
	if got := tr.BurnRate("unknown_rpc", time.Hour); got != 0 {
		t.Fatalf("unknown rpc burn rate: want 0, got %g", got)
	}
	if deg := tr.Degraded(); len(deg) != 1 || deg[0] != "kv_put" {
		t.Fatalf("degraded: want [kv_put], got %v", deg)
	}

	// 6 minutes later the short window is clean but the hour window
	// still remembers: multi-window AND keeps us healthy again.
	sim.Advance(6 * time.Minute)
	if got := tr.BurnRate("kv_put", 5*time.Minute); got != 0 {
		t.Fatalf("short-window burn after idle: want 0, got %g", got)
	}
	if got := tr.BurnRate("kv_put", time.Hour); got != 1.0 {
		t.Fatalf("long-window burn after idle: want 1.0, got %g", got)
	}
	if deg := tr.Degraded(); deg != nil {
		t.Fatalf("degraded after short window cleared: want none, got %v", deg)
	}

	// After the hour window passes, everything is forgotten (the ring
	// cells recycle).
	sim.Advance(time.Hour)
	if got := tr.BurnRate("kv_put", time.Hour); got != 0 {
		t.Fatalf("burn after 1h: want 0, got %g", got)
	}
}

func TestTrackerCellRecycling(t *testing.T) {
	// Write into the same ring cell in two different epochs exactly
	// ringSeconds apart; the old epoch's counts must not leak in.
	tr, sim := newTestTracker(t, []Objective{{RPC: "f", TargetMS: 1, ErrorBudget: 0.5}})
	tr.Observe("f", time.Second) // slow
	sim.Advance(ringSeconds * time.Second)
	tr.Observe("f", time.Microsecond) // fast, same cell index
	if got := tr.BurnRate("f", time.Hour); got != 0 {
		t.Fatalf("burn rate after recycling: want 0 (only the fast sample in window), got %g", got)
	}
}

func TestTrackerRegister(t *testing.T) {
	tr, _ := newTestTracker(t, []Objective{
		{RPC: "a", TargetMS: 1, ErrorBudget: 0.5},
		{RPC: "b", TargetMS: 1, ErrorBudget: 0.5},
	})
	tr.Observe("a", time.Second) // slow: burn = 1/0.5 = 2
	reg := metrics.NewRegistry()
	tr.Register(reg)

	got := map[string]float64{}
	for _, f := range reg.Snapshot() {
		if f.Name != "mochi_slo_burn_rate" {
			continue
		}
		for _, s := range f.Series {
			got[s.LabelValues[0]+"/"+s.LabelValues[1]] = s.Value
		}
	}
	want := map[string]float64{"a/5m": 2, "a/1h": 2, "b/5m": 0, "b/1h": 0}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("mochi_slo_burn_rate[%s]: want %g, got %g (all: %v)", k, w, got[k], got)
		}
	}
}

func TestTrackerObserveAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tr, _ := newTestTracker(t, []Objective{{RPC: "hot", TargetMS: 1, ErrorBudget: 0.01}})
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Observe("hot", 2*time.Millisecond)
		tr.Observe("miss", time.Millisecond)
	})
	if allocs > 0 {
		t.Fatalf("Tracker.Observe allocates: %g allocs/op", allocs)
	}
}
