package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"mochi/internal/testutil"
)

// small shrinks a workload's preload so that a test run takes a
// fraction of a second; everything else is the workload as benchmarked.
func small(s spec) spec {
	switch {
	case s.raft:
		s.keys = 128
	case s.churn:
		s.keys = 1024
	default:
		s.keys = 2048
	}
	return s
}

func names(rows []row) []string {
	var out []string
	for _, r := range rows {
		out = append(out, r.Name)
	}
	return out
}

// isolate points the run's temp files at a directory of the test's and
// returns a check that the run left nothing behind: no goroutine and
// no file.
func isolate(t *testing.T) (check func()) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	before := testutil.GoroutineCount()
	return func() {
		t.Helper()
		testutil.WaitGoroutinesSettle(t, before, 2)
		left, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) > 0 {
			t.Errorf("run left %d entries in its temp dir, first %s", len(left), left[0].Name())
		}
	}
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		PerLayer  []struct{ Name string }      `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var gated []spec
	for _, s := range workloads {
		if !s.ungated {
			gated = append(gated, s)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d gated ones", len(doc.Workloads), len(gated))
	}
	for i, w := range doc.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / code %q (or their why differs)", i, w.Name, gated[i].name)
		}
	}
	var listed []string
	for _, m := range doc.PerLayer {
		listed = append(listed, m.Name)
	}
	if !reflect.DeepEqual(listed, perLayerNames) {
		t.Errorf("per_layer of BENCHMARK.json and perLayerNames differ:\n%v\n%v", listed, perLayerNames)
	}
}

func TestEveryWorkloadEndToEnd(t *testing.T) {
	bf, err := readBenchmarkFile(".")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range bf.EndToEnd {
		want = append(want, m.Name)
	}
	for _, s := range workloads {
		t.Run(s.name, func(t *testing.T) {
			check := isolate(t)
			r, err := runEndToEnd(context.Background(), small(s), 7, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d problems=%v", r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			if got := names(r.EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
			}
			for _, m := range r.EndToEnd {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, m.Value)
				}
			}
			check()
		})
	}
}

func TestTracedRun(t *testing.T) {
	for _, name := range []string{"reshard-churn", "raft-read-heavy"} {
		t.Run(name, func(t *testing.T) {
			s, _ := findWorkload(name)
			check := isolate(t)
			out := t.TempDir()
			r, err := runTraced(context.Background(), small(s), 7, 1, out)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("correct=%v failed=%d problems=%v", r.Correct, r.Failed, r.Problems)
			}
			got, want := map[string]bool{}, map[string]bool{}
			for _, n := range names(r.PerLayer) {
				got[n] = true
			}
			for _, n := range perLayerNames {
				want[n] = true
			}
			if !reflect.DeepEqual(got, want) || len(r.PerLayer) != len(perLayerNames) {
				t.Errorf("per-layer metrics %v, want exactly %v", names(r.PerLayer), perLayerNames)
			}
			raw, err := os.ReadFile(r.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, err %v", len(doc.TraceEvents), err)
			}
			check()
		})
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{5, "p50"}, {20, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p999"}, {100000, "p9999"}, {5000000, "p9999"}} {
		if got, _ := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %s, want %s", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(ten, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Kind: kindOp, Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Kind: "client", Start: 10, Dur: 80},   // nested in 1
		{ID: 3, Parent: 2, Kind: "server", Start: 20, Dur: 40},   // 20..60
		{ID: 4, Parent: 2, Kind: "bulk", Start: 50, Dur: 30},     // 50..80, overlaps 3
		{ID: 5, Parent: 2, Kind: "server", Start: 85, Dur: 20},   // 85..105, sticks out of 2 (ends at 90)
		{ID: 6, Parent: 3, Kind: "handler", Start: 20, Dur: 40},  // covers 3 entirely
		{ID: 7, Parent: 99, Kind: "client", Start: 0, Dur: 1000}, // orphan
	}
	self := selfTimes(spans, childrenOf(spans))
	want := map[uint64]int64{1: 20, 2: 80 - (40 + 20 + 5), 3: 0, 4: 30, 5: 20, 6: 40, 7: 1000}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	b := analyse(spans, 0, func(span) bool { return true })
	if b.roots != 1 || b.rootNS != 100 {
		t.Fatalf("roots %d rootNS %d, want 1 and 100", b.roots, b.rootNS)
	}
	if got := b.share("server"); got != 0.20 {
		t.Errorf("server share %v, want 0.20", got)
	}
	if got := b.share(kindOp); got != 0.20 {
		t.Errorf("uncovered share %v, want 0.20", got)
	}
	if got := analyse(spans, 1, func(span) bool { return true }).roots; got != 0 {
		t.Errorf("a root before `from` was counted")
	}
}

func TestLadderDeltas(t *testing.T) {
	med := map[string]float64{"a": 7, "b": 9.5, "c": 9, "d": 12}
	if got, want := ladderDeltas([]string{"a", "b", "c", "d"}, med), []float64{7, 2.5, -0.5, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("deltas %v, want %v", got, want)
	}
	if got := residual(11, 10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("residual = %v, want 0.1", got)
	}
	if got := residual(9, 10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("residual = %v, want 0.1", got)
	}
	for _, chain := range ladderChains {
		for _, name := range chain {
			found := false
			for _, listed := range perLayerNames {
				found = found || listed == name
			}
			if !found {
				t.Errorf("ladder rung %s is not a per-layer metric", name)
			}
		}
	}
}
