package pufferscale

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkResources(n int, nodes []string, seed int64) []Resource {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Resource, n)
	for i := range out {
		out[i] = Resource{
			ID:   fmt.Sprintf("r%03d", i),
			Node: nodes[rng.Intn(len(nodes))],
			Load: float64(rng.Intn(100) + 1),
			Size: float64(rng.Intn(1000) + 1),
		}
	}
	return out
}

func TestNoNodesRejected(t *testing.T) {
	if _, err := Rebalance(nil, nil, Objectives{}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyResourcesOK(t *testing.T) {
	p, err := Rebalance(nil, []string{"a"}, Objectives{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Moves) != 0 || p.BytesMoved != 0 {
		t.Fatalf("plan = %+v", p)
	}
}

func TestEveryResourceAssignedToValidNode(t *testing.T) {
	nodes := []string{"n0", "n1", "n2"}
	res := mkResources(50, nodes, 1)
	newNodes := []string{"n1", "n2", "n3"}
	p, err := Rebalance(res, newNodes, Objectives{})
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{"n1": true, "n2": true, "n3": true}
	if len(p.Assignment) != 50 {
		t.Fatalf("assignment covers %d resources", len(p.Assignment))
	}
	for id, n := range p.Assignment {
		if !valid[n] {
			t.Fatalf("%s assigned to removed/unknown node %s", id, n)
		}
	}
}

func TestRemovedNodesDrained(t *testing.T) {
	nodes := []string{"n0", "n1", "n2", "n3"}
	res := mkResources(40, nodes, 2)
	survivors := []string{"n0", "n1"}
	p, err := Rebalance(res, survivors, Objectives{WTime: 1}) // even with max movement-avoidance
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range p.Assignment {
		if n == "n2" || n == "n3" {
			t.Fatalf("%s left on removed node %s", id, n)
		}
	}
	// Every resource that was on a removed node appears in Moves.
	moved := map[string]bool{}
	for _, m := range p.Moves {
		moved[m.ResourceID] = true
	}
	for _, r := range res {
		if (r.Node == "n2" || r.Node == "n3") && !moved[r.ID] {
			t.Fatalf("%s on removed node but not moved", r.ID)
		}
	}
}

func TestScaleOutImprovesLoadBalance(t *testing.T) {
	// All resources crammed on one node; scale to 4 nodes.
	var res []Resource
	for i := 0; i < 32; i++ {
		res = append(res, Resource{ID: fmt.Sprintf("r%d", i), Node: "n0", Load: 10, Size: 100})
	}
	p, err := Rebalance(res, []string{"n0", "n1", "n2", "n3"}, Objectives{WLoad: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.LoadImbalance() > 1.01 {
		t.Fatalf("load imbalance = %f", p.LoadImbalance())
	}
}

func TestTimeWeightReducesMovement(t *testing.T) {
	nodes := []string{"n0", "n1", "n2"}
	res := mkResources(60, nodes, 3)
	balanced, err := Rebalance(res, nodes, Objectives{WLoad: 1, WData: 1})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Rebalance(res, nodes, Objectives{WLoad: 1, WData: 1, WTime: 50})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.BytesMoved > balanced.BytesMoved {
		t.Fatalf("high WTime moved more bytes (%f) than low (%f)", lazy.BytesMoved, balanced.BytesMoved)
	}
	// And the pure-balance plan should balance at least as well.
	if balanced.LoadImbalance() > lazy.LoadImbalance()+1e-9 {
		t.Fatalf("balance plan (%f) worse than lazy plan (%f)", balanced.LoadImbalance(), lazy.LoadImbalance())
	}
}

func TestLoadVsDataObjectives(t *testing.T) {
	// Resources where load and size anti-correlate: heavy-load ones
	// are small, heavy-data ones are idle.
	var res []Resource
	for i := 0; i < 16; i++ {
		res = append(res, Resource{ID: fmt.Sprintf("hot%d", i), Node: "n0", Load: 100, Size: 1})
		res = append(res, Resource{ID: fmt.Sprintf("big%d", i), Node: "n0", Load: 1, Size: 1000})
	}
	nodes := []string{"n0", "n1"}
	loadPlan, _ := Rebalance(res, nodes, Objectives{WLoad: 1})
	dataPlan, _ := Rebalance(res, nodes, Objectives{WData: 1})
	if loadPlan.LoadImbalance() > 1.05 {
		t.Fatalf("load-optimized plan imbalance = %f", loadPlan.LoadImbalance())
	}
	if dataPlan.DataImbalance() > 1.05 {
		t.Fatalf("data-optimized plan imbalance = %f", dataPlan.DataImbalance())
	}
}

func TestDeterminism(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	res := mkResources(30, nodes, 4)
	p1, _ := Rebalance(res, nodes, Objectives{WLoad: 1, WData: 1, WTime: 1})
	p2, _ := Rebalance(res, nodes, Objectives{WLoad: 1, WData: 1, WTime: 1})
	if len(p1.Moves) != len(p2.Moves) {
		t.Fatal("plans differ across runs")
	}
	for i := range p1.Moves {
		if p1.Moves[i] != p2.Moves[i] {
			t.Fatalf("move %d differs: %+v vs %+v", i, p1.Moves[i], p2.Moves[i])
		}
	}
}

func TestExecuteRunsAllMoves(t *testing.T) {
	nodes := []string{"n0", "n1", "n2"}
	res := mkResources(20, []string{"n0"}, 5)
	p, err := Rebalance(res, nodes, Objectives{WLoad: 1})
	if err != nil {
		t.Fatal(err)
	}
	executed := map[string]bool{}
	done, err := p.Execute(context.Background(), func(_ context.Context, m Move) error {
		executed[m.ResourceID] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(p.Moves) {
		t.Fatalf("completed %d of %d", len(done), len(p.Moves))
	}
	for _, m := range p.Moves {
		if !executed[m.ResourceID] {
			t.Fatalf("move %s never executed", m.ResourceID)
		}
	}
}

func TestExecuteStopsOnError(t *testing.T) {
	res := mkResources(20, []string{"n0"}, 6)
	p, err := Rebalance(res, []string{"n1"}, Objectives{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("migration failed")
	count := 0
	done, err := p.Execute(context.Background(), func(_ context.Context, m Move) error {
		count++
		if count == 3 {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(done) >= len(p.Moves) {
		t.Fatal("all moves completed despite error")
	}
	// One at a time means nothing starts after the move that failed.
	if count != 3 {
		t.Fatalf("%d moves started, the third failed", count)
	}
}

// Property: rebalancing never loses or invents resources, and removed
// nodes are always drained.
func TestQuickInvariants(t *testing.T) {
	f := func(seed int64, nRes uint8, removeNode bool) bool {
		nodes := []string{"n0", "n1", "n2", "n3"}
		res := mkResources(int(nRes%64)+1, nodes, seed)
		target := nodes
		if removeNode {
			target = nodes[:3]
		}
		p, err := Rebalance(res, target, Objectives{WLoad: 1, WData: 1, WTime: 1})
		if err != nil {
			return false
		}
		if len(p.Assignment) != len(res) {
			return false
		}
		valid := map[string]bool{}
		for _, n := range target {
			valid[n] = true
		}
		for _, n := range p.Assignment {
			if !valid[n] {
				return false
			}
		}
		// BytesMoved equals the sum of move sizes.
		var sum float64
		for _, m := range p.Moves {
			sum += m.Size
		}
		return sum == p.BytesMoved
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRebalance1000Resources(b *testing.B) {
	nodes := make([]string, 16)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%d", i)
	}
	res := mkResources(1000, nodes, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rebalance(res, nodes, Objectives{WLoad: 1, WData: 1, WTime: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Imbalance replaces the move-averse "dry run" plans the two balancer
// loops used to compute just to read these two ratios off them: on
// placements whose resources all sit on listed nodes it must agree with
// such a plan exactly.
func TestImbalanceMatchesDryRunPlan(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	for name, rs := range map[string][]Resource{
		"skewed": {
			{ID: "r0", Node: "a", Load: 9, Size: 100},
			{ID: "r1", Node: "a", Load: 1, Size: 900},
			{ID: "r2", Node: "b", Load: 2, Size: 50},
		},
		"even": {
			{ID: "r0", Node: "a", Load: 1, Size: 1},
			{ID: "r1", Node: "b", Load: 1, Size: 1},
			{ID: "r2", Node: "c", Load: 1, Size: 1},
		},
		"idle": {{ID: "r0", Node: "a"}, {ID: "r1", Node: "b"}},
		"none": nil,
	} {
		dry, err := Rebalance(rs, nodes, Objectives{WTime: 1})
		if err != nil {
			t.Fatal(err)
		}
		load, data := Imbalance(rs, nodes)
		if load != dry.LoadImbalance() || data != dry.DataImbalance() {
			t.Errorf("%s: Imbalance = (%v, %v), dry-run plan says (%v, %v)", name, load, data, dry.LoadImbalance(), dry.DataImbalance())
		}
	}
	if load, data := Imbalance([]Resource{{ID: "r", Node: "a", Load: 1, Size: 1}}, nil); load != 1 || data != 1 {
		t.Errorf("no nodes: Imbalance = (%v, %v), want (1, 1)", load, data)
	}
}
