package pufferscale

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// fakeService is an inventory and a mover over an in-memory placement:
// counters only ever grow, a move changes where a resource is.
type fakeService struct {
	mu        sync.Mutex
	resources []Resource // Load is the cumulative counter
	nodes     []string
	moves     []Move
}

func (f *fakeService) inventory(context.Context) ([]Resource, []string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Resource(nil), f.resources...), f.nodes, nil
}

func (f *fakeService) migrate(_ context.Context, m Move) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.resources {
		if f.resources[i].ID == m.ResourceID {
			f.resources[i].Node = m.To
		}
	}
	f.moves = append(f.moves, m)
	return nil
}

// serve adds ops accesses to the counter of each named resource.
func (f *fakeService) serve(ops float64, ids ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.resources {
		for _, id := range ids {
			if f.resources[i].ID == id {
				f.resources[i].Load += ops
			}
		}
	}
}

func (f *fakeService) controller() *Controller {
	return &Controller{Inventory: f.inventory, Migrate: f.migrate}
}

func twoByTwo() *fakeService {
	return &fakeService{
		nodes: []string{"n0", "n1"},
		resources: []Resource{
			{ID: "a", Node: "n0", Size: 10}, {ID: "b", Node: "n0", Size: 10},
			{ID: "c", Node: "n1", Size: 10}, {ID: "d", Node: "n1", Size: 10},
		},
	}
}

// Load means rate. A node that was hot before the controller's last
// sample is not imbalanced now, and one that became hot since is,
// whatever the lifetime counters say.
func TestStepPlansOnRateNotLifetime(t *testing.T) {
	ctx := context.Background()

	// Skewed history, equal current rate: no move.
	f := twoByTwo()
	f.serve(10000, "a", "b")
	c := f.controller()
	if plan, err := c.Step(ctx); plan != nil || err != nil {
		t.Fatalf("priming step: plan %v, err %v", plan, err)
	}
	f.serve(100, "a", "b", "c", "d")
	if plan, err := c.Step(ctx); plan != nil || err != nil {
		t.Fatalf("equal rates after a skewed history: plan %+v, err %v", plan, err)
	}
	if len(f.moves) != 0 {
		t.Fatalf("moved %+v on equal rates", f.moves)
	}

	// Equal history, skewed current rate: the hot resource moves.
	f = twoByTwo()
	f.serve(10000, "a", "b", "c", "d")
	c = f.controller()
	c.Objectives = Objectives{WLoad: 1, WTime: 0.1}
	if plan, err := c.Step(ctx); plan != nil || err != nil {
		t.Fatalf("priming step: plan %v, err %v", plan, err)
	}
	f.serve(500, "a")
	f.serve(400, "b")
	f.serve(10, "c", "d")
	plan, err := c.Step(ctx)
	if err != nil || plan == nil {
		t.Fatalf("skewed rates: plan %v, err %v", plan, err)
	}
	if len(f.moves) == 0 || f.moves[0].From != "n0" || f.moves[0].To != "n1" {
		t.Fatalf("moves %+v, want a hot resource off n0", f.moves)
	}
	if after := plan.LoadImbalance(); after > imbalanceThreshold {
		t.Fatalf("planned load imbalance %.2f still above the threshold", after)
	}
}

// The first step has no previous sample to difference against: it
// primes and decides nothing, however skewed the counters are.
func TestFirstStepOnlyPrimes(t *testing.T) {
	f := twoByTwo()
	f.serve(10000, "a", "b")
	if plan, err := f.controller().Step(context.Background()); plan != nil || err != nil || len(f.moves) != 0 {
		t.Fatalf("first step: plan %v, err %v, moves %+v", plan, err, f.moves)
	}
}

// Data imbalance alone triggers a rebalance, and a balanced placement
// is left alone on every later step.
func TestStepReactsToDataSkewThenIdles(t *testing.T) {
	ctx := context.Background()
	f := &fakeService{nodes: []string{"n0", "n1", "n2", "n3"}}
	for i := 0; i < 4; i++ {
		f.resources = append(f.resources, Resource{ID: fmt.Sprintf("db-%d", i), Node: "n0", Size: 30 << 10})
	}
	c := f.controller()
	c.Objectives = Objectives{WData: 1, WTime: 0.1}
	if plan, _ := c.Step(ctx); plan != nil {
		t.Fatal("priming step planned")
	}
	plan, err := c.Step(ctx)
	if err != nil || plan == nil || len(plan.Moves) != 3 {
		t.Fatalf("four databases on one of four nodes: plan %+v, err %v", plan, err)
	}
	perNode := map[string]int{}
	for _, r := range f.resources {
		perNode[r.Node]++
	}
	if len(perNode) != 4 {
		t.Fatalf("placement after the step: %v", perNode)
	}
	for i := 0; i < 3; i++ {
		if plan, err := c.Step(ctx); plan != nil || err != nil {
			t.Fatalf("balanced placement, step %d: plan %+v, err %v", i, plan, err)
		}
	}
	if len(f.moves) != 3 {
		t.Fatalf("moves after idling: %d", len(f.moves))
	}
}

// Moves run one at a time, hottest resource first.
func TestStepMovesHottestFirst(t *testing.T) {
	ctx := context.Background()
	f := &fakeService{nodes: []string{"n0", "n1", "n2"}}
	for i := 0; i < 6; i++ {
		f.resources = append(f.resources, Resource{ID: fmt.Sprintf("s%d", i), Node: "n0", Size: 1})
	}
	c := f.controller()
	var inFlight, maxInFlight int
	c.Migrate = func(ctx context.Context, m Move) error {
		f.mu.Lock()
		inFlight++
		maxInFlight = max(maxInFlight, inFlight)
		f.mu.Unlock()
		err := f.migrate(ctx, m)
		f.mu.Lock()
		inFlight--
		f.mu.Unlock()
		return err
	}
	c.Step(ctx)
	rate := map[string]float64{}
	for i, r := range f.resources {
		rate[r.ID] = float64(10 * (i + 1))
		f.serve(rate[r.ID], r.ID)
	}
	if plan, err := c.Step(ctx); err != nil || plan == nil {
		t.Fatalf("plan %v, err %v", plan, err)
	}
	if len(f.moves) < 2 {
		t.Fatalf("moves: %+v", f.moves)
	}
	for i := 1; i < len(f.moves); i++ {
		if rate[f.moves[i-1].ResourceID] < rate[f.moves[i].ResourceID] {
			t.Fatalf("move %d (%s) is hotter than the one before it (%s)", i, f.moves[i].ResourceID, f.moves[i-1].ResourceID)
		}
	}
	if maxInFlight != 1 {
		t.Fatalf("%d moves in flight at once", maxInFlight)
	}
}

// Apply plans and executes below the threshold too, and over the nodes
// it is given: leaving a node out drains it, and with time-dominant
// objectives nothing else moves.
func TestApplyDrainsLeftOutNode(t *testing.T) {
	f := twoByTwo()
	f.nodes = append(f.nodes, "n2")
	f.resources = append(f.resources, Resource{ID: "e", Node: "n2", Size: 10}, Resource{ID: "f", Node: "n2", Size: 10})
	c := f.controller()
	c.Objectives = Objectives{WLoad: 1, WData: 1, WTime: 10}
	plan, err := c.Apply(context.Background(), []string{"n0", "n1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 2 {
		t.Fatalf("moves: %+v", plan.Moves)
	}
	to := map[string]bool{}
	for _, m := range f.moves {
		if m.From != "n2" {
			t.Fatalf("survivor-to-survivor move %+v", m)
		}
		to[m.To] = true
	}
	if !to["n0"] || !to["n1"] {
		t.Fatalf("drained resources not spread over the survivors: %+v", f.moves)
	}
}

// A loop over Step, one per tick: the first primes, the next decides
// and moves.
func TestRunStepsOnTicks(t *testing.T) {
	f := twoByTwo()
	c := f.controller()
	c.Objectives = Objectives{WLoad: 1, WTime: 0.1}
	tick := func() *Plan {
		t.Helper()
		plan, err := c.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	if plan := tick(); plan != nil {
		t.Fatalf("the priming tick planned %+v", plan)
	}
	f.serve(900, "a", "b")
	f.serve(10, "c", "d")
	if plan := tick(); plan == nil || len(f.moves) == 0 {
		t.Fatal("no move after a tick over skewed rates")
	}
}
