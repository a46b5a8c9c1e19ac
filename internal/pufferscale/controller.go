package pufferscale

import (
	"context"
	"sort"
	"time"

	"mochi/internal/clock"
)

// imbalanceThreshold is the max/mean ratio, of load or of data, above
// which Step judges a rebalance worth what it costs the running
// workload. It is the only such threshold in the tree.
const imbalanceThreshold = 1.25

// Controller is the feedback loop of a dynamic service (paper §2.3:
// introspection is "the empirical data necessary for informed
// decisions"; §6 Observation 6: the decision is externalized and carried
// out "by calling functions provided via dependency injection"):
// measure, compare with the threshold, plan, move. What the resources
// are and how they move is the caller's; the policy is here, once.
//
// A Controller is one coordinator: its methods must not be called
// concurrently, and it executes one move at a time.
type Controller struct {
	// Inventory reports every migratable resource — the node it is on,
	// its size now, and in Load a cumulative counter of the accesses it
	// has served — and every node that may hold resources, spares
	// included.
	Inventory func(ctx context.Context) ([]Resource, []string, error)
	// Migrate carries out one move.
	Migrate Migrator
	// Objectives weight the plans; the zero value is balanced thirds.
	Objectives Objectives

	// prev is each resource's counter at the previous sample, nil before
	// the first.
	prev map[string]float64
}

// sample takes an inventory and replaces each cumulative counter with
// its growth since the previous sample, so that everywhere below load
// means rate: what a resource is doing now, not what it has done since
// it was created. Samples are one interval apart for every resource,
// and both Imbalance and Rebalance only compare loads with each other,
// so the growth needs no division by time. Without a previous sample
// the growth is the whole counter.
func (c *Controller) sample(ctx context.Context) ([]Resource, []string, error) {
	resources, nodes, err := c.Inventory(ctx)
	if err != nil {
		return nil, nil, err
	}
	cur := make(map[string]float64, len(resources))
	for i := range resources {
		r := &resources[i]
		cur[r.ID] = r.Load
		// A counter below its last sample restarted (the resource
		// moved): all of it is new.
		if before := c.prev[r.ID]; before <= r.Load {
			r.Load -= before
		}
	}
	c.prev = cur
	return resources, nodes, nil
}

// Step is one turn of the loop. The first only primes the baseline.
// Later ones measure the standing placement and, when load or data
// imbalance exceeds the threshold, plan over the inventory's nodes and
// execute the plan, which is then returned; a nil plan means nothing
// needed doing.
func (c *Controller) Step(ctx context.Context) (*Plan, error) {
	primed := c.prev != nil
	resources, nodes, err := c.sample(ctx)
	if err != nil || !primed {
		return nil, err
	}
	load, data := Imbalance(resources, nodes)
	if max(load, data) <= imbalanceThreshold {
		return nil, nil
	}
	return c.execute(ctx, resources, nodes)
}

// Apply plans a placement of the inventory onto nodes and executes it
// whatever the imbalance: an operator's explicit rebalance, or, with
// nodes leaving one out, a drain. Load is the growth since the last
// sample this controller took, or the whole counter if it took none.
func (c *Controller) Apply(ctx context.Context, nodes []string) (*Plan, error) {
	resources, _, err := c.sample(ctx)
	if err != nil {
		return nil, err
	}
	return c.execute(ctx, resources, nodes)
}

// execute plans and carries the moves out one at a time, hottest first,
// so that a plan cut short has moved what mattered most.
func (c *Controller) execute(ctx context.Context, resources []Resource, nodes []string) (*Plan, error) {
	plan, err := Rebalance(resources, nodes, c.Objectives)
	if err != nil {
		return nil, err
	}
	rate := make(map[string]float64, len(resources))
	for _, r := range resources {
		rate[r.ID] = r.Load
	}
	sort.SliceStable(plan.Moves, func(i, j int) bool {
		return rate[plan.Moves[i].ResourceID] > rate[plan.Moves[j].ResourceID]
	})
	_, err = plan.Execute(ctx, c.Migrate)
	return plan, err
}

// Run steps every interval on clk until ctx ends, which also interrupts
// a migration in progress: Migrate runs under ctx. A failed step ends
// the loop with its error; whether to start again is the caller's call.
func (c *Controller) Run(ctx context.Context, clk clock.Clock, interval time.Duration) error {
	t := clk.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C():
			if _, err := c.Step(ctx); err != nil {
				return err
			}
		}
	}
}
