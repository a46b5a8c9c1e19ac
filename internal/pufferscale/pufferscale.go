// Package pufferscale implements the rebalancing heuristics of the
// Pufferscale component (paper §6, Observation 6; Cheriere et al.,
// CCGRID'20): given a set of resources (each with an access load and
// a data size) placed on nodes, and a new target node set, compute a
// migration plan that trades off three objectives:
//
//   - load balance: even distribution of access load across nodes,
//   - data balance: even distribution of stored bytes across nodes,
//   - rebalancing time: minimal data movement.
//
// Pufferscale is deliberately ignorant of what the resources are or
// how they migrate: the plan is carried out by a caller-supplied
// migration function (dependency injection), exactly as the paper
// describes.
package pufferscale

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Errors returned by the rebalancer.
var (
	ErrNoNodes     = errors.New("pufferscale: no target nodes")
	ErrUnknownNode = errors.New("pufferscale: resource on unknown node")
)

// Resource is one migratable unit (e.g. a Yokan database) with its
// observed access load (requests/s, from the margo monitor) and data
// size in bytes.
type Resource struct {
	ID   string
	Node string
	Load float64
	Size float64
}

// Objectives weights the three goals. Zero values are allowed; all
// zeros defaults to equal thirds.
type Objectives struct {
	WLoad float64 // load balance
	WData float64 // data balance
	WTime float64 // movement avoidance (rebalancing time)
}

func (o Objectives) normalized() Objectives {
	s := o.WLoad + o.WData + o.WTime
	if s <= 0 {
		return Objectives{WLoad: 1.0 / 3, WData: 1.0 / 3, WTime: 1.0 / 3}
	}
	return Objectives{WLoad: o.WLoad / s, WData: o.WData / s, WTime: o.WTime / s}
}

// Move relocates one resource.
type Move struct {
	ResourceID string
	From, To   string
	Size       float64
}

// Plan is the output of Rebalance.
type Plan struct {
	// Moves to execute (resources staying put are not listed).
	Moves []Move
	// Assignment maps every resource ID to its final node.
	Assignment map[string]string
	// Metrics of the resulting placement.
	MaxLoad, MeanLoad float64
	MaxData, MeanData float64
	BytesMoved        float64
}

// LoadImbalance is max/mean node load (1.0 = perfectly balanced).
func (p *Plan) LoadImbalance() float64 {
	if p.MeanLoad == 0 {
		return 1
	}
	return p.MaxLoad / p.MeanLoad
}

// DataImbalance is max/mean node data (1.0 = perfectly balanced).
func (p *Plan) DataImbalance() float64 {
	if p.MeanData == 0 {
		return 1
	}
	return p.MaxData / p.MeanData
}

// Imbalance measures the standing placement without planning anything:
// max/mean node load and max/mean node data over nodes (1.0 = perfectly
// balanced, and what an empty or idle placement reports).
func Imbalance(resources []Resource, nodes []string) (load, data float64) {
	perLoad, perData := map[string]float64{}, map[string]float64{}
	var totalLoad, totalData, maxLoad, maxData float64
	for _, r := range resources {
		perLoad[r.Node] += r.Load
		perData[r.Node] += r.Size
		totalLoad += r.Load
		totalData += r.Size
		maxLoad = max(maxLoad, perLoad[r.Node])
		maxData = max(maxData, perData[r.Node])
	}
	load, data = 1, 1
	if totalLoad > 0 && len(nodes) > 0 {
		load = maxLoad / (totalLoad / float64(len(nodes)))
	}
	if totalData > 0 && len(nodes) > 0 {
		data = maxData / (totalData / float64(len(nodes)))
	}
	return load, data
}

// Rebalance computes a placement of resources onto nodes.
//
// The heuristic (after Pufferscale) processes resources in decreasing
// weight order and greedily assigns each to the node minimizing a
// weighted cost of projected load, projected data, and movement.
// Resources on surviving nodes pay a movement penalty to relocate, so
// a high WTime keeps them in place; resources on removed nodes must
// move regardless.
func Rebalance(resources []Resource, nodes []string, obj Objectives) (*Plan, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	obj = obj.normalized()
	nodeSet := map[string]bool{}
	for _, n := range nodes {
		nodeSet[n] = true
	}

	var totalLoad, totalData float64
	for _, r := range resources {
		totalLoad += r.Load
		totalData += r.Size
	}
	meanLoad := totalLoad / float64(len(nodes))
	meanData := totalData / float64(len(nodes))
	// Normalizers so the three cost terms are comparable.
	normLoad := meanLoad
	if normLoad <= 0 {
		normLoad = 1
	}
	normData := meanData
	if normData <= 0 {
		normData = 1
	}

	// Process heaviest resources first (classic LPT scheduling).
	order := make([]int, len(resources))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := resources[order[a]], resources[order[b]]
		wa := obj.WLoad*ra.Load/normLoad + obj.WData*ra.Size/normData
		wb := obj.WLoad*rb.Load/normLoad + obj.WData*rb.Size/normData
		if wa != wb {
			return wa > wb
		}
		return resources[order[a]].ID < resources[order[b]].ID // determinism
	})

	load := map[string]float64{}
	data := map[string]float64{}
	plan := &Plan{Assignment: map[string]string{}}

	for _, idx := range order {
		r := resources[idx]
		best := ""
		bestCost := 0.0
		for _, n := range nodes {
			// Projected imbalance if r lands on n.
			cost := obj.WLoad*((load[n]+r.Load)/normLoad) +
				obj.WData*((data[n]+r.Size)/normData)
			if n != r.Node {
				// The small constant keeps zero-size resources from
				// migrating pointlessly on cost ties.
				cost += obj.WTime * (r.Size/normData + 1e-6)
			}
			if best == "" || cost < bestCost || (cost == bestCost && n < best) {
				best, bestCost = n, cost
			}
		}
		load[best] += r.Load
		data[best] += r.Size
		plan.Assignment[r.ID] = best
		if best != r.Node {
			plan.Moves = append(plan.Moves, Move{ResourceID: r.ID, From: r.Node, To: best, Size: r.Size})
			plan.BytesMoved += r.Size
		}
	}

	for _, n := range nodes {
		if load[n] > plan.MaxLoad {
			plan.MaxLoad = load[n]
		}
		if data[n] > plan.MaxData {
			plan.MaxData = data[n]
		}
	}
	plan.MeanLoad = meanLoad
	plan.MeanData = meanData
	sort.Slice(plan.Moves, func(i, j int) bool { return plan.Moves[i].ResourceID < plan.Moves[j].ResourceID })
	return plan, nil
}

// Migrator performs one move; it is injected by the caller (e.g. a
// REMI-backed migration of a Yokan provider).
type Migrator func(ctx context.Context, m Move) error

// Execute runs the plan's moves one at a time, in order, stopping at
// the first error (already-completed moves are reported).
func (p *Plan) Execute(ctx context.Context, migrate Migrator) (completed []Move, err error) {
	for _, m := range p.Moves {
		if err := migrate(ctx, m); err != nil {
			return completed, fmt.Errorf("pufferscale: move %s (%s->%s): %w", m.ResourceID, m.From, m.To, err)
		}
		completed = append(completed, m)
	}
	return completed, nil
}
