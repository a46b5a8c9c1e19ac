package router

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"mochi/internal/margo"
	"mochi/internal/pufferscale"
)

// Balancer turns per-shard load samples into migrations, driven by
// Pufferscale's heuristic rather than a hardcoded plan: it samples
// every node's shard counters (RPCStats), diffs them against the
// previous sample to estimate load, asks pufferscale.Rebalance for a
// placement over the candidate nodes, and — when the measured
// imbalance crosses the threshold — executes the move of the hottest
// shard through the owner's Reshard RPC.
//
// The balancer is the coordinator the epoch protocol assumes: one
// balancer per keyspace, moving one shard at a time (DESIGN.md §9).
type Balancer struct {
	inst *margo.Instance
	// Candidates are every node that may own shards, including
	// spares that currently own none.
	Candidates []Owner
	// Objectives weight pufferscale's goals; the zero value is
	// balanced thirds.
	Objectives pufferscale.Objectives
	// Threshold is the max/mean load ratio above which a move is
	// worth its cost (default 1.25).
	Threshold float64

	prev map[uint32]uint64 // last cumulative ops sample per shard
}

// NewBalancer creates a balancer for the keyspace served by the
// candidate owners.
func NewBalancer(inst *margo.Instance, candidates []Owner) *Balancer {
	return &Balancer{inst: inst, Candidates: candidates, Threshold: 1.25}
}

// sample fetches per-shard stats from every distinct owner address in
// the map and returns the current cumulative counters.
func (b *Balancer) sample(ctx context.Context, m *Map) (map[uint32]ShardStat, error) {
	owners := map[Owner]bool{}
	for _, o := range m.Owners {
		owners[o] = true
	}
	out := map[uint32]ShardStat{}
	for o := range owners {
		var reply statsReply
		if err := b.inst.Call(ctx, o.Addr, RPCStats, o.Provider, nil, &reply); err != nil {
			return nil, fmt.Errorf("router: stats from %s: %w", o, err)
		}
		if reply.Status != statusOK {
			return nil, fmt.Errorf("router: stats from %s: %s", o, reply.Err)
		}
		for _, s := range reply.Stats {
			out[s.Shard] = s
		}
	}
	return out, nil
}

// Decision is one planned migration.
type Decision struct {
	Shard uint32
	From  Owner
	To    Owner
	// Imbalance is the measured max/mean load ratio that triggered
	// the move.
	Imbalance float64
}

// Plan samples the cluster and returns the single best move, or nil
// if the load is within Threshold. Load is the delta of each shard's
// op counter since the previous Plan call (the first call primes the
// baseline and reports no move unless byte sizes alone justify one).
func (b *Balancer) Plan(ctx context.Context, m *Map) (*Decision, error) {
	stats, err := b.sample(ctx, m)
	if err != nil {
		return nil, err
	}
	loads := make(map[uint32]float64, len(stats))
	for sid, s := range stats {
		d := s.Ops
		if prev, ok := b.prev[sid]; ok && prev <= s.Ops {
			d = s.Ops - prev
		}
		loads[sid] = float64(d)
	}
	if b.prev == nil {
		b.prev = map[uint32]uint64{}
	}
	for sid, s := range stats {
		b.prev[sid] = s.Ops
	}

	byAddr := map[string]Owner{}
	var nodes []string
	for _, o := range b.Candidates {
		if _, dup := byAddr[o.Addr]; !dup {
			byAddr[o.Addr] = o
			nodes = append(nodes, o.Addr)
		}
	}
	for _, o := range m.Owners {
		if _, dup := byAddr[o.Addr]; !dup {
			byAddr[o.Addr] = o
			nodes = append(nodes, o.Addr)
		}
	}
	sort.Strings(nodes)

	resources := make([]pufferscale.Resource, m.NumShards())
	shardOf := make(map[string]uint32, len(resources)) // resource ID -> position
	for s := range resources {
		id := strconv.Itoa(s)
		shardOf[id] = uint32(s)
		resources[s] = pufferscale.Resource{
			ID:   id,
			Node: m.Owners[s].Addr,
			Load: loads[uint32(s)],
			Size: float64(stats[uint32(s)].Bytes),
		}
	}
	threshold := b.Threshold
	if threshold <= 0 {
		threshold = 1.25
	}
	imbalance, _ := pufferscale.Imbalance(resources, nodes)
	if imbalance <= threshold {
		return nil, nil
	}
	plan, err := pufferscale.Rebalance(resources, nodes, b.Objectives)
	if err != nil {
		return nil, err
	}
	// One move at a time: the hottest shard pufferscale wants relocated.
	var best *pufferscale.Move
	for i := range plan.Moves {
		mv := &plan.Moves[i]
		if best == nil || loads[shardOf[mv.ResourceID]] > loads[shardOf[best.ResourceID]] {
			best = mv
		}
	}
	if best == nil {
		return nil, nil
	}
	sid := shardOf[best.ResourceID]
	return &Decision{
		Shard:     sid,
		From:      m.Owners[sid],
		To:        byAddr[best.To],
		Imbalance: imbalance,
	}, nil
}

// Execute commands the owning node to perform the move.
func (b *Balancer) Execute(ctx context.Context, d *Decision) error {
	var reply statusReply
	if err := b.inst.Call(ctx, d.From.Addr, RPCReshard, d.From.Provider, &reshardArgs{Shard: d.Shard, Dst: d.To}, &reply); err != nil {
		return err
	}
	if reply.Status != statusOK {
		return fmt.Errorf("router: reshard: %s", reply.Err)
	}
	return nil
}

// Step samples, plans, and executes at most one migration. It
// returns the decision it acted on (nil if the cluster is balanced).
func (b *Balancer) Step(ctx context.Context, m *Map) (*Decision, error) {
	d, err := b.Plan(ctx, m)
	if err != nil || d == nil {
		return nil, err
	}
	if err := b.Execute(ctx, d); err != nil {
		return d, err
	}
	return d, nil
}
