package router

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mochi/internal/margo"
	"mochi/internal/pufferscale"
)

// The router's half of the feedback loop (DESIGN.md §9): a keyspace as
// a pufferscale.Controller sees it. A resource is a shard, named by its
// number; a node is an owner, named by Owner.String. The policy —
// rates, the threshold, the plan, one move at a time — is the
// controller's.

// Inventory returns the controller's view of r's keyspace: each call
// refreshes r's map and samples every owner's per-shard counters
// (RPCStats) into one resource per shard, cumulative operations as its
// load and resident bytes as its size. The nodes are the map's owners
// plus spares, which may own nothing yet.
func Inventory(r *Router, spares []Owner) func(context.Context) ([]pufferscale.Resource, []string, error) {
	return func(ctx context.Context) ([]pufferscale.Resource, []string, error) {
		if err := r.Refresh(ctx); err != nil {
			return nil, nil, err
		}
		m := r.Map()
		owners := map[Owner]bool{}
		for _, o := range spares {
			owners[o] = false
		}
		for _, o := range m.Owners {
			owners[o] = true
		}
		resources := make([]pufferscale.Resource, m.NumShards())
		for s, o := range m.Owners {
			resources[s] = pufferscale.Resource{ID: strconv.Itoa(s), Node: o.String()}
		}
		nodes := make([]string, 0, len(owners))
		for o, owns := range owners {
			nodes = append(nodes, o.String())
			if !owns {
				continue
			}
			var reply statsReply
			if err := r.inst.Call(ctx, o.Addr, RPCStats, o.Provider, nil, &reply); err != nil {
				return nil, nil, fmt.Errorf("router: stats from %s: %w", o, err)
			}
			if reply.Status != statusOK {
				return nil, nil, fmt.Errorf("router: stats from %s: %s", o, reply.Err)
			}
			for _, st := range reply.Stats {
				// A node still catching up with a flip may report a
				// shard the map has given to another.
				if int(st.Shard) < len(resources) && m.Owners[st.Shard] == o {
					resources[st.Shard].Load = float64(st.Ops)
					resources[st.Shard].Size = float64(st.Bytes)
				}
			}
		}
		sort.Strings(nodes)
		return resources, nodes, nil
	}
}

// Migrator returns the controller's mover: it commands a shard's owner
// to reshard it to the move's destination (RPCReshard) and returns when
// the flip has committed.
func Migrator(inst *margo.Instance) pufferscale.Migrator {
	return func(ctx context.Context, mv pufferscale.Move) error {
		shard, err := strconv.ParseUint(mv.ResourceID, 10, 32)
		if err != nil {
			return fmt.Errorf("router: move of %q: not a shard", mv.ResourceID)
		}
		from, err := parseOwner(mv.From)
		if err != nil {
			return err
		}
		to, err := parseOwner(mv.To)
		if err != nil {
			return err
		}
		var reply statusReply
		if err := inst.Call(ctx, from.Addr, RPCReshard, from.Provider, &reshardArgs{Shard: uint32(shard), Dst: to}, &reply); err != nil {
			return err
		}
		if reply.Status != statusOK {
			return fmt.Errorf("router: reshard: %s", reply.Err)
		}
		return nil
	}
}

// parseOwner inverts Owner.String.
func parseOwner(s string) (Owner, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return Owner{}, fmt.Errorf("router: %q is not an owner", s)
	}
	provider, err := strconv.ParseUint(s[i+1:], 10, 16)
	if err != nil {
		return Owner{}, fmt.Errorf("router: %q is not an owner", s)
	}
	return Owner{Addr: s[:i], Provider: uint16(provider)}, nil
}
