package modules

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mochi/internal/bedrock"
	"mochi/internal/yokan"
	"mochi/internal/yokan/router"
)

// XkvBootstrap seeds the initial shard map of a sharded keyspace.
// Exactly one logical keyspace is described by the same bootstrap
// block in every member's configuration: the map it derives is a pure
// function of the block, so every process adopts the identical map,
// every shard at version 0, without coordination.
type XkvBootstrap struct {
	// Shards is the fixed shard count of the keyspace.
	Shards int `json:"shards"`
	// VNodes is the virtual-node density of the hash ring
	// (0 = router.DefaultVNodes).
	VNodes int `json:"vnodes,omitempty"`
	// Owners lists the initial owner addresses round-robin across the
	// ring; the provider ID is the module provider's own. A process
	// whose address is absent starts as a spare: it routes, and can
	// be a migration destination.
	Owners []string `json:"owners"`
}

// XkvConfig parameterizes one "xkv" provider — a router.Node serving
// a slice of a horizontally sharded yokan keyspace.
type XkvConfig struct {
	// Backend templates each resident shard's database.
	Backend yokan.Config `json:"backend"`
	// Dir is the node's scratch root (empty = fresh temp dir).
	Dir string `json:"dir,omitempty"`
	// Bootstrap, when present, adopts the initial shard map at start.
	// Absent, the node owns nothing until a migration promotes a
	// shard onto it.
	Bootstrap *XkvBootstrap `json:"bootstrap,omitempty"`
}

// XkvModule instantiates sharded-keyspace router providers.
type XkvModule struct{}

// Type implements bedrock.Module.
func (*XkvModule) Type() string { return "xkv" }

type xkvInstance struct {
	node *router.Node
	raw  json.RawMessage
}

func (x *xkvInstance) Config() (json.RawMessage, error) { return x.raw, nil }
func (x *xkvInstance) Close() error                     { return x.node.Close() }

// Node exposes the wrapped router node for local composition (the
// balancer, tests, bedrock-query helpers).
func (x *xkvInstance) Node() *router.Node { return x.node }

// StartProvider implements bedrock.Module.
func (*XkvModule) StartProvider(args bedrock.ProviderArgs) (bedrock.ProviderInstance, error) {
	// Unknown keys are refused, as yokan.Config refuses them: a key
	// for an option that no longer exists must fail loudly.
	var cfg XkvConfig
	if len(args.Config) > 0 {
		dec := json.NewDecoder(bytes.NewReader(args.Config))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return nil, fmt.Errorf("modules: xkv config: %w", err)
		}
	}
	node, err := router.NewNode(args.Instance, router.Options{
		ProviderID: args.ProviderID,
		Backend:    cfg.Backend,
		Dir:        cfg.Dir,
	})
	if err != nil {
		return nil, err
	}
	if b := cfg.Bootstrap; b != nil {
		if len(b.Owners) == 0 {
			node.Close()
			return nil, fmt.Errorf("modules: xkv bootstrap without owners")
		}
		owners := make([]router.Owner, len(b.Owners))
		for i, addr := range b.Owners {
			owners[i] = router.Owner{Addr: addr, Provider: args.ProviderID}
		}
		vnodes := b.VNodes
		if vnodes == 0 {
			vnodes = router.DefaultVNodes
		}
		m, err := router.NewMap(b.Shards, owners, vnodes)
		if err != nil {
			node.Close()
			return nil, fmt.Errorf("modules: xkv bootstrap map: %w", err)
		}
		if err := node.Adopt(m); err != nil {
			node.Close()
			return nil, fmt.Errorf("modules: xkv bootstrap adopt: %w", err)
		}
	}
	raw := args.Config
	if len(raw) == 0 {
		raw = json.RawMessage(`{}`)
	}
	return &xkvInstance{node: node, raw: raw}, nil
}
