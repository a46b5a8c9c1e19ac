// Package colza models the elastic in-situ pipeline component the
// paper uses to illustrate client strategies for tracking an elastic
// service (§6, Observation 7): providers declare a dependency on SSG
// to maintain a hash of the group view; every client RPC carries the
// client's view hash, and a mismatch tells the client its view is
// outdated. Consistent processing across providers uses a two-phase
// commit driven by the application acting as controller.
//
// The pipeline itself is deliberately simple — clients stage data
// blocks for an iteration, then a commit executes the "pipeline"
// (aggregating block statistics) consistently across providers.
package colza

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"mochi/internal/argobots"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/ssg"
)

// Errors returned by colza.
var (
	// ErrStaleView tells a client its group view is outdated; it
	// should refresh from SSG and retry.
	ErrStaleView = errors.New("colza: stale view hash")
	ErrAborted   = errors.New("colza: two-phase commit aborted")
	ErrNoMembers = errors.New("colza: no providers in view")
)

// RPC names.
const (
	rpcStage   = "colza_stage"
	rpcPrepare = "colza_prepare"
	rpcCommit  = "colza_commit"
	rpcAbort   = "colza_abort"
)

type stageArgs struct {
	ViewHash  uint64
	Iteration uint64
	BlockID   uint64
	Data      []byte
}

func (a *stageArgs) Proc(p *codec.Proc) {
	p.Uint64(&a.ViewHash)
	p.Uint64(&a.Iteration)
	p.Uint64(&a.BlockID)
	p.BytesCopy(&a.Data)
}

type stageReply struct {
	Status   uint8 // 0 ok, 1 stale view, 2 error
	Err      string
	ViewHash uint64 // provider's current hash, for diagnosis
	// Commit results:
	Blocks uint64
	Bytes  uint64
}

func (r *stageReply) Proc(p *codec.Proc) {
	p.Uint8(&r.Status)
	p.String(&r.Err)
	p.Uint64(&r.ViewHash)
	p.Uint64(&r.Blocks)
	p.Uint64(&r.Bytes)
}

// Provider is one pipeline member.
type Provider struct {
	inst  *margo.Instance
	id    uint16
	group *ssg.Group
	rpcs  *margo.RPCSet

	mu       sync.Mutex
	staged   map[uint64]map[uint64][]byte // iteration -> blockID -> data
	prepared map[uint64]bool
	results  map[uint64]IterationResult
}

// IterationResult is what the pipeline produces per iteration.
type IterationResult struct {
	Blocks uint64
	Bytes  uint64
}

// NewProvider creates a pipeline provider whose view tracking is tied
// to the given SSG group (the provider's "dependency on SSG").
func NewProvider(inst *margo.Instance, id uint16, pool *argobots.Pool, group *ssg.Group) (*Provider, error) {
	p := &Provider{
		inst:     inst,
		id:       id,
		group:    group,
		staged:   map[uint64]map[uint64][]byte{},
		prepared: map[uint64]bool{},
		results:  map[uint64]IterationResult{},
	}
	var err error
	p.rpcs, err = inst.RegisterSet(id, pool,
		margo.RPC{Name: rpcStage, Handler: margo.Serve(p.handleStage)},
		margo.RPC{Name: rpcPrepare, Handler: margo.Serve(p.handlePrepare)},
		margo.RPC{Name: rpcCommit, Handler: margo.Serve(p.handleCommit)},
		margo.RPC{Name: rpcAbort, Handler: margo.Serve(p.handleAbort)},
	)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ID returns the provider ID.
func (p *Provider) ID() uint16 { return p.id }

// ViewHash returns the provider's current group-view hash.
func (p *Provider) ViewHash() uint64 { return p.group.View().Hash() }

// Result returns the committed result for an iteration.
func (p *Provider) Result(iter uint64) (IterationResult, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.results[iter]
	return r, ok
}

// Close deregisters the provider.
func (p *Provider) Close() error {
	p.rpcs.Close()
	return nil
}

// checkView compares the client's hash against ours — the Colza
// staleness protocol. A stale client gets the reply to send it.
func (p *Provider) checkView(clientHash uint64) *stageReply {
	mine := p.ViewHash()
	if clientHash != mine {
		return &stageReply{Status: 1, Err: ErrStaleView.Error(), ViewHash: mine}
	}
	return nil
}

func (p *Provider) handleStage(_ context.Context, _ *mercury.Handle, args *stageArgs) (codec.Message, error) {
	if r := p.checkView(args.ViewHash); r != nil {
		return r, nil
	}
	p.mu.Lock()
	if p.staged[args.Iteration] == nil {
		p.staged[args.Iteration] = map[uint64][]byte{}
	}
	p.staged[args.Iteration][args.BlockID] = args.Data
	p.mu.Unlock()
	return &stageReply{ViewHash: p.ViewHash()}, nil
}

func (p *Provider) handlePrepare(_ context.Context, _ *mercury.Handle, args *stageArgs) (codec.Message, error) {
	if r := p.checkView(args.ViewHash); r != nil {
		return r, nil
	}
	p.mu.Lock()
	p.prepared[args.Iteration] = true
	p.mu.Unlock()
	return &stageReply{ViewHash: p.ViewHash()}, nil
}

func (p *Provider) handleCommit(_ context.Context, _ *mercury.Handle, args *stageArgs) (codec.Message, error) {
	p.mu.Lock()
	if !p.prepared[args.Iteration] {
		p.mu.Unlock()
		return &stageReply{Status: 2, Err: "commit without prepare"}, nil
	}
	blocks := p.staged[args.Iteration]
	var res IterationResult
	for _, data := range blocks {
		res.Blocks++
		res.Bytes += uint64(len(data))
	}
	p.results[args.Iteration] = res
	delete(p.staged, args.Iteration)
	delete(p.prepared, args.Iteration)
	p.mu.Unlock()
	return &stageReply{Blocks: res.Blocks, Bytes: res.Bytes, ViewHash: p.ViewHash()}, nil
}

func (p *Provider) handleAbort(_ context.Context, _ *mercury.Handle, args *stageArgs) (codec.Message, error) {
	p.mu.Lock()
	delete(p.prepared, args.Iteration)
	p.mu.Unlock()
	return &stageReply{}, nil
}

// Client stages data into an elastic pipeline, tracking the view with
// the hash protocol, and acts as the two-phase-commit controller
// ("with the application itself acting as a controller").
type Client struct {
	inst       *margo.Instance
	providerID uint16
	groupName  string
	seed       string // any group member to fetch views from

	mu   sync.Mutex
	view ssg.View
}

// NewClient creates a pipeline client. seed is any service process
// participating in the SSG group.
func NewClient(inst *margo.Instance, groupName, seed string, providerID uint16) *Client {
	return &Client{inst: inst, providerID: providerID, groupName: groupName, seed: seed}
}

// RefreshView fetches the current group view.
func (c *Client) RefreshView(ctx context.Context) error {
	v, err := ssg.FetchView(ctx, c.inst, c.seed, c.groupName)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.view = v
	// Prefer a live member as the next seed in case ours dies.
	if live := v.Live(); len(live) > 0 {
		c.seed = live[0]
	}
	c.mu.Unlock()
	return nil
}

// Members returns the client's current view of pipeline processes.
func (c *Client) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view.Live()
}

// target picks the provider for a block (consistent placement by
// block ID over the sorted alive membership).
func (c *Client) target(blockID uint64) (string, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := c.view.Live()
	if len(live) == 0 {
		return "", 0, ErrNoMembers
	}
	sort.Strings(live)
	return live[blockID%uint64(len(live))], c.view.Hash(), nil
}

// Stage sends one data block for an iteration, refreshing the view
// and retrying when told it is stale.
func (c *Client) Stage(ctx context.Context, iteration, blockID uint64, data []byte) error {
	for attempt := 0; attempt < 5; attempt++ {
		addr, hash, err := c.target(blockID)
		if err != nil {
			if rerr := c.RefreshView(ctx); rerr != nil {
				return rerr
			}
			continue
		}
		args := stageArgs{ViewHash: hash, Iteration: iteration, BlockID: blockID, Data: data}
		var reply stageReply
		if err := c.inst.Call(ctx, addr, rpcStage, c.providerID, &args, &reply); err != nil {
			// Member may have died: refresh and retry.
			if rerr := c.RefreshView(ctx); rerr != nil {
				return rerr
			}
			continue
		}
		switch reply.Status {
		case 0:
			return nil
		case 1:
			if err := c.RefreshView(ctx); err != nil {
				return err
			}
		default:
			return fmt.Errorf("colza: stage failed: %s", reply.Err)
		}
	}
	return fmt.Errorf("colza: staging kept hitting stale views")
}

// Commit runs the two-phase commit for an iteration: all providers in
// the client's view must prepare (agreeing on the view hash), then
// all commit. Any prepare failure aborts.
func (c *Client) Commit(ctx context.Context, iteration uint64) (IterationResult, error) {
	c.mu.Lock()
	live := c.view.Live()
	hash := c.view.Hash()
	c.mu.Unlock()
	if len(live) == 0 {
		return IterationResult{}, ErrNoMembers
	}
	args := stageArgs{ViewHash: hash, Iteration: iteration}

	// Phase 1: prepare.
	for _, addr := range live {
		var reply stageReply
		if err := c.inst.Call(ctx, addr, rpcPrepare, c.providerID, &args, &reply); err == nil && reply.Status == 0 {
			continue
		}
		// Abort everyone we prepared.
		for _, a := range live {
			_ = c.inst.Call(ctx, a, rpcAbort, c.providerID, &args, nil)
		}
		_ = c.RefreshView(ctx)
		return IterationResult{}, fmt.Errorf("%w: prepare failed at %s", ErrAborted, addr)
	}

	// Phase 2: commit.
	var total IterationResult
	for _, addr := range live {
		var reply stageReply
		if err := c.inst.Call(ctx, addr, rpcCommit, c.providerID, &args, &reply); err != nil {
			return total, err
		}
		if reply.Status != 0 {
			return total, fmt.Errorf("colza: commit failed at %s: %s", addr, reply.Err)
		}
		total.Blocks += reply.Blocks
		total.Bytes += reply.Bytes
	}
	return total, nil
}
