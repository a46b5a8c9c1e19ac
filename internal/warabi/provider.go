package warabi

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"mochi/internal/argobots"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// RPC names served by warabi providers.
const (
	RPCCreate    = "warabi_create"
	RPCWrite     = "warabi_write"      // inline data (eager)
	RPCWriteBulk = "warabi_write_bulk" // provider pulls from client bulk
	RPCRead      = "warabi_read"       // inline data (eager)
	RPCReadBulk  = "warabi_read_bulk"  // provider pushes into client bulk
	RPCSize      = "warabi_size"
	RPCPersist   = "warabi_persist"
	RPCErase     = "warabi_erase"
	RPCList      = "warabi_list"
	RPCGetConfig = "warabi_get_config"
)

// EagerThreshold is the size above which clients switch from inline
// RPC payloads to bulk transfers, mirroring Mercury's eager limit.
const EagerThreshold = 4096

type ioArgs struct {
	Region  RegionID
	Offset  int64
	Size    int64
	Data    []byte
	Bulk    mercury.BulkDescriptor
	HasBulk bool
}

func (a *ioArgs) Proc(p *codec.Proc) {
	p.Uint64((*uint64)(&a.Region))
	p.Int64(&a.Offset)
	p.Int64(&a.Size)
	p.BytesCopy(&a.Data)
	p.Bool(&a.HasBulk)
	a.Bulk.Proc(p)
}

type ioReply struct {
	Status uint8
	Err    string
	Region RegionID
	Size   int64
	Data   []byte
	IDs    []RegionID
}

func (r *ioReply) Proc(p *codec.Proc) {
	p.Uint8(&r.Status)
	p.String(&r.Err)
	p.Uint64((*uint64)(&r.Region))
	p.Int64(&r.Size)
	p.BytesCopy(&r.Data)
	codec.Slice(p, &r.IDs, func(p *codec.Proc, id *RegionID) { p.Uint64((*uint64)(id)) })
}

func errStatus(err error) (uint8, string) {
	switch err {
	case nil:
		return 0, ""
	case ErrRegionNotFound:
		return 1, err.Error()
	case ErrOutOfBounds:
		return 3, err.Error()
	default:
		return 2, err.Error()
	}
}

func statusErr(status uint8, msg string) error {
	switch status {
	case 0:
		return nil
	case 1:
		return ErrRegionNotFound
	case 3:
		return ErrOutOfBounds
	default:
		return fmt.Errorf("warabi: remote error: %s", msg)
	}
}

// Provider serves a Target over RPC.
type Provider struct {
	inst *margo.Instance
	id   uint16
	rpcs *margo.RPCSet

	mu     sync.RWMutex
	target Target
	cfg    Config
	closed bool
}

// NewProvider creates a provider serving a target built from cfg.
func NewProvider(inst *margo.Instance, id uint16, pool *argobots.Pool, cfg Config) (*Provider, error) {
	target, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	p := &Provider{inst: inst, id: id, target: target, cfg: cfg}
	op := func(name string, fn func(context.Context, Target, *ioArgs, *ioReply) error) margo.RPC {
		return margo.RPC{Name: name, Handler: margo.Serve(p.serve(fn))}
	}
	p.rpcs, err = inst.RegisterSet(id, pool,
		op(RPCCreate, func(_ context.Context, t Target, a *ioArgs, r *ioReply) (err error) {
			r.Region, err = t.Create(a.Size)
			return err
		}),
		op(RPCWrite, func(_ context.Context, t Target, a *ioArgs, _ *ioReply) error {
			return t.Write(a.Region, a.Offset, a.Data)
		}),
		op(RPCWriteBulk, p.writeBulk),
		op(RPCRead, func(_ context.Context, t Target, a *ioArgs, r *ioReply) (err error) {
			r.Data, err = t.Read(a.Region, a.Offset, a.Size)
			return err
		}),
		op(RPCReadBulk, p.readBulk),
		op(RPCSize, func(_ context.Context, t Target, a *ioArgs, r *ioReply) (err error) {
			r.Size, err = t.Size(a.Region)
			return err
		}),
		op(RPCPersist, func(_ context.Context, t Target, a *ioArgs, _ *ioReply) error {
			return t.Persist(a.Region)
		}),
		op(RPCErase, func(_ context.Context, t Target, a *ioArgs, _ *ioReply) error {
			return t.Erase(a.Region)
		}),
		op(RPCList, func(_ context.Context, t Target, _ *ioArgs, r *ioReply) (err error) {
			r.IDs, err = t.List()
			return err
		}),
		margo.RPC{Name: RPCGetConfig, Handler: p.handleGetConfig},
	)
	if err != nil {
		target.Close()
		return nil, err
	}
	return p, nil
}

// ID returns the provider ID.
func (p *Provider) ID() uint16 { return p.id }

// Target returns the underlying resource.
func (p *Provider) Target() Target {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.target
}

// Files exposes the backing files for migration.
func (p *Provider) Files() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil
	}
	return p.target.Files()
}

// Config returns the provider configuration as JSON.
func (p *Provider) Config() ([]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return json.Marshal(p.cfg)
}

// Close deregisters and closes the target.
func (p *Provider) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	t := p.target
	p.mu.Unlock()
	p.rpcs.Close()
	return t.Close()
}

func (p *Provider) tgt() (Target, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrClosed
	}
	return p.target, nil
}

// serve binds one region operation: it resolves the live target, runs
// op and folds its error into the reply's status.
func (p *Provider) serve(op func(context.Context, Target, *ioArgs, *ioReply) error) func(context.Context, *mercury.Handle, *ioArgs) (codec.Message, error) {
	return func(ctx context.Context, _ *mercury.Handle, args *ioArgs) (codec.Message, error) {
		reply := &ioReply{}
		t, err := p.tgt()
		if err == nil {
			err = op(ctx, t, args, reply)
		}
		reply.Status, reply.Err = errStatus(err)
		return reply, nil
	}
}

// writeBulk pulls the client's exposed buffer, then writes it. The
// handler context flows into the bulk transfer so the pull records a
// bulk phase span under the surrounding trace (when sampled).
func (p *Provider) writeBulk(ctx context.Context, t Target, args *ioArgs, _ *ioReply) error {
	buf := make([]byte, args.Size)
	local := p.inst.Class().CreateBulk(buf, mercury.BulkReadWrite)
	err := p.inst.Class().BulkTransfer(ctx, mercury.BulkPull, args.Bulk, 0, local, 0, uint64(args.Size))
	local.Free()
	if err != nil {
		return err
	}
	return t.Write(args.Region, args.Offset, buf)
}

// readBulk reads the region and pushes it into the client's exposed
// buffer.
func (p *Provider) readBulk(ctx context.Context, t Target, args *ioArgs, _ *ioReply) error {
	data, err := t.Read(args.Region, args.Offset, args.Size)
	if err != nil {
		return err
	}
	local := p.inst.Class().CreateBulk(data, mercury.BulkReadOnly)
	defer local.Free()
	return p.inst.Class().BulkTransfer(ctx, mercury.BulkPush, args.Bulk, 0, local, 0, uint64(len(data)))
}

func (p *Provider) handleGetConfig(_ context.Context, h *mercury.Handle) {
	raw, err := p.Config()
	if err != nil {
		_ = h.RespondError(err)
		return
	}
	_ = h.Respond(raw)
}
