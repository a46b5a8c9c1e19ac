// Package poesie is the embedded-interpreter component (paper §3.2:
// "Mochi's embedded language interpreter component (Poesie), to
// execute scripts"). A provider hosts a scripting engine (the jx9
// interpreter) with a persistent per-provider variable environment;
// clients submit scripts for remote execution.
package poesie

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"mochi/internal/argobots"
	"mochi/internal/codec"
	"mochi/internal/jx9"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// RPC names.
const (
	RPCExecute = "poesie_execute"
	RPCReset   = "poesie_reset"
)

// ErrScript wraps remote script failures.
var ErrScript = errors.New("poesie: script error")

// Config parameterizes a provider.
type Config struct {
	// Language is kept for fidelity with Poesie's multi-language
	// design; only "jx9" is supported.
	Language string `json:"language,omitempty"`
	// MaxSteps bounds script execution (default 1e6).
	MaxSteps int `json:"max_steps,omitempty"`
}

// Provider executes scripts in a persistent environment.
type Provider struct {
	inst *margo.Instance
	id   uint16
	cfg  Config
	rpcs *margo.RPCSet

	mu  sync.Mutex
	env map[string]jx9.Value
}

// NewProvider creates a poesie provider.
func NewProvider(inst *margo.Instance, id uint16, pool *argobots.Pool, cfg Config) (*Provider, error) {
	if cfg.Language != "" && cfg.Language != "jx9" {
		return nil, fmt.Errorf("poesie: unsupported language %q", cfg.Language)
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 1e6
	}
	p := &Provider{inst: inst, id: id, cfg: cfg, env: map[string]jx9.Value{}}
	var err error
	p.rpcs, err = inst.RegisterSet(id, pool,
		margo.RPC{Name: RPCExecute, Handler: margo.Serve(p.handleExecute)},
		margo.RPC{Name: RPCReset, Handler: p.handleReset},
	)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ID returns the provider ID.
func (p *Provider) ID() uint16 { return p.id }

// Config returns the provider configuration as JSON.
func (p *Provider) Config() ([]byte, error) { return json.Marshal(p.cfg) }

// Close deregisters the provider.
func (p *Provider) Close() error {
	p.rpcs.Close()
	return nil
}

type execArgs struct {
	Script string
}

func (a *execArgs) Proc(p *codec.Proc) { p.String(&a.Script) }

type execReply struct {
	OK     bool
	Err    string
	Result string // JSON of the return value
	Output string // print() output
}

func (r *execReply) Proc(p *codec.Proc) {
	p.Bool(&r.OK)
	p.String(&r.Err)
	p.String(&r.Result)
	p.String(&r.Output)
}

func (p *Provider) handleExecute(_ context.Context, _ *mercury.Handle, args *execArgs) (codec.Message, error) {
	engine := jx9.Engine{MaxSteps: p.cfg.MaxSteps}
	p.mu.Lock()
	globals := make(map[string]jx9.Value, len(p.env))
	for k, v := range p.env {
		globals[k] = v
	}
	res, err := engine.Run(args.Script, globals)
	// Persist the final environment so scripts can leave state behind
	// for later invocations.
	if res.Globals != nil {
		p.env = res.Globals
	}
	p.mu.Unlock()
	var reply execReply
	if err != nil {
		reply.Err = err.Error()
	} else {
		reply.OK = true
		reply.Result = res.Return.String()
		reply.Output = res.Output
	}
	return &reply, nil
}

func (p *Provider) handleReset(_ context.Context, h *mercury.Handle) {
	p.mu.Lock()
	p.env = map[string]jx9.Value{}
	p.mu.Unlock()
	margo.Reply(h, &execReply{OK: true})
}

// Client executes scripts on remote poesie providers.
type Client struct {
	inst *margo.Instance
}

// NewClient creates a poesie client.
func NewClient(inst *margo.Instance) *Client {
	return &Client{inst: inst}
}

// Handle addresses one remote interpreter.
type Handle struct {
	client   *Client
	addr     string
	provider uint16
}

// Handle returns a handle to the interpreter at (addr, providerID).
func (c *Client) Handle(addr string, providerID uint16) *Handle {
	return &Handle{client: c, addr: addr, provider: providerID}
}

// Execute runs a script remotely and returns (result JSON, output).
func (h *Handle) Execute(ctx context.Context, script string) (string, string, error) {
	var reply execReply
	if err := h.client.inst.Call(ctx, h.addr, RPCExecute, h.provider, &execArgs{Script: script}, &reply); err != nil {
		return "", "", err
	}
	if !reply.OK {
		return "", "", fmt.Errorf("%w: %s", ErrScript, reply.Err)
	}
	return reply.Result, reply.Output, nil
}

// Reset clears the remote interpreter's environment.
func (h *Handle) Reset(ctx context.Context) error {
	return h.client.inst.Call(ctx, h.addr, RPCReset, h.provider, nil, &execReply{})
}
