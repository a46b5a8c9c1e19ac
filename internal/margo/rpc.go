package margo

import (
	"context"
	"fmt"
	"sync"

	"mochi/internal/argobots"
	"mochi/internal/codec"
	"mochi/internal/mercury"
)

// The typed RPC binding: the anatomy every component shares (paper
// Figure 1 — a provider "registers RPCs and their callbacks", a handle
// maps to (address, provider ID)), written once. Messages are
// codec.Message values; Register/ForwardProvider remain
// the byte-level floor this file is built on. The memory rules live
// here and nowhere else:
//
//   - Encoded bytes, either direction, sit in a pooled encoder that is
//     lent to ForwardProvider/Respond for the duration of that one call
//     (both copy or serialize before returning) and goes back to the
//     pool straight after: no marshal buffer is allocated per RPC.
//   - A reply decoded by Call may alias the reply buffer, which is the
//     caller's own and never recycled.
//   - Arguments decoded by Serve may alias the request buffer, which
//     mercury recycles when the RPC is answered: a handler must not
//     retain them (or anything it stored without copying) past that.

// Call is the client half: it encodes args (nil sends an empty
// payload), forwards the RPC to (addr, provider) and decodes the answer
// into reply (nil discards it). Transport errors and a handler's
// RespondError come back as the error; status codes inside reply are
// the component's to interpret.
func (m *Instance) Call(ctx context.Context, addr, rpc string, provider uint16, args, reply codec.Message) error {
	e := codec.GetEncoder()
	if args != nil {
		args.Proc(e.Proc())
	}
	out, err := m.ForwardProvider(ctx, addr, rpc, provider, e.Bytes())
	codec.PutEncoder(e)
	if err != nil || reply == nil {
		return err
	}
	return codec.Unmarshal(out, reply)
}

// Reply answers h with the encoding of reply. Handlers bound with
// Serve return their reply instead; Reply is for handlers that take no
// arguments and for a Serve handler that kept the handle to answer
// later.
func Reply(h *mercury.Handle, reply codec.Message) {
	e := codec.GetEncoder()
	reply.Proc(e.Proc())
	_ = h.Respond(e.Bytes())
	codec.PutEncoder(e)
}

// Serve is the server half: it turns fn, written against decoded
// arguments, into a Handler. Input that does not decode as A — short,
// overlong, or with a count its bytes cannot hold — is answered here
// with RespondError and never reaches fn. fn's reply is sent with
// Reply, its error with RespondError. Returning neither means fn has
// taken the handle over and answers it itself, then or later (bulk
// handlers reach the class through it; a long operation answers from
// its own goroutine).
func Serve[A any, PA interface {
	*A
	codec.Message
}](fn func(ctx context.Context, h *mercury.Handle, args *A) (codec.Message, error)) Handler {
	return func(ctx context.Context, h *mercury.Handle) {
		args := new(A)
		if err := codec.Unmarshal(h.Input(), PA(args)); err != nil {
			_ = h.RespondError(err)
			return
		}
		reply, err := fn(ctx, h, args)
		switch {
		case err != nil:
			_ = h.RespondError(err)
		case reply != nil:
			Reply(h, reply)
		}
	}
}

// RPC is one entry of a provider's RPC set: a name, the handler, and
// the pool it runs on when that is not the set's.
type RPC struct {
	Name    string
	Pool    *argobots.Pool
	Handler Handler
}

// RPCSet is the installed RPCs of one provider.
type RPCSet struct {
	m        *Instance
	provider uint16
	once     sync.Once
	names    []string
}

// RegisterSet installs rpcs for one provider ID, all or nothing: if any
// name is already taken for that provider (or repeated in rpcs), or the
// instance is finalized, nothing is registered. Handlers run on pool
// (nil selects the instance's rpc pool) unless their entry names its
// own.
func (m *Instance) RegisterSet(provider uint16, pool *argobots.Pool, rpcs ...RPC) (*RPCSet, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.finalized {
		return nil, ErrFinalized
	}
	set := &RPCSet{m: m, provider: provider, names: make([]string, 0, len(rpcs))}
	for i, r := range rpcs {
		_, taken := m.regs[regKey{r.Name, provider}]
		for _, earlier := range rpcs[:i] {
			taken = taken || earlier.Name == r.Name
		}
		if taken {
			return nil, fmt.Errorf("%w: %s provider %d", ErrProviderRegistered, r.Name, provider)
		}
		set.names = append(set.names, r.Name)
	}
	if pool == nil {
		pool = m.rpcPool
	}
	for _, r := range rpcs {
		pool, h := pool, r.Handler
		if r.Pool != nil {
			pool = r.Pool
		}
		pool.Retain()
		m.regs[regKey{r.Name, provider}] = rpcReg{name: r.Name, provider: provider, pool: pool}
		m.class.RegisterProvider(r.Name, provider, func(hd *mercury.Handle) {
			m.dispatch(pool, h, hd)
		})
	}
	return set, nil
}

// Close deregisters exactly the RPCs the set installed. It is
// idempotent.
func (s *RPCSet) Close() {
	s.once.Do(func() {
		for _, name := range s.names {
			s.m.DeregisterProvider(name, s.provider)
		}
	})
}
