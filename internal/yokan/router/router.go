package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/margo"
	"mochi/internal/resilience"
	"mochi/internal/yokan"
)

// ErrNoMap is returned by client operations before a map is known.
var ErrNoMap = errors.New("router: no shard map")

// ErrTooManyRedirects is returned when an operation keeps bouncing:
// either the cluster is mid-flip for longer than the retry budget or
// the client's map and the cluster disagree pathologically.
var ErrTooManyRedirects = errors.New("router: too many redirects")

const (
	// maxRedirects bounds the redirect/retry loop per operation.
	maxRedirects = 16
	// retryBase and retryCap pace the waits through a flip window: the
	// nth statusRetry waits min(retryBase<<n, retryCap). Redirects retry
	// immediately with the new map.
	retryBase = 2 * time.Millisecond
	retryCap  = 100 * time.Millisecond
)

// Router is the client-side consistent-hash router: it holds the
// current shard map (lock-free, swapped on redirects) and forwards
// each operation to the shard's owner. A node that no longer owns the
// shard redirects with its own map; the router merges it into its
// own and retries, so one reconfiguration costs in-flight requests at
// most one extra hop.
type Router struct {
	inst *margo.Instance
	cur  atomic.Pointer[Map]

	redirects atomic.Uint64
	installs  atomic.Uint64
}

// NewRouter creates a router over a seed map (from NewMap or
// Bootstrap).
func NewRouter(inst *margo.Instance, seed *Map) *Router {
	r := &Router{inst: inst}
	if seed != nil {
		r.cur.Store(seed)
	}
	return r
}

// Bootstrap fetches the current shard map from the first responsive
// node among addrs (e.g. the alive view of the service's SSG group)
// and returns a ready router.
func Bootstrap(ctx context.Context, inst *margo.Instance, addrs []string, provider uint16) (*Router, error) {
	var lastErr error = ErrNoMap
	for _, addr := range addrs {
		m, err := FetchMap(ctx, inst, addr, provider)
		if err != nil {
			lastErr = err
			continue
		}
		return NewRouter(inst, m), nil
	}
	return nil, fmt.Errorf("router: bootstrap failed: %w", lastErr)
}

// FetchMap asks one node for its current shard map.
func FetchMap(ctx context.Context, inst *margo.Instance, addr string, provider uint16) (*Map, error) {
	var reply mapReply
	if err := inst.Call(ctx, addr, RPCFetchMap, provider, nil, &reply); err != nil {
		return nil, err
	}
	if reply.Status != statusOK {
		return nil, fmt.Errorf("router: fetch map: %s", reply.Err)
	}
	return DecodeMap(reply.Map)
}

// Map returns the router's current view of the shard map.
func (r *Router) Map() *Map { return r.cur.Load() }

// Stats reports how many redirects this router absorbed and how many
// of their maps changed its own.
func (r *Router) Stats() (redirects, installs uint64) {
	return r.redirects.Load(), r.installs.Load()
}

// backoff waits out the nth retry of an operation inside a flip
// window. The schedule is the protocol's own: the peer is alive and has
// answered "not yet", so the transport's retry policy has no say here.
func (r *Router) backoff(ctx context.Context, n int) error {
	if !resilience.Sleep(ctx, r.inst.Clock(), min(retryBase<<uint(n), retryCap)) {
		return ctx.Err()
	}
	return nil
}

// opArgsPool recycles argument frames, and with them their one-element
// key and pair slices: Call takes its arguments as an interface, so a
// frame built per operation would be two heap allocations per Get/Put.
var opArgsPool = sync.Pool{New: func() any { return new(opArgs) }}

// op runs one data RPC against the owner of key (of shard, when key is
// nil), following redirects, and returns the reply once it reports
// success. Transport-level retries (drops, resets, timeouts) belong to
// the margo resilience layer underneath; this loop only handles the
// routing protocol: statusStale merges the server's map and re-routes,
// statusRetry backs off through the flip window.
func (r *Router) op(ctx context.Context, rpc string, shard uint32, key, value []byte) (*opReply, error) {
	args := opArgsPool.Get().(*opArgs)
	defer func() {
		clear(args.Keys) // the pool must not pin the caller's key and value
		clear(args.Pairs)
		*args = opArgs{Keys: args.Keys[:0], Pairs: args.Pairs[:0]}
		opArgsPool.Put(args)
	}()
	switch {
	case rpc == RPCPut:
		args.Pairs = append(args.Pairs, yokan.KeyValue{Key: key, Value: value})
	case key != nil:
		args.Keys = append(args.Keys, key)
	}
	retries := 0
	for attempt := 0; attempt <= maxRedirects; attempt++ {
		m := r.cur.Load()
		if m == nil {
			return nil, ErrNoMap
		}
		if key != nil {
			shard = m.ShardOf(key)
		}
		args.Shard = shard
		owner := m.Owners[shard]
		reply := &opReply{}
		if err := r.inst.Call(ctx, owner.Addr, rpc, owner.Provider, args, reply); err != nil {
			return nil, err
		}
		switch reply.Status {
		case statusOK:
			return reply, nil
		case statusNotFound:
			return nil, yokan.ErrKeyNotFound
		case statusStale:
			r.redirects.Add(1)
			nm, err := DecodeMap(reply.Map)
			if err != nil {
				return nil, fmt.Errorf("router: redirect with bad map: %w", err)
			}
			if mergeInto(&r.cur, nm) {
				r.installs.Add(1)
			} else {
				// The server's map adds nothing to ours: both
				// sides are catching up with a flip in progress.
				// Back off instead of spinning on the same answer.
				retries++
				if err := r.backoff(ctx, retries); err != nil {
					return nil, err
				}
			}
		case statusRetry:
			retries++
			if err := r.backoff(ctx, retries); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("router: remote error: %s", reply.Err)
		}
	}
	return nil, ErrTooManyRedirects
}

// Put stores one pair.
func (r *Router) Put(ctx context.Context, key, value []byte) error {
	_, err := r.op(ctx, RPCPut, 0, key, value)
	return err
}

// Get fetches one key.
func (r *Router) Get(ctx context.Context, key []byte) ([]byte, error) {
	reply, err := r.op(ctx, RPCGet, 0, key, nil)
	if err != nil {
		return nil, err
	}
	return reply.Value, nil
}

// Erase removes one key.
func (r *Router) Erase(ctx context.Context, key []byte) error {
	_, err := r.op(ctx, RPCErase, 0, key, nil)
	return err
}

// Exists reports whether key is present.
func (r *Router) Exists(ctx context.Context, key []byte) (bool, error) {
	reply, err := r.op(ctx, RPCExists, 0, key, nil)
	if err != nil {
		return false, err
	}
	return reply.Found, nil
}

// Count sums the pair count across all shards. It is not atomic
// against concurrent writes or migrations — like any distributed
// count, it is a monitoring number, not a transaction.
func (r *Router) Count(ctx context.Context) (int, error) {
	m := r.cur.Load()
	if m == nil {
		return 0, ErrNoMap
	}
	total := 0
	for s := 0; s < m.NumShards(); s++ {
		reply, err := r.op(ctx, RPCCount, uint32(s), nil, nil)
		if err != nil {
			return 0, err
		}
		total += int(reply.Count)
	}
	return total, nil
}

// Refresh fetches the map from the current owner set and merges it.
// Useful after a long idle period; normal traffic self-heals through
// redirects.
func (r *Router) Refresh(ctx context.Context) error {
	m := r.cur.Load()
	if m == nil {
		return ErrNoMap
	}
	var lastErr error
	for _, o := range m.Owners {
		nm, err := FetchMap(ctx, r.inst, o.Addr, o.Provider)
		if err != nil {
			lastErr = err
			continue
		}
		mergeInto(&r.cur, nm)
		return nil
	}
	return lastErr
}
