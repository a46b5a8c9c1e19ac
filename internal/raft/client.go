package raft

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"mochi/internal/clock"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/resilience"
)

// retryInterval is the least time a round over the members takes when
// none of them led or hinted at a leader. A member that knows no leader
// holds the request until it does, or for an election timeout, so what
// this paces is the rounds that found nobody to hold it: transport
// failures, and refusals that came at once.
const retryInterval = 50 * time.Millisecond

// Client submits commands to a Raft group from any process, following
// leader hints and retrying across elections.
type Client struct {
	inst  *margo.Instance
	clk   clock.Clock
	group string
	// seeds are addresses of known members. A round tries each once,
	// starting at seeds[first] and one further every round, so that
	// sessions spread over the members and a dead one is not what every
	// round begins with.
	seeds []string
	first int

	// leaderMu guards leader, the last address that answered (or was
	// hinted) as leader. Caching it across calls keeps the steady state
	// at one RPC per op; without it every call rediscovers the leader
	// by walking the seed list.
	leaderMu sync.Mutex
	leader   string
}

// cachedLeader returns the last known leader address ("" if none).
func (c *Client) cachedLeader() string {
	c.leaderMu.Lock()
	defer c.leaderMu.Unlock()
	return c.leader
}

func (c *Client) storeLeader(addr string) {
	c.leaderMu.Lock()
	c.leader = addr
	c.leaderMu.Unlock()
}

// NewClient creates a client for the group reachable via seeds. Retry
// pacing uses the instance's clock, so clients inside a simulation
// back off on virtual time.
func NewClient(inst *margo.Instance, group string, seeds []string) *Client {
	c := &Client{inst: inst, clk: inst.Clock(), group: group, seeds: seeds}
	if len(seeds) > 0 {
		c.first = int(mercury.NameToID(inst.Addr())) % len(seeds)
	}
	return c
}

// remoteError is a member's refusal as it came over the wire, mapped
// back to the sentinel it was made from so callers can use errors.Is.
type remoteError struct {
	sentinel error
	msg      string
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// replyError rebuilds the error behind a failed applyReply. The wire
// carries err.Error(); every sentinel's text is a prefix of the errors
// wrapping it, which is what this matches.
func replyError(msg string) error {
	for _, s := range []error{ErrNotLeader, ErrNoLeader, ErrStopped, ErrTimeout, ErrBadConfig, ErrInProgress, ErrNoReader} {
		if strings.HasPrefix(msg, s.Error()) {
			return &remoteError{sentinel: s, msg: msg}
		}
	}
	return &remoteError{msg: "raft: " + msg}
}

// call sends one client RPC until a member accepts it, terminal says
// the refusal is final, or ctx expires. A round tries the cached leader
// first, then the seeds; a refusal that names a different leader
// redirects there at once (bounded, so mutually stale hints cannot
// hot-loop), anything else starts the next round, no sooner than
// retryInterval after this one began.
func (c *Client) call(ctx context.Context, rpc string, args codec.Message, terminal func(error) bool) ([]byte, error) {
	target := c.cachedLeader()
	var lastErr error
	fast := 0
	for round := 0; ; round++ {
		began := c.clk.Now()
		candidates := make([]string, 0, len(c.seeds)+1)
		if target != "" {
			candidates = append(candidates, target)
		}
		for i := range c.seeds {
			if addr := c.seeds[(c.first+round+i)%len(c.seeds)]; addr != target {
				candidates = append(candidates, addr)
			}
		}
		hinted := false
		for _, addr := range candidates {
			var reply applyReply
			if err := c.inst.Call(ctx, addr, rpc, mercury.AnyProvider, args, &reply); err != nil {
				lastErr = err
				continue
			}
			if reply.OK {
				c.storeLeader(addr)
				return reply.Result, nil
			}
			lastErr = replyError(reply.Err)
			if terminal(lastErr) {
				return nil, lastErr
			}
			if reply.LeaderHint != "" && reply.LeaderHint != addr {
				target = reply.LeaderHint
				c.storeLeader(target)
				hinted = true
				break // try the hinted leader next round
			}
		}
		if hinted && fast < 3 {
			fast++
			continue
		}
		fast = 0
		if !resilience.Sleep(ctx, c.clk, retryInterval-c.clk.Now().Sub(began)) {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last: %v)", ErrTimeout, lastErr)
			}
			return nil, ErrTimeout
		}
	}
}

// Apply submits a command, retrying until ctx expires.
func (c *Client) Apply(ctx context.Context, cmd []byte) ([]byte, error) {
	return c.call(ctx, rpcApply, &applyArgs{Group: c.group, Cmd: cmd},
		func(error) bool { return false })
}

// Read submits a read-only query over the ReadIndex path (no log
// entry, no fsync), retrying until ctx expires. The group's FSM must
// implement ReaderFSM.
func (c *Client) Read(ctx context.Context, query []byte) ([]byte, error) {
	return c.call(ctx, rpcRead, &readArgs{Group: c.group, Query: query},
		func(err error) bool { return errors.Is(err, ErrNoReader) }) // retrying cannot help
}

// AddServer asks the group to add a member.
func (c *Client) AddServer(ctx context.Context, addr string) error {
	return c.configChange(ctx, addr, false)
}

// RemoveServer asks the group to remove a member.
func (c *Client) RemoveServer(ctx context.Context, addr string) error {
	return c.configChange(ctx, addr, true)
}

// configChange retries across elections only: any refusal other than
// "not the leader" is the answer.
func (c *Client) configChange(ctx context.Context, addr string, remove bool) error {
	_, err := c.call(ctx, rpcConfigChange, &configChangeArgs{Group: c.group, Addr: addr, Remove: remove},
		func(err error) bool { return !errors.Is(err, ErrNotLeader) && !errors.Is(err, ErrNoLeader) })
	return err
}

// Status fetches the protocol status of the member at addr.
func (c *Client) Status(ctx context.Context, addr string) (Status, error) {
	var reply statusReply
	if err := c.inst.Call(ctx, addr, rpcStatus, mercury.AnyProvider, &statusArgs{Group: c.group}, &reply); err != nil {
		return Status{}, err
	}
	if !reply.OK {
		return Status{}, fmt.Errorf("raft: no group %q at %s", c.group, addr)
	}
	return Status{
		ID:          addr,
		Role:        Role(reply.Role),
		Term:        reply.Term,
		Leader:      reply.Leader,
		CommitIndex: reply.CommitIndex,
		LastApplied: reply.LastApplied,
		Peers:       reply.Peers,
	}, nil
}
