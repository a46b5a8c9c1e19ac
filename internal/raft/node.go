package raft

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mochi/internal/clock"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// Config tunes protocol timing.
type Config struct {
	// ElectionTimeoutMin/Max bound the randomized election timeout
	// (defaults 150ms/300ms).
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// HeartbeatInterval is the leader's idle append cadence (default
	// ElectionTimeoutMin/3).
	HeartbeatInterval time.Duration
	// SnapshotThreshold triggers automatic compaction after this many
	// applied entries since the last snapshot (0 disables).
	SnapshotThreshold uint64
	// MaxEntriesPerAppend caps entries per AppendEntries RPC
	// (default 64).
	MaxEntriesPerAppend int
}

// maxBatchEntries caps how many concurrent proposals coalesce into one
// leader group commit — one store.Append (one fsync on FileStore). It
// also caps the committed run the applier is handed per task.
const maxBatchEntries = 64

func (c Config) withDefaults() Config {
	if c.ElectionTimeoutMin <= 0 {
		c.ElectionTimeoutMin = 150 * time.Millisecond
	}
	if c.ElectionTimeoutMax <= c.ElectionTimeoutMin {
		c.ElectionTimeoutMax = 2 * c.ElectionTimeoutMin
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = c.ElectionTimeoutMin / 3
	}
	if c.MaxEntriesPerAppend <= 0 {
		c.MaxEntriesPerAppend = 64
	}
	return c
}

// Status is a snapshot of a node's protocol state.
type Status struct {
	ID          string
	Role        Role
	Term        uint64
	Leader      string
	CommitIndex uint64
	LastApplied uint64
	Peers       []string
}

// outcome is how a proposal ended: the FSM's result, or why there is
// none.
type outcome struct {
	result []byte
	err    error
}

// proposal is one command (or configuration change) on its way through
// the log. index and term say where the core appended it; they are
// written and read under Node.mu.
type proposal struct {
	cmd   []byte
	index uint64
	term  uint64
	done  chan outcome // buffered: whoever resolves it never blocks
}

// readBatch is the driver's side of one ReadIndex round: every Read
// that joined the round waits on done.
type readBatch struct {
	err  error
	done chan struct{}
}

// lanes are the two mailboxes of one peer: log traffic (votes,
// AppendEntries, InstallSnapshot) and ReadIndex probes. Each holds the
// latest message only — the core retransmits on its heartbeat, so a
// message that was never sent is replaced, not queued. Probes have
// their own lane so a read never waits behind an AppendEntries that is
// already on the wire.
type lanes struct {
	log, probe chan Message
}

// registry maps group names to members within one margo instance, so
// all groups share one set of RPC handlers. It exists exactly as long
// as the instance hosts a member: the first member installs the
// handlers, the last one to stop removes them and the registry with
// them, so a finalized instance is not kept reachable from here.
type registry struct {
	rpcs *margo.RPCSet

	mu    sync.Mutex // guards nodes
	nodes map[string]*Node
}

var (
	registriesMu sync.Mutex // serializes attach/detach, handler install included
	registries   = map[*margo.Instance]*registry{}
)

// attach enters n into its instance's registry, installing the RPC
// handlers first if n is the instance's only member. A failed install
// leaves nothing behind.
func attach(n *Node) error {
	registriesMu.Lock()
	defer registriesMu.Unlock()
	reg := registries[n.inst]
	if reg == nil {
		reg = &registry{nodes: map[string]*Node{}}
		var err error
		reg.rpcs, err = n.inst.RegisterSet(mercury.AnyProvider, nil,
			margo.RPC{Name: rpcRequestVote, Handler: margo.Serve(protocol(reg,
				func(a *requestVoteArgs) string { return a.Group }, (*Core).RequestVote))},
			margo.RPC{Name: rpcAppendEntries, Handler: margo.Serve(protocol(reg,
				func(a *appendEntriesArgs) string { return a.Group }, (*Core).AppendEntries))},
			margo.RPC{Name: rpcInstallSnapshot, Handler: margo.Serve(protocol(reg,
				func(a *installSnapshotArgs) string { return a.Group }, (*Core).InstallSnapshot))},
			margo.RPC{Name: rpcApply, Handler: margo.Serve(client(reg,
				func(a *applyArgs) string { return a.Group },
				func(ctx context.Context, n *Node, a *applyArgs) ([]byte, error) { return n.Apply(ctx, a.Cmd) }))},
			margo.RPC{Name: rpcRead, Handler: margo.Serve(client(reg,
				func(a *readArgs) string { return a.Group },
				func(ctx context.Context, n *Node, a *readArgs) ([]byte, error) { return n.Read(ctx, a.Query) }))},
			margo.RPC{Name: rpcConfigChange, Handler: margo.Serve(client(reg,
				func(a *configChangeArgs) string { return a.Group },
				func(ctx context.Context, n *Node, a *configChangeArgs) ([]byte, error) {
					return nil, n.changeConfig(ctx, a.Addr, a.Remove)
				}))},
			margo.RPC{Name: rpcStatus, Handler: margo.Serve(reg.handleStatus)},
		)
		if err != nil {
			return err
		}
		registries[n.inst] = reg
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.nodes[n.group]; dup {
		return fmt.Errorf("raft: group %q already exists on %s", n.group, n.id)
	}
	reg.nodes[n.group] = n
	return nil
}

// detach removes n from its registry and, if it was the last member on
// the instance, the handlers and the registry too.
func detach(n *Node) {
	registriesMu.Lock()
	defer registriesMu.Unlock()
	reg := registries[n.inst]
	if reg == nil {
		return
	}
	reg.mu.Lock()
	if reg.nodes[n.group] == n {
		delete(reg.nodes, n.group)
	}
	empty := len(reg.nodes) == 0
	reg.mu.Unlock()
	if empty {
		reg.rpcs.Close()
		delete(registries, n.inst)
	}
}

func (r *registry) lookup(group string) *Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes[group]
}

// Node is one member of a Raft group: the driver of one Core. It owns
// no protocol state. mu serializes every step of the core and guards
// the driver's tables; qmu guards only the queue of proposals waiting
// for mu. Four kinds of goroutine exist, all started here or when a
// peer is first addressed and all joined by Stop: the timer loop, the
// applier (the only caller of the FSM's Apply, ApplyBatch, Restore and
// Snapshot), and two senders per peer.
type Node struct {
	inst  *margo.Instance
	clk   clock.Clock
	group string
	id    string
	fsm   FSM
	cfg   Config
	met   *nodeMetrics

	mu      sync.Mutex
	core    *Core
	stopped bool
	waiters map[uint64]*proposal  // appended proposals by log index
	reads   map[uint64]*readBatch // ReadIndex rounds by id
	senders map[string]*lanes     // by peer address
	armed   time.Time             // the deadline the timer loop sleeps on

	// Group commit: proposals that arrive while a step holds mu — across
	// an fsync, typically — collect here and reach the core as one
	// Propose, hence one store.Append.
	qmu   sync.Mutex
	queue []*proposal

	applyWake chan struct{}   // buffered(1): the core has work for the applier
	rearm     chan struct{}   // buffered(1): the core's deadline moved earlier
	snapReq   chan chan error // TakeSnapshot requests, served by the applier

	ctx      context.Context // cancelled by Stop
	cancel   context.CancelFunc
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewNode creates and starts a Raft member. peers is the initial
// configuration (must be identical on every member and include this
// node's address). A store with existing state resumes from it.
func NewNode(inst *margo.Instance, group string, peers []string, store Store, fsm FSM, cfg Config) (*Node, error) {
	n := &Node{
		inst:      inst,
		clk:       inst.Clock(),
		group:     group,
		id:        inst.Addr(),
		fsm:       fsm,
		cfg:       cfg.withDefaults(),
		met:       newNodeMetrics(inst.Metrics(), group),
		waiters:   map[uint64]*proposal{},
		reads:     map[uint64]*readBatch{},
		senders:   map[string]*lanes{},
		applyWake: make(chan struct{}, 1),
		rearm:     make(chan struct{}, 1),
		snapReq:   make(chan chan error),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	rng := rand.New(rand.NewSource(int64(mercury.NameToID(n.id + "/" + group))))
	var err error
	if n.core, err = NewCore(group, n.id, peers, store, n.cfg, rng, n.clk.Now()); err == nil {
		// Bring the FSM up to the stored snapshot before anything can
		// race with it.
		err = n.applyPending()
	}
	if err == nil {
		err = attach(n)
	}
	if err != nil {
		n.cancel()
		return nil, err
	}
	n.wg.Add(2)
	go n.timerLoop()
	go n.applier()
	return n, nil
}

// ID returns this node's address.
func (n *Node) ID() string { return n.id }

// Group returns the group name.
func (n *Node) Group() string { return n.group }

// Status returns a snapshot of protocol state.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.Status()
}

// Leader returns the current leader hint ("" if unknown).
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.Leader()
}

// IsLeader reports whether this node currently leads.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.IsLeader()
}

// Stop halts the node and waits for its goroutines. The store is not
// closed.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		n.mu.Lock()
		n.stopped = true
		for idx, p := range n.waiters {
			p.done <- outcome{err: ErrStopped}
			delete(n.waiters, idx)
		}
		for id, b := range n.reads {
			b.err = ErrStopped
			close(b.done)
			delete(n.reads, id)
		}
		n.mu.Unlock()
		n.cancel()
	})
	n.wg.Wait()
	detach(n)
}

// --- stepping the core ---

// step runs one core input under mu and carries out its effects. A
// stopped node runs nothing, which is why callers that report a result
// preset it to ErrStopped.
func (n *Node) step(f func(c *Core, now time.Time)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.stopped {
		f(n.core, n.clk.Now())
		n.dispatch()
	}
}

// dispatch carries out what the last step asked for. Caller holds mu.
func (n *Node) dispatch() {
	eff := n.core.Take()
	for _, m := range eff.Msgs {
		n.post(m)
	}
	for _, a := range eff.Accepted {
		for i, tag := range a.Tags {
			p := tag.(*proposal)
			p.index, p.term = a.First+uint64(i), a.Term
			n.waiters[p.index] = p
		}
		n.met.batchEntries.Observe(float64(len(a.Tags)))
	}
	for _, r := range eff.Rejected {
		r.Tag.(*proposal).done <- outcome{err: r.Err}
	}
	for _, r := range eff.Reads {
		n.met.readRounds.Inc()
		n.met.readBatch.Observe(float64(r.Reads))
		if b := n.reads[r.ID]; b != nil {
			b.err = r.Err
			close(b.done)
			delete(n.reads, r.ID)
		}
	}
	if eff.StoreErrors > 0 {
		n.met.appendErrors.Add(float64(eff.StoreErrors))
	}
	if eff.Apply {
		signal(n.applyWake)
	}
	if n.core.Deadline().Before(n.armed) {
		signal(n.rearm)
	}
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// timerLoop sleeps until the core's deadline and ticks it. A deadline
// that moves later (every heartbeat pushes a follower's election
// timeout out) costs nothing: the loop wakes at the old one, finds
// nothing due and re-arms.
func (n *Node) timerLoop() {
	defer n.wg.Done()
	t := n.clk.NewTimer(time.Hour)
	defer t.Stop()
	for {
		n.mu.Lock()
		now := n.clk.Now()
		if !n.core.Deadline().After(now) {
			n.core.Tick(now)
			n.dispatch()
		}
		n.armed = n.core.Deadline()
		n.mu.Unlock()
		t.Reset(n.armed.Sub(now))
		select {
		case <-t.C():
		case <-n.rearm:
		case <-n.ctx.Done():
			return
		}
	}
}

// --- senders ---

// post hands m to its peer's lane, starting the peer's senders on
// first use. Caller holds mu, which makes it the only producer.
func (n *Node) post(m Message) {
	if n.stopped {
		return
	}
	l := n.senders[m.To]
	if l == nil {
		l = &lanes{log: make(chan Message, 1), probe: make(chan Message, 1)}
		n.senders[m.To] = l
		n.wg.Add(2)
		go n.sender(l.log)
		go n.sender(l.probe)
	}
	box := l.log
	if m.Round != 0 {
		box = l.probe
	}
	select {
	case box <- m:
	default:
		select {
		case <-box: // never sent: superseded
		default:
		}
		box <- m
	}
}

func (n *Node) sender(box <-chan Message) {
	defer n.wg.Done()
	for {
		select {
		case <-n.ctx.Done():
			return
		case m := <-box:
			n.send(m)
		}
	}
}

// send performs one RPC and steps the core with the reply. A failed
// RPC is not reported: the core retransmits on its own timers.
func (n *Node) send(m Message) {
	rpc, timeout := rpcAppendEntries, 2*n.cfg.HeartbeatInterval
	var args codec.Marshaler = m.Append
	switch {
	case m.Vote != nil:
		rpc, timeout, args = rpcRequestVote, n.cfg.ElectionTimeoutMin, m.Vote
	case m.Snapshot != nil:
		rpc, timeout, args = rpcInstallSnapshot, 4*n.cfg.HeartbeatInterval, m.Snapshot
	case m.Round != 0:
		timeout = n.cfg.ElectionTimeoutMin
	}
	ctx, cancel := context.WithTimeout(n.ctx, timeout)
	defer cancel()
	if m.Vote != nil {
		var r requestVoteReply
		if n.inst.Call(ctx, m.To, rpc, mercury.AnyProvider, args, &r) == nil {
			n.step(func(c *Core, now time.Time) { c.VoteReply(now, m, &r) })
		}
		return
	}
	var r appendEntriesReply
	if n.inst.Call(ctx, m.To, rpc, mercury.AnyProvider, args, &r) == nil {
		n.step(func(c *Core, now time.Time) { c.AppendReply(now, m, &r) })
	}
}

// --- applier ---

func (n *Node) applier() {
	defer n.wg.Done()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-n.applyWake:
			_ = n.applyPending() // a failed restore is retried on the next wakeup
		case req := <-n.snapReq:
			req <- n.snapshot()
		}
	}
}

// applyPending runs the core's apply tasks until none is left: one
// lock acquisition fetches a task, the FSM runs it outside the lock,
// and one re-acquisition reports it applied and resolves every waiter.
// Only the applier goroutine calls it (and NewNode, before that
// exists).
func (n *Node) applyPending() error {
	for {
		n.mu.Lock()
		task, ok := n.core.NextApply()
		n.mu.Unlock()
		if !ok {
			return nil
		}
		var results [][]byte
		if !task.Restore {
			results = n.applyRun(task.Entries)
			n.met.applyEntries.Observe(float64(len(task.Entries)))
		} else if err := n.fsm.Restore(task.Snapshot); err != nil {
			return err
		}
		n.mu.Lock()
		n.core.Applied(n.clk.Now(), task.Index)
		for i, e := range task.Entries {
			if p := n.waiters[e.Index]; p != nil {
				delete(n.waiters, e.Index)
				if e.Term != p.term {
					p.done <- outcome{err: ErrNotLeader} // overwritten by a newer leader
				} else {
					p.done <- outcome{result: results[i]}
				}
			}
		}
		due := n.core.SnapshotDue()
		n.dispatch()
		n.mu.Unlock()
		if due {
			_ = n.snapshot()
		}
	}
}

// applyRun feeds the commands of one committed run to the FSM — in one
// call when it implements BatchFSM — and returns the results by entry
// position (nil for no-op and configuration entries).
func (n *Node) applyRun(entries []LogEntry) [][]byte {
	results := make([][]byte, len(entries))
	cmds := make([]Command, 0, len(entries))
	pos := make([]int, 0, len(entries))
	for i, e := range entries {
		if e.Type == EntryCommand {
			cmds = append(cmds, Command{Index: e.Index, Data: e.Data})
			pos = append(pos, i)
		}
	}
	if bf, ok := n.fsm.(BatchFSM); ok && len(cmds) > 0 {
		for i, r := range bf.ApplyBatch(cmds) {
			if i < len(pos) {
				results[pos[i]] = r
			}
		}
		return results
	}
	for i, c := range cmds {
		results[pos[i]] = n.fsm.Apply(c.Index, c.Data)
	}
	return results
}

// snapshot compacts the log through the last applied entry. It runs on
// the applier, so the FSM is exactly at that entry while it is
// captured.
func (n *Node) snapshot() error {
	n.mu.Lock()
	ok := n.core.Compactable()
	n.mu.Unlock()
	if !ok {
		return nil
	}
	data, err := n.fsm.Snapshot()
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.Compact(data)
}

// TakeSnapshot compacts the log through the last applied entry.
func (n *Node) TakeSnapshot() error {
	req := make(chan error, 1)
	select {
	case n.snapReq <- req:
		return <-req
	case <-n.ctx.Done():
		return ErrStopped
	}
}

// --- client operations ---

// Apply submits a command locally; the caller must be talking to the
// leader (use Client.Apply for automatic forwarding).
//
// Concurrent Apply calls coalesce: whoever finds the queue empty takes
// mu — waiting out any step in progress, fsync included — and hands
// everything queued by then to the core as one batch.
func (n *Node) Apply(ctx context.Context, cmd []byte) ([]byte, error) {
	if n.ctx.Err() != nil {
		return nil, ErrStopped // and do not grow a queue nobody will take
	}
	start := time.Now()
	p := &proposal{cmd: cmd, done: make(chan outcome, 1)}
	n.qmu.Lock()
	n.queue = append(n.queue, p)
	first := len(n.queue) == 1
	n.qmu.Unlock()
	if first {
		n.proposeQueued()
	}
	result, err := n.await(ctx, p)
	if err == nil {
		n.met.commitLatency.Observe(time.Since(start).Seconds())
	}
	return result, err
}

func (n *Node) proposeQueued() {
	n.step(func(c *Core, now time.Time) {
		n.qmu.Lock()
		batch := n.queue
		n.queue = nil
		n.qmu.Unlock()
		ps := make([]Proposal, len(batch))
		for i, p := range batch {
			ps[i] = Proposal{Data: p.cmd, Tag: p}
		}
		c.Propose(now, ps)
	})
}

// await blocks until p is applied, rejected or abandoned.
func (n *Node) await(ctx context.Context, p *proposal) ([]byte, error) {
	select {
	case o := <-p.done:
		return o.result, o.err
	case <-ctx.Done():
		n.mu.Lock()
		if n.waiters[p.index] == p {
			delete(n.waiters, p.index)
		}
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	case <-n.ctx.Done():
		return nil, ErrStopped
	}
}

// Read answers a read-only query linearizably without writing a log
// entry (the ReadIndex protocol, see Core.Read): join the forming
// confirmation round, wait until it has a quorum and its read index has
// been applied, then query the FSM. The caller must be talking to the
// leader (use Client.Read for automatic forwarding). The FSM must
// implement ReaderFSM.
func (n *Node) Read(ctx context.Context, query []byte) ([]byte, error) {
	rf, ok := n.fsm.(ReaderFSM)
	if !ok {
		return nil, ErrNoReader
	}
	var b *readBatch
	err := error(ErrStopped)
	n.step(func(c *Core, now time.Time) {
		var id uint64
		if id, err = c.Read(now); err != nil {
			return
		}
		if b = n.reads[id]; b == nil {
			b = &readBatch{done: make(chan struct{})}
			n.reads[id] = b
		}
	})
	if err != nil {
		return nil, err
	}
	select {
	case <-b.done:
		if b.err != nil {
			return nil, b.err
		}
		return rf.Read(query), nil
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	case <-n.ctx.Done():
		return nil, ErrStopped
	}
}

// AddServer adds a member via a single-server configuration change.
func (n *Node) AddServer(ctx context.Context, addr string) error {
	return n.changeConfig(ctx, addr, false)
}

// RemoveServer removes a member.
func (n *Node) RemoveServer(ctx context.Context, addr string) error {
	return n.changeConfig(ctx, addr, true)
}

func (n *Node) changeConfig(ctx context.Context, addr string, remove bool) error {
	p := &proposal{done: make(chan outcome, 1)}
	err := error(ErrStopped)
	n.step(func(c *Core, now time.Time) {
		if p.index, p.term, err = c.ChangeConfig(now, addr, remove); err == nil {
			n.waiters[p.index] = p
		}
	})
	if err == nil {
		_, err = n.await(ctx, p)
	}
	return err
}

// --- RPC handlers ---

// protocol serves one member-to-member RPC by stepping the core of the
// group it names. The core returns an error instead of a reply when it
// could not persist what the reply would say; the caller then gets no
// reply.
func protocol[A any, R codec.Marshaler](r *registry, group func(*A) string, input func(*Core, time.Time, *A) (R, error)) func(context.Context, *mercury.Handle, *A) (codec.Marshaler, error) {
	return func(_ context.Context, _ *mercury.Handle, args *A) (codec.Marshaler, error) {
		n := r.lookup(group(args))
		if n == nil {
			return nil, fmt.Errorf("raft: unknown group %q", group(args))
		}
		var reply R
		err := error(ErrStopped)
		n.step(func(c *Core, now time.Time) { reply, err = input(c, now, args) })
		if err != nil {
			return nil, err
		}
		return reply, nil
	}
}

// client serves one client RPC: it runs op on the member and answers
// with an applyReply carrying the result, or the error and a leader
// hint.
func client[A any](r *registry, group func(*A) string, op func(context.Context, *Node, *A) ([]byte, error)) func(context.Context, *mercury.Handle, *A) (codec.Marshaler, error) {
	return func(_ context.Context, _ *mercury.Handle, args *A) (codec.Marshaler, error) {
		n := r.lookup(group(args))
		if n == nil {
			return &applyReply{Err: "unknown group"}, nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*n.cfg.ElectionTimeoutMax)
		defer cancel()
		result, err := op(ctx, n, args)
		reply := &applyReply{OK: err == nil, Result: result}
		if err != nil {
			reply.Err = err.Error()
			reply.LeaderHint = n.Leader()
		}
		return reply, nil
	}
}

func (r *registry) handleStatus(_ context.Context, _ *mercury.Handle, args *statusArgs) (codec.Marshaler, error) {
	n := r.lookup(args.Group)
	if n == nil {
		return &statusReply{}, nil
	}
	st := n.Status()
	return &statusReply{
		OK:          true,
		Role:        uint8(st.Role),
		Term:        st.Term,
		Leader:      st.Leader,
		CommitIndex: st.CommitIndex,
		LastApplied: st.LastApplied,
		Peers:       st.Peers,
	}, nil
}
