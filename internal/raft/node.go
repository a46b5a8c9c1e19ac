package raft

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mochi/internal/clock"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/trace"
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

// maxBatchEntries caps the committed run the applier is handed per
// task.
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

// outcome is how a proposal or a read ended: the result, or why there
// is none.
type outcome struct {
	result []byte
	err    error
}

// waiter is one proposal, configuration change, read or snapshot on its
// way through the group, and the tag the core knows it by: the node
// keeps it nowhere. When the core hands it back — beside its entry, with
// its round, in a Done — resolve is called, once, with the lock released. The
// blocking API's resolve writes to a channel; an RPC's answers its kept
// handle, unless the answer is "no leader" and the request can still be
// held.
type waiter struct {
	resolve func(outcome)
	// start hands the operation to the core, again when the core releases
	// it after it was held for want of a leader (Core.Hold), which happens
	// to a request once.
	start operation
	held  bool
	// deadline bounds a waiter nobody is blocked on (a caller of the
	// blocking API has its ctx instead): the core times it out.
	deadline time.Time
	arrived  time.Time // proposals only: feeds the commit-latency histogram
	span     span      // zero but for an RPC in a trace
}

// operation is one of propose, read and changeConfig: it hands w's
// request to the core, which answers it through w, the tag. An error is
// final instead: the core was not asked.
type operation func(n *Node, c *Core, now time.Time, w *waiter) error

// span is what an RPC-borne Apply or Read records about itself: a child
// of margo's server span — which the kept handle carries to the reply —
// per phase, from arrival to the end of the phase. A phase that does
// not end before the reply is not recorded.
type span struct {
	sc      trace.SpanContext // the server span's
	arrived time.Time
	index   uint64            // where the core appended it; 0: nowhere
	ended   [len(phases)]bool // by phase
}

// The phases of a request, each recorded as a child span from arrival
// to: the leader's own disk has the entry, a quorum has it, the read's
// round is confirmed (a read served under the lease had none). They
// overlap, which is the point.
const (
	phasePersist = iota
	phaseReplicate
	phaseRound
)

var phases = [...]string{"persist", "replicate", "round"}

// reply is what a step leaves for after the driver's lock, in order: an
// answer to kept log traffic (ack.Tag set), Stop's handover (send), a
// held request to start again (again), or w's resolution with o.
type reply struct {
	ack   Ack
	send  *Message
	w     *waiter
	o     outcome
	again bool
}

// handlers serve every member an instance hosts: a request names its
// group and lookup finds the member, nil when the instance has none by
// that name.
type handlers struct {
	lookup func(group string) *Node
}

// members registers this process's nodes, per margo instance and group
// name; an instance's handlers live as long as it hosts a member.
var members = margo.NewGroups(func(inst *margo.Instance, lookup func(string) *Node) (*margo.RPCSet, error) {
	r := &handlers{lookup}
	return inst.RegisterSet(mercury.AnyProvider, nil,
		margo.RPC{Name: rpcRequestVote, Handler: margo.Serve(r.handleVote)},
		margo.RPC{Name: rpcTimeoutNow, Handler: margo.Serve(r.handleTimeoutNow)},
		margo.RPC{Name: rpcAppendEntries, Handler: margo.Serve(logTraffic(r,
			func(a *appendEntriesArgs) string { return a.Group }, (*Core).AppendEntries))},
		margo.RPC{Name: rpcInstallSnapshot, Handler: margo.Serve(logTraffic(r,
			func(a *installSnapshotArgs) string { return a.Group }, (*Core).InstallSnapshot))},
		margo.RPC{Name: rpcApply, Handler: margo.Serve(r.handleApply)},
		margo.RPC{Name: rpcRead, Handler: margo.Serve(r.handleRead)},
		margo.RPC{Name: rpcConfigChange, Handler: margo.Serve(r.handleConfigChange)},
		margo.RPC{Name: rpcStatus, Handler: margo.Serve(r.handleStatus)},
	)
})

// Node is one member of a Raft group: one Core on a margo.Driver. It
// owns no protocol state and no table of requests: a request goes into
// the core as a tag — its *waiter, or the *mercury.Handle of log traffic
// — and is answered when the core hands the tag back. The driver's lock
// serializes every step of the core and is never held across a wait: not
// for the disk (the writer goroutine carries out the core's Persists
// with it released), not for a peer, not for the FSM. Besides the
// driver's timer loop and its two lanes per peer, the node runs the
// writer (the only caller of the store's Append, TruncateFrom and
// SaveSnapshot) and the applier (the only caller of the FSM's Apply,
// ApplyBatch, Restore and Snapshot); Stop joins them all.
type Node struct {
	inst  *margo.Instance
	clk   clock.Clock
	group string
	id    string
	fsm   FSM
	store Store
	cfg   Config
	met   *nodeMetrics
	drv   *margo.Driver[reply]

	// Guarded by the driver's lock.
	core    *Core
	seen    Transition                         // the core's last, for the election metrics
	since   time.Time                          // when the member last lost sight of a leader
	traced  []*waiter                          // the proposals in the core that carry a span, for mark
	queue   []Persist                          // for the writer, in Seq order
	run     []LogEntry                         // the writer's own: a run of Persists as one write
	senders map[string][2]*margo.Lane[Message] // by peer address: log traffic, probes

	applyWake chan struct{}   // buffered(1): the core has work for the applier
	writeWake chan struct{}   // buffered(1): the queue has work for the writer
	snapReq   chan chan error // TakeSnapshot requests, served by the applier
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
		store:     store,
		cfg:       cfg.withDefaults(),
		met:       newNodeMetrics(inst.Metrics(), group),
		senders:   map[string][2]*margo.Lane[Message]{},
		applyWake: make(chan struct{}, 1),
		writeWake: make(chan struct{}, 1),
		snapReq:   make(chan chan error),
	}
	rng := rand.New(rand.NewSource(int64(mercury.NameToID(n.id + "/" + group))))
	n.since = n.clk.Now()
	core, err := NewCore(group, n.id, peers, store, n.cfg, rng, n.since)
	if err != nil {
		return nil, err
	}
	n.core, n.seen = core, Transition{Term: core.Status().Term}
	n.drv = margo.NewDriver(n.clk, core, n.dispatch, n.finish)
	// Bring the FSM up to the stored snapshot before anything can race
	// with it.
	if err = n.applyPending(); err == nil {
		err = members.Attach(inst, group, n)
	}
	if err != nil {
		n.drv.Stop(func(time.Time) {})
		return nil, err
	}
	n.drv.Go(n.writer)
	n.drv.Go(n.applier)
	n.drv.Start()
	return n, nil
}

// ID returns this node's address.
func (n *Node) ID() string { return n.id }

// Group returns the group name.
func (n *Node) Group() string { return n.group }

// Status returns a snapshot of protocol state.
func (n *Node) Status() Status {
	n.drv.Lock()
	defer n.drv.Unlock()
	return n.core.Status()
}

// Leader returns the current leader hint ("" if unknown).
func (n *Node) Leader() string {
	n.drv.Lock()
	defer n.drv.Unlock()
	return n.core.Leader()
}

// IsLeader reports whether this node currently leads.
func (n *Node) IsLeader() bool {
	n.drv.Lock()
	defer n.drv.Unlock()
	return n.core.IsLeader()
}

// Stop halts the node and waits for its goroutines: everything the core
// still holds — blocked callers and kept handles alike — is answered
// ErrStopped, and what the writer has not written stays unwritten, as
// after a crash. A leader first names its successor (Core.Transfer), an
// RPC nobody waits on for longer than a heartbeat interval. The store is
// not closed.
func (n *Node) Stop() {
	n.drv.Stop(func(time.Time) {
		n.core.Transfer()
		for _, m := range n.core.Take().Msgs {
			n.drv.Reply(reply{send: &m})
		}
		n.core.Surrender(ErrStopped)
		n.queue = nil
	})
	members.Detach(n.inst, n.group, n)
}

// --- stepping the core ---

// dispatch carries out what the last step asked for, leaving what must
// not happen under the driver's lock to its replies. Caller holds it.
func (n *Node) dispatch() {
	eff := n.core.Take()
	for _, m := range eff.Msgs {
		n.post(m)
	}
	if len(eff.Persist) > 0 {
		n.queue = append(n.queue, eff.Persist...)
		margo.Signal(n.writeWake)
	}
	for _, a := range eff.Acks {
		n.drv.Reply(reply{ack: a})
	}
	for _, r := range eff.Reads {
		if r.Round != 0 {
			n.met.readRounds.Inc()
			n.met.readBatch.Observe(float64(len(r.Tags)))
		} else if r.Err == nil {
			n.met.leaseReads.Add(float64(len(r.Tags)))
		}
		for _, tag := range r.Tags {
			w := tag.(*waiter)
			if r.Round != 0 && w.span.sc.Valid() {
				w.span.end(n.inst.Tracer(), phaseRound, n.clk.Now())
			}
			n.drv.Reply(reply{w: w, o: outcome{err: r.Err}})
		}
	}
	for _, d := range eff.Done {
		n.answer(d.Tag, outcome{err: d.Err})
	}
	if eff.StoreErrors > 0 {
		n.met.appendErrors.Add(float64(eff.StoreErrors))
	}
	for _, t := range eff.Transitions {
		n.observe(t)
	}
	for _, tag := range eff.Released {
		n.drv.Reply(reply{w: tag.(*waiter), again: true})
	}
	if eff.Apply {
		if len(n.traced) > 0 {
			n.mark(phaseReplicate, n.core.Status().CommitIndex, n.clk.Now())
		}
		margo.Signal(n.applyWake)
	}
}

// observe feeds one transition to the election metrics: how a candidacy
// ended, and how long the member went without a leader to name. Caller
// holds the driver's lock.
func (n *Node) observe(t Transition) {
	if n.seen.Role == Candidate {
		outcome := [...]string{Follower: "lost", Candidate: "no_winner", Leader: "won"}[t.Role]
		n.met.elections.With(n.group, outcome).Inc()
	}
	switch now := n.clk.Now(); {
	case n.seen.Leader != "" && t.Leader == "":
		n.since = now
	case n.seen.Leader == "" && t.Leader != "":
		n.met.leaderless.Observe(now.Sub(n.since).Seconds())
	}
	n.seen = t
}

// track puts w on the list mark walks, if it is a traced request the
// core appended at index; answer takes it off as it queues o, the
// outcome of the request the core has handed back as tag. Caller holds
// the driver's lock.
func (n *Node) track(w *waiter, index uint64) {
	if w.span.sc.Valid() && index != 0 {
		w.span.index = index
		n.traced = append(n.traced, w)
	}
}

func (n *Node) answer(tag interface{}, o outcome) {
	w := tag.(*waiter)
	for i := range n.traced {
		if n.traced[i] == w {
			n.traced = append(n.traced[:i], n.traced[i+1:]...)
			break
		}
	}
	n.drv.Reply(reply{w: w, o: o})
}

// mark ends the phase now for every traced proposal at or below index.
// Caller holds the driver's lock.
func (n *Node) mark(phase int, index uint64, now time.Time) {
	for _, w := range n.traced {
		if w.span.index <= index {
			w.span.end(n.inst.Tracer(), phase, now)
		}
	}
}

// end records the phase, arrival to now, the first time it ends.
func (s *span) end(tr *trace.Tracer, phase int, now time.Time) {
	if !s.ended[phase] {
		s.ended[phase] = true
		sp := tr.Start(s.sc, phases[phase], trace.KindPhase, s.arrived)
		sp.End(now, false)
	}
}

// finish carries out one reply with the driver's lock released: every
// kept handle is answered and every waiter resolved here, exactly once.
func (n *Node) finish(r reply) {
	switch {
	case r.send != nil:
		n.send(*r.send)
	case r.ack.Tag != nil:
		if h := r.ack.Tag.(*mercury.Handle); r.ack.Err != nil {
			_ = h.RespondError(r.ack.Err)
		} else {
			margo.Reply(h, r.ack.Reply)
		}
	case r.again:
		n.begin(r.w)
	default:
		if r.o.err == nil && !r.w.arrived.IsZero() {
			n.met.commitLatency.Observe(n.clk.Now().Sub(r.w.arrived).Seconds())
		}
		r.w.resolve(r.o)
	}
}

// --- senders ---

// post hands m to its peer's lane — log traffic or probes — starting the
// peer's lanes on first use. Each lane holds the latest message only: the
// core retransmits on its heartbeat, so a message that was never sent is
// replaced, not queued, and a read never waits behind an AppendEntries
// already on the wire. Caller holds the driver's lock.
func (n *Node) post(m Message) {
	l, ok := n.senders[m.To]
	if !ok {
		l = [2]*margo.Lane[Message]{margo.NewLane(n.drv, 1, n.send), margo.NewLane(n.drv, 1, n.send)}
		n.senders[m.To] = l
	}
	if m.Round != 0 {
		l[1].Post(m)
	} else {
		l[0].Post(m)
	}
}

// send performs one RPC and steps the core with the reply. A failed
// RPC is not reported: the core retransmits on its own timers.
func (n *Node) send(m Message) {
	rpc, timeout := rpcAppendEntries, 2*n.cfg.HeartbeatInterval
	var args codec.Message = m.Append
	switch {
	case m.Vote != nil:
		rpc, timeout, args = rpcRequestVote, n.cfg.ElectionTimeoutMin, m.Vote
	case m.TimeoutNow != nil:
		rpc, timeout, args = rpcTimeoutNow, n.cfg.HeartbeatInterval, m.TimeoutNow
	case m.Snapshot != nil:
		rpc, timeout, args = rpcInstallSnapshot, 4*n.cfg.HeartbeatInterval, m.Snapshot
	case m.Round != 0:
		timeout = n.cfg.ElectionTimeoutMin
	}
	ctx, cancel := context.WithTimeout(n.drv.Context(), timeout)
	defer cancel()
	if m.TimeoutNow != nil {
		_ = n.inst.Call(ctx, m.To, rpc, mercury.AnyProvider, args, nil) // the successor's election is the answer
		return
	}
	if m.Vote != nil {
		var r requestVoteReply
		if n.inst.Call(ctx, m.To, rpc, mercury.AnyProvider, args, &r) == nil {
			n.drv.Step(func(now time.Time) { n.core.VoteReply(now, m, &r) })
		}
		return
	}
	var r appendEntriesReply
	if n.inst.Call(ctx, m.To, rpc, mercury.AnyProvider, args, &r) == nil {
		n.drv.Step(func(now time.Time) { n.core.AppendReply(now, m, &r) })
	}
}

// --- writer ---

// writer carries out the core's Persists, in order, with the lock released,
// and reports each batch back as one Persisted step. It takes
// everything queued at once: what arrived during the previous write —
// the proposals of every client that was not waiting on it — becomes
// one store write, one fsync. That is the whole of group commit.
func (n *Node) writer(done <-chan struct{}) {
	var ops, spare []Persist
	for {
		n.drv.Lock()
		ops, n.queue = n.queue, spare[:0]
		leading := n.core.IsLeader()
		n.drv.Unlock()
		if len(ops) == 0 {
			spare = ops
			select {
			case <-n.writeWake:
				continue
			case <-done:
				return
			}
		}
		seq, through, err := n.write(ops, leading)
		n.drv.Step(func(now time.Time) {
			n.core.Persisted(now, seq, err)
			if err != nil {
				n.queue = n.queue[:0] // void, the core has said
			} else if len(n.traced) > 0 {
				n.mark(phasePersist, through, now)
			}
		})
		clear(ops)
		spare = ops
	}
}

// write carries out ops on the store — nothing else calls its Append,
// TruncateFrom or SaveSnapshot. A run of Persists each continuing the
// log where the one before ends is one store write. It returns the last
// Seq written and the last index appended, or the Seq that failed.
func (n *Node) write(ops []Persist, leading bool) (seq, through uint64, err error) {
	defer func() { clear(n.run) }()
	for i := 0; i < len(ops); {
		p, j := ops[i], i+1
		if p.Snapshot == nil {
			for ; j < len(ops) && ops[j].Snapshot == nil && ops[j].Entries[0].Index == p.Entries[len(p.Entries)-1].Index+1; j++ {
				if j == i+1 {
					n.run = append(n.run[:0], p.Entries...)
				}
				n.run = append(n.run, ops[j].Entries...)
				p.Entries = n.run
			}
		}
		if err := p.writeTo(n.store); err != nil {
			return ops[i].Seq, through, err
		}
		if p.Snapshot == nil {
			through = p.Entries[len(p.Entries)-1].Index
			if leading {
				n.met.batchEntries.Observe(float64(len(p.Entries)))
			}
		}
		seq, i = ops[j-1].Seq, j
	}
	return seq, through, nil
}

// --- applier ---

func (n *Node) applier(done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-n.applyWake:
			_ = n.applyPending() // a failed restore is retried on the next wakeup
		case req := <-n.snapReq:
			req <- n.snapshot()
		}
	}
}

// applyPending runs the core's apply tasks until none is left: one step
// fetches a task (and answers whom the core found overwritten on the
// way), the FSM runs it outside the lock, and one more reports it
// applied and answers the tags that came with it — itself, if the node
// stopped meanwhile. Only the applier goroutine calls it (and NewNode,
// before that exists).
func (n *Node) applyPending() error {
	for {
		var task ApplyTask
		ok := false
		n.drv.Step(func(time.Time) { task, ok = n.core.NextApply() })
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
		due := false
		if !n.drv.Step(func(time.Time) {
			n.core.Applied(task.Index)
			for i, tag := range task.Tags {
				if tag != nil {
					n.answer(tag, outcome{result: results[i]})
				}
			}
			due = n.core.SnapshotDue()
		}) {
			for i, tag := range task.Tags {
				if tag != nil {
					n.finish(reply{w: tag.(*waiter), o: outcome{result: results[i]}})
				}
			}
			return nil
		}
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

// snapshot compacts the log through the last applied entry and returns
// once the store has the snapshot. It runs on the applier, so the FSM
// is exactly at that entry while it is captured.
func (n *Node) snapshot() error {
	n.drv.Lock()
	ok := n.core.Compactable()
	n.drv.Unlock()
	if !ok {
		return nil
	}
	data, err := n.fsm.Snapshot()
	if err != nil {
		return err
	}
	_, err = n.block(context.Background(), func(_ *Node, c *Core, _ time.Time, w *waiter) error {
		c.Compact(data, w)
		return nil
	})
	return err
}

// TakeSnapshot compacts the log through the last applied entry.
func (n *Node) TakeSnapshot() error {
	req := make(chan error, 1)
	select {
	case n.snapReq <- req:
		return <-req
	case <-n.drv.Context().Done():
		return ErrStopped
	}
}

// --- client operations ---

func propose(cmd []byte) operation {
	return func(n *Node, c *Core, now time.Time, w *waiter) error {
		w.arrived = now
		n.track(w, c.Propose(now, cmd, w, w.deadline))
		return nil
	}
}

// read hands w to Core.Read.
func read(n *Node, c *Core, now time.Time, w *waiter) error {
	if _, ok := n.fsm.(ReaderFSM); !ok {
		return ErrNoReader
	}
	c.Read(now, w, w.deadline)
	return nil
}

func changeConfig(addr string, remove bool) operation {
	return func(n *Node, c *Core, now time.Time, w *waiter) error {
		n.track(w, c.ChangeConfig(now, addr, remove, w, w.deadline))
		return nil
	}
}

// begin steps the core with w's start. A stopped node, or a start that
// did not ask the core, is w's answer.
func (n *Node) begin(w *waiter) {
	err := error(ErrStopped)
	n.drv.Step(func(now time.Time) { err = w.start(n, n.core, now, w) })
	if err != nil {
		w.resolve(outcome{err: err})
	}
}

// block begins start with a waiter that resolves into a channel and
// waits there: the blocking API over the tags the RPCs use.
func (n *Node) block(ctx context.Context, start operation) ([]byte, error) {
	done := make(chan outcome, 1)
	n.begin(&waiter{start: start, resolve: func(o outcome) { done <- o }})
	select {
	case o := <-done:
		return o.result, o.err
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	case <-n.drv.Context().Done():
		return nil, ErrStopped
	}
}

// Apply submits a command locally; the caller must be talking to the
// leader (use Client.Apply for automatic forwarding).
func (n *Node) Apply(ctx context.Context, cmd []byte) ([]byte, error) {
	return n.block(ctx, propose(cmd))
}

// Read answers a read-only query linearizably without writing a log
// entry (see Core.Read): under the leader's lease at once, else after the
// next ReadIndex round has its quorum; in both cases once the read index
// has been applied, query the FSM. The caller must be talking to the
// leader (use Client.Read for automatic forwarding). The FSM must
// implement ReaderFSM.
func (n *Node) Read(ctx context.Context, query []byte) ([]byte, error) {
	if _, err := n.block(ctx, read); err != nil {
		return nil, err
	}
	return n.fsm.(ReaderFSM).Read(query), nil
}

// AddServer adds a member via a single-server configuration change.
func (n *Node) AddServer(ctx context.Context, addr string) error {
	_, err := n.block(ctx, changeConfig(addr, false))
	return err
}

// RemoveServer removes a member.
func (n *Node) RemoveServer(ctx context.Context, addr string) error {
	_, err := n.block(ctx, changeConfig(addr, true))
	return err
}

// --- RPC handlers ---

func (r *handlers) handleTimeoutNow(_ context.Context, _ *mercury.Handle, a *timeoutNowArgs) (codec.Message, error) {
	n := r.lookup(a.Group)
	if n == nil {
		return nil, fmt.Errorf("raft: unknown group %q", a.Group)
	}
	var reply *timeoutNowReply
	if !n.drv.Step(func(now time.Time) { reply = n.core.TimeoutNow(now, a) }) {
		return nil, ErrStopped
	}
	return reply, nil
}

func (r *handlers) handleVote(_ context.Context, _ *mercury.Handle, a *requestVoteArgs) (codec.Message, error) {
	n := r.lookup(a.Group)
	if n == nil {
		return nil, fmt.Errorf("raft: unknown group %q", a.Group)
	}
	var reply *requestVoteReply
	err := error(ErrStopped)
	n.drv.Step(func(now time.Time) { reply, err = n.core.RequestVote(now, a) })
	if err != nil {
		// The core could not persist what the reply would say: the
		// candidate gets no reply.
		return nil, err
	}
	return reply, nil
}

// logTraffic serves AppendEntries and InstallSnapshot: the request is
// an input of the core, its answer an effect. The handler steps the core
// with the handle as the tag and returns with the handle kept; finish
// answers it when the core emits the tag's Ack — in that same step
// unless the answer has to wait for the disk.
func logTraffic[A any](r *handlers, group func(*A) string, input func(*Core, time.Time, *A, interface{})) func(context.Context, *mercury.Handle, *A) (codec.Message, error) {
	return func(_ context.Context, h *mercury.Handle, a *A) (codec.Message, error) {
		n := r.lookup(group(a))
		if n == nil {
			return nil, fmt.Errorf("raft: unknown group %q", group(a))
		}
		if !n.drv.Step(func(now time.Time) { input(n.core, now, a, h) }) {
			return nil, ErrStopped
		}
		return nil, nil
	}
}

// serve is the RPC side of a client operation: it builds the waiter
// whose resolution answers h — with result() when there is one to
// compute — hands it to start, and returns with the handle kept, so the
// execution stream is free while the group works. Whoever resolves the
// waiter sends the reply. A member with no leader to name does not
// refuse the first time round: the waiter is parked in the core and
// started again when the core lets it go (Core.Hold). The request's
// phases are children of the server span the handle carries.
func (r *handlers) serve(h *mercury.Handle, group string, result func(*Node) []byte, start operation) (codec.Message, error) {
	n := r.lookup(group)
	if n == nil {
		return &applyReply{Err: "unknown group"}, nil
	}
	now := n.clk.Now()
	w := &waiter{start: start, deadline: now.Add(10 * n.cfg.ElectionTimeoutMax)}
	w.resolve = func(o outcome) {
		if errors.Is(o.err, ErrNoLeader) && !w.held && n.hold(w) {
			return
		}
		if o.err == nil && result != nil {
			o.result = result(n)
		}
		margo.Reply(h, n.reply(o))
	}
	w.span = span{sc: h.Span(), arrived: now}
	n.begin(w)
	return nil, nil
}

// hold parks w in the core if the member still knows no leader, and
// says whether it did.
func (n *Node) hold(w *waiter) (held bool) {
	w.held = true
	n.drv.Step(func(now time.Time) { held = n.core.Hold(now, w) })
	return held
}

// reply is the wire form of o: the result, or the error and a leader
// hint.
func (n *Node) reply(o outcome) *applyReply {
	if o.err != nil {
		return &applyReply{Err: o.err.Error(), LeaderHint: n.Leader()}
	}
	return &applyReply{OK: true, Result: o.result}
}

func (r *handlers) handleApply(_ context.Context, h *mercury.Handle, a *applyArgs) (codec.Message, error) {
	return r.serve(h, a.Group, nil, propose(a.Cmd))
}

func (r *handlers) handleRead(_ context.Context, h *mercury.Handle, a *readArgs) (codec.Message, error) {
	return r.serve(h, a.Group,
		func(n *Node) []byte { return n.fsm.(ReaderFSM).Read(a.Query) }, // read has checked the assertion
		read)
}

func (r *handlers) handleConfigChange(_ context.Context, h *mercury.Handle, a *configChangeArgs) (codec.Message, error) {
	return r.serve(h, a.Group, nil, changeConfig(a.Addr, a.Remove))
}

func (r *handlers) handleStatus(_ context.Context, _ *mercury.Handle, args *statusArgs) (codec.Message, error) {
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
