package raft

import "mochi/internal/codec"

// RPC names; groups are multiplexed by name in the payload.
const (
	rpcRequestVote     = "raft_request_vote"
	rpcAppendEntries   = "raft_append_entries"
	rpcInstallSnapshot = "raft_install_snapshot"
	rpcApply           = "raft_apply"
	rpcRead            = "raft_read"
	rpcConfigChange    = "raft_config_change"
	rpcStatus          = "raft_status"
	rpcTimeoutNow      = "raft_timeout_now"
)

type requestVoteArgs struct {
	Group        string
	Term         uint64
	Candidate    string
	LastLogIndex uint64
	LastLogTerm  uint64
	// Transfer: the leader told the candidate to campaign (TimeoutNow), so
	// voters do not withhold on that leader's account.
	Transfer bool
}

func (a *requestVoteArgs) Proc(p *codec.Proc) {
	p.String(&a.Group)
	p.Uint64(&a.Term)
	p.String(&a.Candidate)
	p.Uint64(&a.LastLogIndex)
	p.Uint64(&a.LastLogTerm)
	p.Bool(&a.Transfer)
}

type requestVoteReply struct {
	Term    uint64
	Granted bool
}

func (r *requestVoteReply) Proc(p *codec.Proc) {
	p.Uint64(&r.Term)
	p.Bool(&r.Granted)
}

type appendEntriesArgs struct {
	Group        string
	Term         uint64
	Leader       string
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []LogEntry
	LeaderCommit uint64
}

func (a *appendEntriesArgs) Proc(p *codec.Proc) {
	p.String(&a.Group)
	p.Uint64(&a.Term)
	p.String(&a.Leader)
	p.Uint64(&a.PrevLogIndex)
	p.Uint64(&a.PrevLogTerm)
	codec.Slice(p, &a.Entries, func(p *codec.Proc, e *LogEntry) { e.Proc(p) })
	p.Uint64(&a.LeaderCommit)
}

type appendEntriesReply struct {
	Term    uint64
	Success bool
	// ConflictIndex accelerates nextIndex backtracking.
	ConflictIndex uint64
}

func (r *appendEntriesReply) Proc(p *codec.Proc) {
	p.Uint64(&r.Term)
	p.Bool(&r.Success)
	p.Uint64(&r.ConflictIndex)
}

type installSnapshotArgs struct {
	Group     string
	Term      uint64
	Leader    string
	LastIndex uint64
	LastTerm  uint64
	Peers     []string
	Data      []byte
}

func (a *installSnapshotArgs) Proc(p *codec.Proc) {
	p.String(&a.Group)
	p.Uint64(&a.Term)
	p.String(&a.Leader)
	p.Uint64(&a.LastIndex)
	p.Uint64(&a.LastTerm)
	p.Strings(&a.Peers)
	p.BytesCopy(&a.Data)
}

type applyArgs struct {
	Group string
	Cmd   []byte
}

func (a *applyArgs) Proc(p *codec.Proc) {
	p.String(&a.Group)
	p.BytesCopy(&a.Cmd)
}

// readArgs carries a ReadIndex query; the reply reuses applyReply.
type readArgs struct {
	Group string
	Query []byte
}

func (a *readArgs) Proc(p *codec.Proc) {
	p.String(&a.Group)
	p.BytesCopy(&a.Query)
}

type applyReply struct {
	OK         bool
	Err        string
	Result     []byte
	LeaderHint string
}

func (r *applyReply) Proc(p *codec.Proc) {
	p.Bool(&r.OK)
	p.String(&r.Err)
	p.BytesCopy(&r.Result)
	p.String(&r.LeaderHint)
}

type configChangeArgs struct {
	Group  string
	Addr   string
	Remove bool
}

func (a *configChangeArgs) Proc(p *codec.Proc) {
	p.String(&a.Group)
	p.String(&a.Addr)
	p.Bool(&a.Remove)
}

type statusArgs struct {
	Group string
}

func (a *statusArgs) Proc(p *codec.Proc) { p.String(&a.Group) }

type statusReply struct {
	OK          bool
	Role        uint8
	Term        uint64
	Leader      string
	CommitIndex uint64
	LastApplied uint64
	Peers       []string
}

func (r *statusReply) Proc(p *codec.Proc) {
	p.Bool(&r.OK)
	p.Uint8(&r.Role)
	p.Uint64(&r.Term)
	p.String(&r.Leader)
	p.Uint64(&r.CommitIndex)
	p.Uint64(&r.LastApplied)
	p.Strings(&r.Peers)
}

// timeoutNowArgs is the last AppendEntries of a leader on its way out:
// whoever receives it takes the entries and campaigns at once.
type timeoutNowArgs struct {
	appendEntriesArgs
}

type timeoutNowReply struct {
	Term uint64
}

func (r *timeoutNowReply) Proc(p *codec.Proc) { p.Uint64(&r.Term) }

// snapshotEnvelope wraps an FSM snapshot with the peer configuration
// current at the snapshot index.
type snapshotEnvelope struct {
	Peers []string
	FSM   []byte
}

func (s *snapshotEnvelope) Proc(p *codec.Proc) {
	p.Strings(&s.Peers)
	p.BytesCopy(&s.FSM)
}
