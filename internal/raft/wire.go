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
)

type requestVoteArgs struct {
	Group        string
	Term         uint64
	Candidate    string
	LastLogIndex uint64
	LastLogTerm  uint64
}

func (a *requestVoteArgs) MarshalMochi(e *codec.Encoder) {
	e.String(a.Group)
	e.Uint64(a.Term)
	e.String(a.Candidate)
	e.Uint64(a.LastLogIndex)
	e.Uint64(a.LastLogTerm)
}

func (a *requestVoteArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Group = d.String()
	a.Term = d.Uint64()
	a.Candidate = d.String()
	a.LastLogIndex = d.Uint64()
	a.LastLogTerm = d.Uint64()
}

type requestVoteReply struct {
	Term    uint64
	Granted bool
}

func (r *requestVoteReply) MarshalMochi(e *codec.Encoder) {
	e.Uint64(r.Term)
	e.Bool(r.Granted)
}

func (r *requestVoteReply) UnmarshalMochi(d *codec.Decoder) {
	r.Term = d.Uint64()
	r.Granted = d.Bool()
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

func (a *appendEntriesArgs) MarshalMochi(e *codec.Encoder) {
	e.String(a.Group)
	e.Uint64(a.Term)
	e.String(a.Leader)
	e.Uint64(a.PrevLogIndex)
	e.Uint64(a.PrevLogTerm)
	e.Uvarint(uint64(len(a.Entries)))
	for i := range a.Entries {
		a.Entries[i].MarshalMochi(e)
	}
	e.Uint64(a.LeaderCommit)
}

func (a *appendEntriesArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Group = d.String()
	a.Term = d.Uint64()
	a.Leader = d.String()
	a.PrevLogIndex = d.Uint64()
	a.PrevLogTerm = d.Uint64()
	n := d.Count(18) // per entry: index, term, type, data length
	a.Entries = make([]LogEntry, 0, n)
	for i := 0; i < n; i++ {
		var le LogEntry
		le.UnmarshalMochi(d)
		if d.Err() != nil {
			return
		}
		a.Entries = append(a.Entries, le)
	}
	a.LeaderCommit = d.Uint64()
}

type appendEntriesReply struct {
	Term    uint64
	Success bool
	// ConflictIndex accelerates nextIndex backtracking.
	ConflictIndex uint64
}

func (r *appendEntriesReply) MarshalMochi(e *codec.Encoder) {
	e.Uint64(r.Term)
	e.Bool(r.Success)
	e.Uint64(r.ConflictIndex)
}

func (r *appendEntriesReply) UnmarshalMochi(d *codec.Decoder) {
	r.Term = d.Uint64()
	r.Success = d.Bool()
	r.ConflictIndex = d.Uint64()
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

func (a *installSnapshotArgs) MarshalMochi(e *codec.Encoder) {
	e.String(a.Group)
	e.Uint64(a.Term)
	e.String(a.Leader)
	e.Uint64(a.LastIndex)
	e.Uint64(a.LastTerm)
	e.StringSlice(a.Peers)
	e.BytesField(a.Data)
}

func (a *installSnapshotArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Group = d.String()
	a.Term = d.Uint64()
	a.Leader = d.String()
	a.LastIndex = d.Uint64()
	a.LastTerm = d.Uint64()
	a.Peers = d.StringSlice()
	a.Data = append([]byte(nil), d.BytesField()...)
}

type applyArgs struct {
	Group string
	Cmd   []byte
}

func (a *applyArgs) MarshalMochi(e *codec.Encoder) {
	e.String(a.Group)
	e.BytesField(a.Cmd)
}

func (a *applyArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Group = d.String()
	a.Cmd = append([]byte(nil), d.BytesField()...)
}

// readArgs carries a ReadIndex query; the reply reuses applyReply.
type readArgs struct {
	Group string
	Query []byte
}

func (a *readArgs) MarshalMochi(e *codec.Encoder) {
	e.String(a.Group)
	e.BytesField(a.Query)
}

func (a *readArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Group = d.String()
	a.Query = append([]byte(nil), d.BytesField()...)
}

type applyReply struct {
	OK         bool
	Err        string
	Result     []byte
	LeaderHint string
}

func (r *applyReply) MarshalMochi(e *codec.Encoder) {
	e.Bool(r.OK)
	e.String(r.Err)
	e.BytesField(r.Result)
	e.String(r.LeaderHint)
}

func (r *applyReply) UnmarshalMochi(d *codec.Decoder) {
	r.OK = d.Bool()
	r.Err = d.String()
	r.Result = append([]byte(nil), d.BytesField()...)
	r.LeaderHint = d.String()
}

type configChangeArgs struct {
	Group  string
	Addr   string
	Remove bool
}

func (a *configChangeArgs) MarshalMochi(e *codec.Encoder) {
	e.String(a.Group)
	e.String(a.Addr)
	e.Bool(a.Remove)
}

func (a *configChangeArgs) UnmarshalMochi(d *codec.Decoder) {
	a.Group = d.String()
	a.Addr = d.String()
	a.Remove = d.Bool()
}

type statusArgs struct {
	Group string
}

func (a *statusArgs) MarshalMochi(e *codec.Encoder) { e.String(a.Group) }

func (a *statusArgs) UnmarshalMochi(d *codec.Decoder) { a.Group = d.String() }

type statusReply struct {
	OK          bool
	Role        uint8
	Term        uint64
	Leader      string
	CommitIndex uint64
	LastApplied uint64
	Peers       []string
}

func (r *statusReply) MarshalMochi(e *codec.Encoder) {
	e.Bool(r.OK)
	e.Uint8(r.Role)
	e.Uint64(r.Term)
	e.String(r.Leader)
	e.Uint64(r.CommitIndex)
	e.Uint64(r.LastApplied)
	e.StringSlice(r.Peers)
}

func (r *statusReply) UnmarshalMochi(d *codec.Decoder) {
	r.OK = d.Bool()
	r.Role = d.Uint8()
	r.Term = d.Uint64()
	r.Leader = d.String()
	r.CommitIndex = d.Uint64()
	r.LastApplied = d.Uint64()
	r.Peers = d.StringSlice()
}

// snapshotEnvelope wraps an FSM snapshot with the peer configuration
// current at the snapshot index.
type snapshotEnvelope struct {
	Peers []string
	FSM   []byte
}

func (s *snapshotEnvelope) MarshalMochi(e *codec.Encoder) {
	e.StringSlice(s.Peers)
	e.BytesField(s.FSM)
}

func (s *snapshotEnvelope) UnmarshalMochi(d *codec.Decoder) {
	s.Peers = d.StringSlice()
	s.FSM = append([]byte(nil), d.BytesField()...)
}
