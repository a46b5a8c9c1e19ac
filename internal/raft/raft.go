// Package raft implements Mochi-RAFT (paper §7, Observation 11):
// state-machine replication over the margo RPC layer, usable both
// bottom-up (replicating one component's state, e.g. a set of Yokan
// databases behind a virtual resource) and top-down (a replicated
// controller applying commands to non-resilient components).
//
// The implementation follows Ongaro & Ousterhout's Raft: randomized
// leader election, log replication with the Log Matching property,
// commitment only of current-term entries, snapshot-based log
// compaction with InstallSnapshot for lagging followers, and
// single-server membership changes.
package raft

import (
	"errors"

	"mochi/internal/codec"
)

// Errors returned by nodes.
var (
	ErrNotLeader  = errors.New("raft: not the leader")
	ErrNoLeader   = errors.New("raft: no known leader")
	ErrStopped    = errors.New("raft: node stopped")
	ErrTimeout    = errors.New("raft: commit timed out")
	ErrBadConfig  = errors.New("raft: invalid configuration change")
	ErrCompacted  = errors.New("raft: index compacted into snapshot")
	ErrInProgress = errors.New("raft: configuration change in progress")
	ErrNoReader   = errors.New("raft: fsm does not support read-only queries")
)

// FSM is the replicated state machine. Apply is invoked exactly once
// per committed entry, in index order. Apply, ApplyBatch, Restore and
// Snapshot are all called from the node's one applier goroutine, never
// concurrently with one another: a snapshot taken after the entry at
// index i was applied holds the effects of exactly the entries up to
// i, and entries handed over after a Restore start right after the
// restored snapshot's index.
type FSM interface {
	// Apply executes a committed command and returns its result.
	Apply(index uint64, cmd []byte) []byte
	// Snapshot captures the full state for log compaction.
	Snapshot() ([]byte, error)
	// Restore replaces the state from a snapshot.
	Restore(snapshot []byte) error
}

// Command is one committed command handed to BatchFSM.ApplyBatch.
type Command struct {
	Index uint64
	Data  []byte
}

// BatchFSM is an optional FSM extension: the applier drains the whole
// committed range per wakeup and, when the FSM implements it, hands
// the run of commands over in one call so the FSM can apply them under
// one internal lock acquisition instead of one per command. Results
// must be returned positionally (len(results) == len(cmds)); ordering
// and exactly-once semantics are unchanged from Apply.
type BatchFSM interface {
	FSM
	ApplyBatch(cmds []Command) [][]byte
}

// ReaderFSM is an optional FSM extension for the ReadIndex path: Read
// answers a read-only query from current state without writing a log
// entry. Unlike Apply, Read is called from whichever goroutine learns
// that the read is confirmed (or from the caller of Node.Read),
// concurrently with the applier, so implementations must synchronize
// reads against Apply/ApplyBatch internally.
type ReaderFSM interface {
	Read(query []byte) []byte
}

// EntryType distinguishes log entry kinds.
type EntryType uint8

const (
	// EntryCommand carries an FSM command.
	EntryCommand EntryType = iota
	// EntryNoop is appended by a new leader to commit prior terms.
	EntryNoop
	// EntryConfig carries a membership change (the new peer set).
	EntryConfig
)

// LogEntry is one replicated log record.
type LogEntry struct {
	Index uint64
	Term  uint64
	Type  EntryType
	Data  []byte
}

// Proc implements codec.Message: the entry as it travels in
// AppendEntries and as FileStore frames it on disk.
func (e *LogEntry) Proc(p *codec.Proc) {
	p.Uint64(&e.Index)
	p.Uint64(&e.Term)
	p.Uint8((*uint8)(&e.Type))
	p.BytesCopy(&e.Data)
}

// Role is a node's current protocol role.
type Role uint8

const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return "unknown"
}

// Store is the persistence layer: term/vote metadata, the log, and
// the most recent snapshot. A node uses it from two goroutines at a
// time: whichever steps the Core reads it and calls SetState, and the
// one writer calls Append, TruncateFrom and SaveSnapshot, so each of
// those three must be safe to run next to the other methods (never next
// to one another). A reader must not see a write that a crash could
// still take back.
type Store interface {
	// SetState durably records the current term and vote.
	SetState(term uint64, votedFor string) error
	// State returns the recorded term and vote (zero values if none).
	State() (term uint64, votedFor string, err error)
	// Append adds entries at the end of the log.
	Append(entries []LogEntry) error
	// Entry returns the entry at index (ErrCompacted if discarded,
	// ok=false if beyond the log).
	Entry(index uint64) (LogEntry, error)
	// Entries returns entries in [lo, hi] inclusive.
	Entries(lo, hi uint64) ([]LogEntry, error)
	// FirstIndex is the lowest index still in the log (snapshot
	// index + 1 after compaction); 1 for a fresh log.
	FirstIndex() uint64
	// LastIndex is the highest appended index (or the snapshot index
	// if the log is empty); 0 for a fresh log.
	LastIndex() uint64
	// Term returns the term of the entry at index, handling the
	// snapshot boundary.
	Term(index uint64) (uint64, error)
	// TruncateFrom removes all entries with index >= index.
	TruncateFrom(index uint64) error
	// SaveSnapshot stores a snapshot covering entries up to and
	// including index (with the given term) and discards them.
	SaveSnapshot(index, term uint64, data []byte) error
	// Snapshot returns the stored snapshot (index 0 when none).
	Snapshot() (data []byte, index, term uint64, err error)
	// Close releases resources.
	Close() error
}
