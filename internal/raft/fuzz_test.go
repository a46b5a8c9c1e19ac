package raft

import (
	"testing"

	"mochi/internal/codec/codectest"
)

// wireProtos is one prototype of every wire message of the package, in
// the order the fuzz selector and testdata/wire.golden number them.
func wireProtos() []codectest.Message {
	return []codectest.Message{
		&requestVoteArgs{Group: "g", Term: 3, Candidate: "sm://a", LastLogIndex: 9, LastLogTerm: 2, Transfer: true},
		&requestVoteReply{Term: 3, Granted: true},
		&appendEntriesArgs{
			Group: "g", Term: 3, Leader: "sm://a", PrevLogIndex: 8, PrevLogTerm: 2,
			Entries:      []LogEntry{{Index: 9, Term: 3, Data: []byte("set x 1")}},
			LeaderCommit: 8,
		},
		&appendEntriesReply{Term: 3, Success: true, ConflictIndex: 4},
		&installSnapshotArgs{Group: "g", Term: 3, Leader: "sm://a", LastIndex: 9, LastTerm: 2, Peers: []string{"sm://a", "sm://b"}, Data: []byte("snap")},
		&applyArgs{Group: "g", Cmd: []byte("set k v")},
		&applyReply{OK: true, Result: []byte("ok"), LeaderHint: "sm://a"},
		&configChangeArgs{Group: "g", Addr: "sm://c", Remove: true},
		&statusReply{OK: true, Role: 2, Term: 3, Leader: "sm://a", Peers: []string{"sm://a"}},
		&snapshotEnvelope{Peers: []string{"sm://a"}, FSM: []byte("state")},
		&readArgs{Group: "g", Query: []byte("get k")},
		&statusArgs{Group: "g"},
		&LogEntry{Index: 9, Term: 3, Type: EntryConfig, Data: []byte("sm://a,sm://b")},
		&timeoutNowArgs{appendEntriesArgs{Group: "g", Term: 3, Leader: "sm://a", PrevLogIndex: 9, PrevLogTerm: 3, LeaderCommit: 9}},
		&timeoutNowReply{Term: 3},
	}
}

// FuzzWireMessages runs every Raft wire message type under the shared
// hostile-input harness: bytes from a compromised or corrupted peer
// must produce decode errors, never panics, runaway allocations or a
// different message on re-encoding.
func FuzzWireMessages(f *testing.F) {
	f.Add(uint8(2), []byte{0x01, 0x61, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	codectest.FuzzMessages(f, wireProtos()...)
}

// TestWireGolden fails when the encoding of any of them changes.
func TestWireGolden(t *testing.T) { codectest.Golden(t, wireProtos()...) }
