package raft

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// parentStore is the directory a FileStore built from commit 4843d7a —
// before the message descriptions became codec.Proc methods — left
// behind after writeFormatFixture. It stands for every log that is on
// somebody's disk already.
const parentStore = "testdata/filestore-4843d7a"

var formatEntries = []LogEntry{
	{Index: 1, Term: 1, Type: EntryNoop},
	{Index: 2, Term: 1, Type: EntryCommand, Data: []byte("set k v")},
	{Index: 3, Term: 2, Type: EntryConfig, Data: []byte("sm://a,sm://b,sm://c")},
	{Index: 4, Term: 2, Type: EntryCommand, Data: bytes.Repeat([]byte{0xA5}, 300)},
	{Index: 5, Term: 3, Type: EntryCommand, Data: []byte{}},
}

// writeFormatFixture drives every FileStore write path once: the vote,
// appended frames, a snapshot (which rewrites the log), an append after
// it.
func writeFormatFixture(t *testing.T, dir string) {
	t.Helper()
	s, err := NewFileStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		s.SetState(3, "sm://a"),
		s.Append(formatEntries[:4]),
		s.SaveSnapshot(2, 1, []byte("snapshot-state")),
		s.Append(formatEntries[4:]),
		s.Close(),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestFileStoreFormatUnchanged: a directory written by the parent
// build opens with the same contents, and the same calls today write
// the same bytes.
func TestFileStoreFormatUnchanged(t *testing.T) {
	names := []string{"meta.bin", "log.bin", "snapshot.bin"}
	old, fresh := t.TempDir(), t.TempDir()
	for _, n := range names {
		raw, err := os.ReadFile(filepath.Join(parentStore, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(old, n), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewFileStore(old, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if term, voted, _ := s.State(); term != 3 || voted != "sm://a" {
		t.Fatalf("state = (%d, %q), want (3, sm://a)", term, voted)
	}
	if data, idx, term, _ := s.Snapshot(); idx != 2 || term != 1 || string(data) != "snapshot-state" {
		t.Fatalf("snapshot = (%q, %d, %d)", data, idx, term)
	}
	got, err := s.Entries(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range formatEntries[2:] {
		if got[i].Index != want.Index || got[i].Term != want.Term || got[i].Type != want.Type || !bytes.Equal(got[i].Data, want.Data) {
			t.Fatalf("entry %d = %+v, want %+v", want.Index, got[i], want)
		}
	}

	writeFormatFixture(t, fresh)
	for _, n := range names {
		a, _ := os.ReadFile(filepath.Join(parentStore, n))
		b, err := os.ReadFile(filepath.Join(fresh, n))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from what the parent build wrote:\nparent %x\n   now %x", n, a, b)
		}
	}
}
