package raft

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// sameEntries reports whether s holds exactly want after its snapshot.
func sameEntries(s *FileStore, want []LogEntry) bool {
	first := s.FirstIndex()
	if s.LastIndex() != first+uint64(len(want))-1 {
		return false
	}
	for i, w := range want {
		e, err := s.Entry(first + uint64(i))
		if err != nil || e.Index != w.Index || e.Term != w.Term || e.Type != w.Type || !bytes.Equal(e.Data, w.Data) {
			return false
		}
	}
	return true
}

// TestFileStoreCrashPoints: the parent-written store, its log cut at
// every byte as a crash could leave it, reopens holding exactly the
// entries whose frames end at or before the cut; an entry appended then
// is there, last, at the next reopen. Before the torn tail was cut off at
// open, every cut inside a frame (a 14-byte tear of entry 4's, say) lost
// that appended entry: it sat behind the tear.
func TestFileStoreCrashPoints(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(parentStore, "log.bin"))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // where each frame ends: the log holds entries 3..5
	for off := 0; off+4 <= len(raw); ends = append(ends, off) {
		off += 4 + int(binary.LittleEndian.Uint32(raw[off:]))
	}
	if len(ends) != 3 || ends[2] != len(raw) {
		t.Fatalf("fixture frames end at %v of %d bytes", ends, len(raw))
	}
	base := t.TempDir()
	for n := 0; n <= len(raw); n++ {
		dir := filepath.Join(base, fmt.Sprint(n))
		for name, data := range map[string][]byte{"log.bin": raw[:n], "meta.bin": nil, "snapshot.bin": nil} {
			if data == nil {
				data, _ = os.ReadFile(filepath.Join(parentStore, name))
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		kept := 0
		for kept < len(ends) && ends[kept] <= n {
			kept++
		}
		want := append([]LogEntry(nil), formatEntries[2:2+kept]...)
		s, err := NewFileStore(dir, true)
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if !sameEntries(s, want) {
			t.Fatalf("cut at %d: reopened to [%d, %d], want entries 3..%d", n, s.FirstIndex(), s.LastIndex(), 2+kept)
		}
		next := LogEntry{Index: uint64(3 + kept), Term: 4, Type: EntryCommand, Data: []byte("after the crash")}
		if err := s.Append([]LogEntry{next}); err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		s.Close()
		if s, err = NewFileStore(dir, true); err != nil {
			t.Fatal(err)
		}
		if !sameEntries(s, append(want, next)) {
			t.Fatalf("cut at %d: after one more append reopened to [%d, %d], want entries 3..%d", n, s.FirstIndex(), s.LastIndex(), 3+kept)
		}
		s.Close()
	}
}

// TestFileStoreUnreadableSnapshotKeepsTheLog: a compacted store whose
// snapshot is lost or torn does not open — its log starts past the
// snapshot, a gap without it — and the log is left byte for byte as it
// was, not cut to the gap.
func TestFileStoreUnreadableSnapshotKeepsTheLog(t *testing.T) {
	snap, err := os.ReadFile(filepath.Join(parentStore, "snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for name, snapshot := range map[string][]byte{"lost": nil, "torn": snap[:len(snap)-3]} {
		dir := t.TempDir()
		for _, n := range []string{"meta.bin", "log.bin"} {
			raw, err := os.ReadFile(filepath.Join(parentStore, n))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, n), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if snapshot != nil {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.bin"), snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if s, err := NewFileStore(dir, true); err == nil {
			s.Close()
			t.Fatalf("%s snapshot: the store opened, holding [%d, %d]", name, s.FirstIndex(), s.LastIndex())
		}
		before, _ := os.ReadFile(filepath.Join(parentStore, "log.bin"))
		if after, _ := os.ReadFile(filepath.Join(dir, "log.bin")); !bytes.Equal(before, after) {
			t.Fatalf("%s snapshot: log.bin went from %d bytes to %d", name, len(before), len(after))
		}
	}
}
