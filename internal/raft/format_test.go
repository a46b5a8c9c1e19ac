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
// behind after writeFormatFixture. It stands for every log written
// before frames carried a checksum that is on somebody's disk already.
const parentStore = "testdata/filestore-4843d7a"

// formatStore is what writeFormatFixture leaves now that frames carry a
// checksum: its log file opens with durable's header.
const formatStore = "testdata/filestore-crc"

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

// copyStore copies the store directory from into a fresh directory.
func copyStore(t *testing.T, from string) string {
	t.Helper()
	dir := t.TempDir()
	for _, n := range []string{"meta.bin", "log.bin", "snapshot.bin"} {
		raw, err := os.ReadFile(filepath.Join(from, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, n), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkFormatContents fails unless s holds what writeFormatFixture left.
func checkFormatContents(t *testing.T, s *FileStore) {
	t.Helper()
	if term, voted, _ := s.State(); term != 3 || voted != "sm://a" {
		t.Fatalf("state = (%d, %q), want (3, sm://a)", term, voted)
	}
	if data, idx, term, _ := s.Snapshot(); idx != 2 || term != 1 || string(data) != "snapshot-state" {
		t.Fatalf("snapshot = (%q, %d, %d)", data, idx, term)
	}
	if !sameEntries(s, formatEntries[2:]) {
		t.Fatalf("store holds [%d, %d], want entries 3..5", s.FirstIndex(), s.LastIndex())
	}
}

// TestFileStoreFormatUnchanged: a directory written in the checksummed
// format opens with the same contents, and the same calls today write
// the same bytes.
func TestFileStoreFormatUnchanged(t *testing.T) {
	s, err := NewFileStore(copyStore(t, formatStore), true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkFormatContents(t, s)

	fresh := t.TempDir()
	writeFormatFixture(t, fresh)
	for _, n := range []string{"meta.bin", "log.bin", "snapshot.bin"} {
		a, _ := os.ReadFile(filepath.Join(formatStore, n))
		b, err := os.ReadFile(filepath.Join(fresh, n))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from the fixture:\nfixture %x\n    now %x", n, a, b)
		}
	}
}

// TestFileStoreLegacyIsRewrittenOnce: the parent-written store opens
// with the same contents, its log rewritten in the checksummed format —
// byte for byte what the same calls write today — at the cost of one
// replace (two fsyncs); the second open rewrites nothing.
func TestFileStoreLegacyIsRewrittenOnce(t *testing.T) {
	dir := copyStore(t, parentStore)
	for i, syncs := range []uint64{2, 0} {
		s, err := NewFileStore(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		checkFormatContents(t, s)
		if s.Syncs() != syncs {
			t.Fatalf("open %d: %d fsyncs, want %d", i+1, s.Syncs(), syncs)
		}
		s.Close()
		want, _ := os.ReadFile(filepath.Join(formatStore, "log.bin"))
		if got, _ := os.ReadFile(filepath.Join(dir, "log.bin")); !bytes.Equal(got, want) {
			t.Fatalf("open %d left log.bin\n%x\nwant\n%x", i+1, got, want)
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

// TestFileStoreCrashPoints: the checksummed store, its log cut at every
// byte as a crash could leave it and followed by what the disk held past
// the cut — reserved space (zeros), or stale bytes, here each frame as it
// was before with its last byte different — reopens holding exactly the
// entries whose frames are whole (the cut falls after them, or what
// follows it happens to be their bytes: entry 5 ends in zeros); an entry
// appended then is there, last, at the next reopen.
func TestFileStoreCrashPoints(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(formatStore, "log.bin"))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // where each frame ends: the log holds entries 3..5
	stale := bytes.Clone(raw)
	for off := 8; off+8 <= len(raw); ends = append(ends, off) {
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
		stale[off-1] ^= 0xff
	}
	if len(ends) != 3 || ends[2] != len(raw) {
		t.Fatalf("fixture frames end at %v of %d bytes", ends, len(raw))
	}
	base := t.TempDir()
	for n := 0; n <= len(raw); n++ {
		for tail, after := range map[string][]byte{"zeros": make([]byte, 512), "stale": stale[n:]} {
			dir := filepath.Join(base, fmt.Sprint(n, tail))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			log := append(raw[:n:n], after...)
			for name, data := range map[string][]byte{"log.bin": log, "meta.bin": nil, "snapshot.bin": nil} {
				if data == nil {
					data, _ = os.ReadFile(filepath.Join(formatStore, name))
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			kept := 0
			for kept < len(ends) && len(log) >= ends[kept] && bytes.Equal(log[:ends[kept]], raw[:ends[kept]]) {
				kept++
			}
			want := append([]LogEntry(nil), formatEntries[2:2+kept]...)
			s, err := NewFileStore(dir, true)
			if err != nil {
				t.Fatalf("cut at %d, %s after: %v", n, tail, err)
			}
			if !sameEntries(s, want) {
				t.Fatalf("cut at %d, %s after: reopened to [%d, %d], want entries 3..%d", n, tail, s.FirstIndex(), s.LastIndex(), 2+kept)
			}
			next := LogEntry{Index: uint64(3 + kept), Term: 4, Type: EntryCommand, Data: []byte("after the crash")}
			if err := s.Append([]LogEntry{next}); err != nil {
				t.Fatalf("cut at %d, %s after: %v", n, tail, err)
			}
			s.Close()
			if s, err = NewFileStore(dir, true); err != nil {
				t.Fatal(err)
			}
			if !sameEntries(s, append(want, next)) {
				t.Fatalf("cut at %d, %s after: after one more append reopened to [%d, %d], want entries 3..%d", n, tail, s.FirstIndex(), s.LastIndex(), 3+kept)
			}
			s.Close()
		}
	}
}

// TestFileStoreUnreadableSnapshotKeepsTheLog: a compacted store whose
// snapshot is lost or torn does not open — its log starts past the
// snapshot, a gap without it — and the log, legacy or checksummed, is
// left byte for byte as it was, not cut to the gap nor rewritten.
func TestFileStoreUnreadableSnapshotKeepsTheLog(t *testing.T) {
	for _, store := range []string{parentStore, formatStore} {
		snap, err := os.ReadFile(filepath.Join(store, "snapshot.bin"))
		if err != nil {
			t.Fatal(err)
		}
		for name, snapshot := range map[string][]byte{"lost": nil, "torn": snap[:len(snap)-3]} {
			dir := copyStore(t, store)
			err := os.Remove(filepath.Join(dir, "snapshot.bin"))
			if snapshot != nil && err == nil {
				err = os.WriteFile(filepath.Join(dir, "snapshot.bin"), snapshot, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			if s, err := NewFileStore(dir, true); err == nil {
				s.Close()
				t.Fatalf("%s, %s snapshot: the store opened, holding [%d, %d]", store, name, s.FirstIndex(), s.LastIndex())
			}
			before, _ := os.ReadFile(filepath.Join(store, "log.bin"))
			if after, _ := os.ReadFile(filepath.Join(dir, "log.bin")); !bytes.Equal(before, after) {
				t.Fatalf("%s, %s snapshot: log.bin went from %d bytes to %d", store, name, len(before), len(after))
			}
		}
	}
}
