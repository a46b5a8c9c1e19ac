package raft

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mochi/internal/codec"
	"mochi/internal/durable"
)

// writeTo carries p out on s: the one place a Persist becomes Store
// calls, shared by the node's writer and the simulator's disk.
func (p Persist) writeTo(s Store) error {
	if p.Snapshot != nil {
		return s.SaveSnapshot(p.Snapshot.Index, p.Snapshot.Term, p.Snapshot.Data)
	}
	if from := p.Entries[0].Index; from <= s.LastIndex() {
		if err := s.TruncateFrom(from); err != nil {
			return err
		}
	}
	return s.Append(p.Entries)
}

// MemoryStore is a volatile Store for tests and ephemeral groups.
type MemoryStore struct {
	mu       sync.Mutex // the one writer next to whoever steps the core
	term     uint64
	votedFor string
	// log[0] corresponds to index firstIndex.
	log        []LogEntry
	firstIndex uint64
	snapData   []byte
	snapIndex  uint64
	snapTerm   uint64
}

// NewMemoryStore returns an empty volatile store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{firstIndex: 1}
}

func (s *MemoryStore) SetState(term uint64, votedFor string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.term, s.votedFor = term, votedFor
	return nil
}

func (s *MemoryStore) State() (uint64, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.term, s.votedFor, nil
}

func (s *MemoryStore) Append(entries []LogEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		want := s.lastIndex() + 1
		if e.Index != want {
			return fmt.Errorf("raft: append gap: entry %d, want %d", e.Index, want)
		}
		s.log = append(s.log, e)
	}
	return nil
}

func (s *MemoryStore) pos(index uint64) (int, error) {
	if index < s.firstIndex {
		return 0, ErrCompacted
	}
	p := int(index - s.firstIndex)
	if p >= len(s.log) {
		return 0, fmt.Errorf("raft: index %d beyond log end %d", index, s.lastIndex())
	}
	return p, nil
}

func (s *MemoryStore) Entry(index uint64) (LogEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := s.pos(index)
	if err != nil {
		return LogEntry{}, err
	}
	return s.log[p], nil
}

func (s *MemoryStore) Entries(lo, hi uint64) ([]LogEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lo > hi {
		return nil, nil
	}
	plo, err := s.pos(lo)
	if err != nil {
		return nil, err
	}
	phi, err := s.pos(hi)
	if err != nil {
		return nil, err
	}
	return append([]LogEntry(nil), s.log[plo:phi+1]...), nil
}

func (s *MemoryStore) FirstIndex() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstIndex
}

func (s *MemoryStore) LastIndex() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastIndex()
}

func (s *MemoryStore) lastIndex() uint64 {
	if len(s.log) == 0 {
		return s.snapIndex
	}
	return s.firstIndex + uint64(len(s.log)) - 1
}

func (s *MemoryStore) Term(index uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if index == 0 {
		return 0, nil
	}
	if index == s.snapIndex {
		return s.snapTerm, nil
	}
	p, err := s.pos(index)
	if err != nil {
		return 0, err
	}
	return s.log[p].Term, nil
}

func (s *MemoryStore) TruncateFrom(index uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if index < s.firstIndex {
		return ErrCompacted
	}
	p := int(index - s.firstIndex)
	if p < len(s.log) {
		s.log = s.log[:p]
	}
	return nil
}

func (s *MemoryStore) SaveSnapshot(index, term uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if index <= s.snapIndex {
		return nil
	}
	// Keep entries after index.
	if index >= s.firstIndex {
		keepFrom := int(index - s.firstIndex + 1)
		if keepFrom >= len(s.log) {
			s.log = nil
		} else {
			s.log = append([]LogEntry(nil), s.log[keepFrom:]...)
		}
	} else {
		s.log = nil
	}
	s.snapData = append([]byte(nil), data...)
	s.snapIndex, s.snapTerm = index, term
	s.firstIndex = index + 1
	return nil
}

func (s *MemoryStore) Snapshot() ([]byte, uint64, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapData, s.snapIndex, s.snapTerm, nil
}

func (s *MemoryStore) Close() error { return nil }

// FileStore persists Raft state under a directory: a metadata file
// (term/vote), a log of entries and a snapshot file, all written through
// durable (DESIGN.md §8). It keeps a MemoryStore as its in-RAM image —
// updated once the bytes are on disk, so a reader never sees what a
// crash could take back — and rewrites the log on truncation and
// compaction.
type FileStore struct {
	dir  string
	mem  *MemoryStore
	disk durable.Disk
	log  *durable.Log
	buf  []byte // Append's frame buffer, reused: there is one writer
}

// Syncs returns how many fsyncs this store has issued (0 when opened
// with nosync); the benchmark's raft.fsyncs_per_op divides it by
// operations.
func (s *FileStore) Syncs() uint64 { return s.disk.Syncs() }

// NewFileStore opens (or creates) a durable store in dir.
func NewFileStore(dir string, nosync bool) (*FileStore, error) {
	s := &FileStore{dir: dir, mem: NewMemoryStore(), disk: durable.Disk{NoSync: nosync}}
	if err := s.disk.MkdirAll(dir); err != nil {
		return nil, err
	}
	s.load()
	log, err := s.disk.OpenLog(s.logPath(), s.replay)
	if err != nil {
		return nil, err
	}
	s.log = log
	return s, nil
}

func (s *FileStore) metaPath() string { return filepath.Join(s.dir, "meta.bin") }
func (s *FileStore) logPath() string  { return filepath.Join(s.dir, "log.bin") }
func (s *FileStore) snapPath() string { return filepath.Join(s.dir, "snapshot.bin") }

// load reads the snapshot, which defines firstIndex, and the term/vote.
func (s *FileStore) load() {
	if raw, err := os.ReadFile(s.snapPath()); err == nil && len(raw) > 0 {
		d := codec.NewDecoder(raw)
		idx := d.Uint64()
		term := d.Uint64()
		data := append([]byte(nil), d.BytesField()...)
		if err := d.Finish(); err == nil {
			s.mem.snapIndex, s.mem.snapTerm, s.mem.snapData = idx, term, data
			s.mem.firstIndex = idx + 1
		}
	}
	if raw, err := os.ReadFile(s.metaPath()); err == nil && len(raw) > 0 {
		d := codec.NewDecoder(raw)
		term := d.Uint64()
		voted := d.String()
		if err := d.Finish(); err == nil {
			s.mem.term, s.mem.votedFor = term, voted
		}
	}
}

// replay loads one frame of the log: an entry the snapshot covers is
// skipped, one at or below the end loaded so far replaces the tail from
// there. An entry that does not follow the log (a snapshot that could
// not be read leaves a gap) fails the open rather than cutting the log.
func (s *FileStore) replay(frame []byte) error {
	var e LogEntry
	if codec.Unmarshal(frame, &e) != nil {
		return durable.ErrCorrupt
	}
	if e.Index < s.mem.firstIndex {
		return nil
	}
	if e.Index <= s.mem.LastIndex() {
		if err := s.mem.TruncateFrom(e.Index); err != nil {
			return err
		}
	}
	return s.mem.Append([]LogEntry{e})
}

func (s *FileStore) SetState(term uint64, votedFor string) error {
	enc := codec.NewEncoder(nil)
	enc.Uint64(term)
	enc.String(votedFor)
	if err := s.disk.Replace(s.metaPath(), enc.Bytes()); err != nil {
		return err
	}
	return s.mem.SetState(term, votedFor)
}

func (s *FileStore) State() (uint64, string, error) { return s.mem.State() }

func (s *FileStore) Append(entries []LogEntry) error {
	// A gap must be refused before it reaches the file, where it would
	// make the log unreadable.
	if len(entries) > 0 && entries[0].Index != s.mem.LastIndex()+1 {
		return fmt.Errorf("raft: append gap: entry %d, want %d", entries[0].Index, s.mem.LastIndex()+1)
	}
	s.buf = s.buf[:0]
	for i := range entries {
		s.buf = durable.Frame(s.buf, &entries[i])
	}
	if err := s.log.Append(s.buf); err != nil {
		return err
	}
	return s.mem.Append(entries)
}

func (s *FileStore) Entry(i uint64) (LogEntry, error)          { return s.mem.Entry(i) }
func (s *FileStore) Entries(lo, hi uint64) ([]LogEntry, error) { return s.mem.Entries(lo, hi) }
func (s *FileStore) FirstIndex() uint64                        { return s.mem.FirstIndex() }
func (s *FileStore) LastIndex() uint64                         { return s.mem.LastIndex() }
func (s *FileStore) Term(i uint64) (uint64, error)             { return s.mem.Term(i) }

// rewriteLog persists the in-memory log image atomically.
func (s *FileStore) rewriteLog() error {
	var frames []byte
	for i := range s.mem.log { // no lock: only this, the one writer, ever changes it
		frames = durable.Frame(frames, &s.mem.log[i])
	}
	return s.log.Rewrite(frames)
}

func (s *FileStore) TruncateFrom(index uint64) error {
	if err := s.mem.TruncateFrom(index); err != nil {
		return err
	}
	return s.rewriteLog()
}

func (s *FileStore) SaveSnapshot(index, term uint64, data []byte) error {
	enc := codec.NewEncoder(nil)
	enc.Uint64(index)
	enc.Uint64(term)
	enc.BytesField(data)
	if err := s.disk.Replace(s.snapPath(), enc.Bytes()); err != nil {
		return err
	}
	if err := s.mem.SaveSnapshot(index, term, data); err != nil {
		return err
	}
	return s.rewriteLog()
}

func (s *FileStore) Snapshot() ([]byte, uint64, uint64, error) { return s.mem.Snapshot() }

func (s *FileStore) Close() error { return s.log.Close() }
