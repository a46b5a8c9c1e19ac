package raft

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mochi/internal/codec"
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
// (term/vote), an append-only log file, and a snapshot file. It keeps
// a MemoryStore as its in-RAM image — updated once the bytes are on
// disk, so a reader never sees what a crash could take back — and
// rewrites the log file on truncation/compaction (simple and
// crash-safe via rename; every rename is followed by a sync of the
// directory, or the new name itself could be lost).
type FileStore struct {
	dir    string
	mem    *MemoryStore
	nosync bool
	logF   *os.File
	syncs  atomic.Uint64
	buf    []byte // Append's frame buffer, reused: there is one writer
}

// Syncs returns how many fsyncs this store has issued (0 when opened
// with nosync). The E15 benchmark divides it by operations to show
// group commit dropping fsyncs/op below 1.
func (s *FileStore) Syncs() uint64 { return s.syncs.Load() }

// NewFileStore opens (or creates) a durable store in dir.
func NewFileStore(dir string, nosync bool) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &FileStore{dir: dir, mem: NewMemoryStore(), nosync: nosync}
	if err := s.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.logF = f
	return s, nil
}

func (s *FileStore) metaPath() string { return filepath.Join(s.dir, "meta.bin") }
func (s *FileStore) logPath() string  { return filepath.Join(s.dir, "log.bin") }
func (s *FileStore) snapPath() string { return filepath.Join(s.dir, "snapshot.bin") }

func (s *FileStore) load() error {
	// Snapshot first: it defines firstIndex.
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
	// Replay the log, tolerating a torn tail.
	raw, err := os.ReadFile(s.logPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	off := 0
	for off+4 <= len(raw) {
		n := int(uint32(raw[off]) | uint32(raw[off+1])<<8 | uint32(raw[off+2])<<16 | uint32(raw[off+3])<<24)
		if off+4+n > len(raw) {
			break
		}
		var e LogEntry
		if err := codec.Unmarshal(raw[off+4:off+4+n], &e); err != nil {
			break
		}
		off += 4 + n
		// Entries covered by the snapshot or superseded by a
		// truncation-rewrite are skipped/over-written.
		if e.Index < s.mem.firstIndex {
			continue
		}
		if e.Index <= s.mem.LastIndex() {
			// Overwrite due to an old truncation: drop the tail.
			if err := s.mem.TruncateFrom(e.Index); err != nil {
				return err
			}
		}
		if err := s.mem.Append([]LogEntry{e}); err != nil {
			return err
		}
	}
	return nil
}

func (s *FileStore) sync(f *os.File) error {
	if s.nosync {
		return nil
	}
	s.syncs.Add(1)
	return f.Sync()
}

// replaceFile makes data the content of path, atomically and durably:
// the bytes are synced under a temporary name, renamed over path, and
// the directory is synced so the rename survives a power loss too.
func (s *FileStore) replaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = s.sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil || s.nosync {
		return err
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return s.sync(d)
}

func (s *FileStore) SetState(term uint64, votedFor string) error {
	enc := codec.NewEncoder(nil)
	enc.Uint64(term)
	enc.String(votedFor)
	if err := s.replaceFile(s.metaPath(), enc.Bytes()); err != nil {
		return err
	}
	return s.mem.SetState(term, votedFor)
}

func (s *FileStore) State() (uint64, string, error) { return s.mem.State() }

// appendFrame appends e to buf as the log file holds it: a 4-byte
// little-endian length, then the encoded entry.
func appendFrame(buf []byte, e *LogEntry) []byte {
	at := len(buf)
	buf = codec.MarshalAppend(append(buf, 0, 0, 0, 0), e)
	n := len(buf) - at - 4
	buf[at], buf[at+1], buf[at+2], buf[at+3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	return buf
}

func (s *FileStore) Append(entries []LogEntry) error {
	// A gap must be refused before it reaches the file, where it would
	// make the log unreadable.
	if len(entries) > 0 && entries[0].Index != s.mem.LastIndex()+1 {
		return fmt.Errorf("raft: append gap: entry %d, want %d", entries[0].Index, s.mem.LastIndex()+1)
	}
	// One write and one fsync for the whole batch.
	s.buf = s.buf[:0]
	for i := range entries {
		s.buf = appendFrame(s.buf, &entries[i])
	}
	if _, err := s.logF.Write(s.buf); err != nil {
		return err
	}
	if err := s.sync(s.logF); err != nil {
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
		frames = appendFrame(frames, &s.mem.log[i])
	}
	if err := s.replaceFile(s.logPath(), frames); err != nil {
		return err
	}
	if s.logF != nil {
		s.logF.Close()
	}
	nf, err := os.OpenFile(s.logPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.logF = nf
	return nil
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
	if err := s.replaceFile(s.snapPath(), enc.Bytes()); err != nil {
		return err
	}
	if err := s.mem.SaveSnapshot(index, term, data); err != nil {
		return err
	}
	return s.rewriteLog()
}

func (s *FileStore) Snapshot() ([]byte, uint64, uint64, error) { return s.mem.Snapshot() }

func (s *FileStore) Close() error {
	if s.logF != nil {
		return s.logF.Close()
	}
	return nil
}
