package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mochi/internal/codec"
)

// blob is the message the tests frame.
type blob struct{ b []byte }

func (m *blob) Proc(p *codec.Proc) { p.BytesCopy(&m.b) }

func frame(s string) []byte { return Frame(nil, &blob{b: []byte(s)}) }

// logFile is a checksummed log file holding frames.
func logFile(frames ...[]byte) []byte {
	return slices.Concat(append([][]byte{[]byte(header)}, frames...)...)
}

// legacyFrame is s framed the way a log was before frames had a checksum.
func legacyFrame(s string) []byte {
	body := codec.Marshal(&blob{b: []byte(s)})
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// writeLog writes data to a fresh file and returns its path.
func writeLog(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// replay opens the log at path and returns the bodies of the frames it
// keeps.
func replay(t *testing.T, disk *Disk, path string) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := disk.OpenLog(path, func(body []byte) error {
		var m blob
		if err := codec.Unmarshal(body, &m); err != nil {
			return err
		}
		got = append(got, string(m.b))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

// faultyFile fails the calls a test arms, the way a disk can.
type faultyFile struct {
	*os.File
	short, sync, truncate bool
}

func (f *faultyFile) WriteAt(b []byte, off int64) (int, error) {
	if f.short {
		n, _ := f.File.WriteAt(b[:len(b)/2], off)
		return n, errors.New("injected short write")
	}
	return f.File.WriteAt(b, off)
}

func (f *faultyFile) Sync() error {
	if f.sync {
		return errors.New("injected fsync error")
	}
	return f.File.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.truncate {
		return errors.New("injected truncate error")
	}
	return f.File.Truncate(size)
}

// TestFailedAppendIsCutOff: an append whose write tears or whose fsync
// fails after the bytes went in reports its error and leaves nothing
// behind — the reopened log holds the acked frames only, the one
// appended after the failure included — and a log that cannot cut the
// failure off refuses every later append; its Close cuts the failure off
// once the disk lets it.
func TestFailedAppendIsCutOff(t *testing.T) {
	for _, c := range []struct {
		name  string
		fault faultyFile
		want  []string
	}{
		{"short write", faultyFile{short: true}, []string{"acked-1", "acked-2"}},
		{"fsync error", faultyFile{sync: true}, []string{"acked-1", "acked-2"}},
		{"fsync and truncate error", faultyFile{sync: true, truncate: true}, []string{"acked-1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			var disk Disk
			l, _ := replay(t, &disk, path)
			if err := l.Append(frame("acked-1")); err != nil {
				t.Fatal(err)
			}
			healthy := l.f.(*os.File)
			c.fault.File = healthy
			l.f = &c.fault
			if err := l.Append(frame("failed")); err == nil {
				t.Fatal("the faulty append succeeded")
			}
			l.f = healthy
			err := l.Append(frame("acked-2"))
			if cut := !c.fault.truncate; (err == nil) != cut {
				t.Fatalf("append after the failure: %v", err)
			}
			l.Close()
			l, got := replay(t, &disk, path)
			defer l.Close()
			if !slices.Equal(got, c.want) {
				t.Fatalf("reopened log holds %q, want %q", got, c.want)
			}
		})
	}
}

// TestSyncsCountsEveryFsync: an append is one fsync (reserving space is
// none), a replace two (the file, then its directory), a directory
// MkdirAll creates one (its parent) and one it finds none, and a NoSync
// disk issues none but the one an explicit Sync asks for.
func TestSyncsCountsEveryFsync(t *testing.T) {
	for _, nosync := range []bool{false, true} {
		dir := t.TempDir()
		disk := Disk{NoSync: nosync}
		l, _ := replay(t, &disk, filepath.Join(dir, "log"))
		if err := l.Append(frame("a")); err != nil {
			t.Fatal(err)
		}
		if err := l.Rewrite(frame("b")); err != nil {
			t.Fatal(err)
		}
		if err := disk.Replace(filepath.Join(dir, "meta"), []byte("m")); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if err := disk.MkdirAll(filepath.Join(dir, "new", "nested")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if want := map[bool]uint64{false: 8, true: 1}[nosync]; disk.Syncs() != want {
			t.Fatalf("NoSync=%v: %d fsyncs, want %d", nosync, disk.Syncs(), want)
		}
	}
}

// TestAppendKeepsTheFileSize: the first append reserves a step of file,
// and every later append that fits in it writes in place, leaving the
// file's size alone and costing one fsync; closing the log gives the
// unused space back.
func TestAppendKeepsTheFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	var disk Disk
	l, _ := replay(t, &disk, path)
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	var want []string
	for i := range 50 {
		want = append(want, fmt.Sprint("entry-", i))
		syncs := disk.Syncs()
		if err := l.Append(frame(want[i])); err != nil {
			t.Fatal(err)
		}
		if disk.Syncs() != syncs+1 {
			t.Fatalf("append %d: %d fsyncs, want 1", i, disk.Syncs()-syncs)
		}
		if size() != step {
			t.Fatalf("append %d: the file is %d bytes, want the %d reserved", i, size(), step)
		}
	}
	l.Close()
	if size() != l.end {
		t.Fatalf("closed log is %d bytes, want its %d bytes of frames", size(), l.end)
	}
	l, got := replay(t, &disk, path)
	defer l.Close()
	if !slices.Equal(got, want) {
		t.Fatalf("reopened log holds %q, want %q", got, want)
	}
}

// TestReservedTailIsNotReplayed: a log left as a crash leaves it, with
// its reserved space after the last frame, replays its frames and is
// cut to them, and the next append follows the last of them.
func TestReservedTailIsNotReplayed(t *testing.T) {
	var disk Disk
	l, _ := replay(t, &disk, filepath.Join(t.TempDir(), "log"))
	defer l.Close()
	for _, s := range []string{"one", "two"} {
		if err := l.Append(frame(s)); err != nil {
			t.Fatal(err)
		}
	}
	crashed, err := os.ReadFile(l.path) // the file as a crash would find it
	if err != nil {
		t.Fatal(err)
	}
	if len(crashed) != step {
		t.Fatalf("the live log is %d bytes, want %d", len(crashed), step)
	}
	path := writeLog(t, crashed)
	c, got := replay(t, &disk, path)
	if !slices.Equal(got, []string{"one", "two"}) {
		t.Fatalf("replayed %q", got)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, logFile(frame("one"), frame("two"))) {
		t.Fatalf("the log was cut to %d bytes, want its frames", len(after))
	}
	if err := c.Append(frame("three")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c, got = replay(t, &disk, path)
	defer c.Close()
	if !slices.Equal(got, []string{"one", "two", "three"}) {
		t.Fatalf("after an append the log replays %q", got)
	}
}

// TestStaleBytesAfterTheCutAreNotReplayed: a frame written over the start
// of a longer one, which a crash then cut off, leaves the longer frame's
// remains behind it. Those remains read as a frame of plausible length,
// and only their checksum keeps them out of the replay.
func TestStaleBytesAfterTheCutAreNotReplayed(t *testing.T) {
	short, inner := frame("s"), []byte("hello")
	// The longer frame's body is laid out so that what is left of it past
	// short reads as a header of len(inner) with a wrong checksum.
	body := append([]byte("x"), binary.LittleEndian.AppendUint32(nil, uint32(len(inner)))...)
	body = append(binary.LittleEndian.AppendUint32(body, 0xdeadbeef), inner...)
	remains := Frame(nil, &blob{b: body})[len(short):]
	if binary.LittleEndian.Uint32(remains) != uint32(len(inner)) {
		t.Fatalf("the remains start %x, not the planted header", remains[:frameHdr])
	}
	raw := func(path string) (*Log, []string) {
		var got []string
		l, err := new(Disk).OpenLog(path, func(b []byte) error {
			got = append(got, string(b))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return l, got
	}
	one := frame("one")
	path := writeLog(t, append(logFile(one, short), remains...))
	l, got := raw(path)
	if want := []string{string(one[frameHdr:]), string(short[frameHdr:])}; !slices.Equal(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
	if err := l.Append(frame("after")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if l, got = raw(path); len(got) != 3 || got[2] != string(frame("after")[frameHdr:]) {
		t.Fatalf("after an append the log replays %q", got)
	}
	l.Close()

	// The same remains with the checksum their bytes happen to match are
	// replayed: it is the checksum, not the length, that refused them.
	binary.LittleEndian.PutUint32(remains[4:], crc32.Checksum(inner, castagnoli))
	l, got = raw(writeLog(t, append(logFile(one, short), remains...)))
	defer l.Close()
	if len(got) != 3 || got[2] != string(inner) {
		t.Fatalf("with a matching checksum the remains replay as %q", got)
	}
}

// TestLegacyLogIsRewrittenOnce: a log from before frames had a checksum
// replays by the old rules (cut at a short frame), is rewritten in the
// checksummed format with the frames it kept, and opens the second time
// with no rewrite.
func TestLegacyLogIsRewrittenOnce(t *testing.T) {
	path := writeLog(t, slices.Concat(legacyFrame("one"), legacyFrame("two"), legacyFrame("torn")[:5]))
	for i, rewrites := range []uint64{1, 0} {
		var disk Disk
		l, got := replay(t, &disk, path)
		l.Close()
		if !slices.Equal(got, []string{"one", "two"}) {
			t.Fatalf("open %d replayed %q", i+1, got)
		}
		if disk.Syncs() != 2*rewrites { // a rewrite syncs the file and its directory
			t.Fatalf("open %d: %d fsyncs, want %d", i+1, disk.Syncs(), 2*rewrites)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, logFile(frame("one"), frame("two"))) {
			t.Fatalf("open %d left %x", i+1, after)
		}
	}
}

// TestReaderErrorKeepsTheLog: in a checksummed log, a frame the reader
// fails on — one that does not decode (ErrCorrupt) or does not fit what
// came before — fails the open and leaves the file byte for byte as it
// was, reserved tail and all: a frame whose checksum holds was written
// whole, so it is never cut.
func TestReaderErrorKeepsTheLog(t *testing.T) {
	data := append(logFile(frame("one"), frame("two")), make([]byte, 64)...)
	for _, refusal := range []error{ErrCorrupt, errors.New("inconsistent frame")} {
		path := writeLog(t, data)
		_, err := new(Disk).OpenLog(path, func(body []byte) error {
			if bytes.HasSuffix(body, []byte("two")) {
				return refusal
			}
			return nil
		})
		if !errors.Is(err, refusal) {
			t.Fatalf("OpenLog = %v, want the reader's %v", err, refusal)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
			t.Fatalf("%v: the log went from %d bytes to %d", refusal, len(data), len(after))
		}
	}
}

// FuzzOpenLog: whatever bytes a log file holds, opening it does not
// panic, and either fails on a checksummed frame the reader refuses,
// leaving the file as it was, or keeps a prefix of whole frames the
// reader accepted and leaves the file exactly those frames, checksummed;
// a frame appended afterwards is the next one replayed.
func FuzzOpenLog(f *testing.F) {
	one, two := frame("one"), frame("two")
	legacy := slices.Concat(legacyFrame("one"), legacyFrame("two"))
	f.Add([]byte{})
	f.Add(logFile(one, two))
	f.Add(append(logFile(one, two), make([]byte, 64)...))                        // a reserved tail
	f.Add(logFile(one, two[:len(two)-3]))                                        // a torn write
	f.Add(append(logFile(one), 5, 0, 0, 0, 1, 2, 3, 4, 'h', 'e', 'l', 'l', 'o')) // garbage after the cut
	f.Add(logFile(one, Frame(nil, &blob{b: []byte{0xff}})))                      // a checksummed frame the reader refuses
	f.Add(legacy)
	f.Add(append(legacyFrame("x"), 0xff, 0xff, 0xff, 0x7f, 1))
	f.Add(append([]byte{1, 0, 0, 0, 0xff}, legacy...)) // a legacy frame the reader refuses, then two good ones
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeLog(t, data)
		disk := Disk{NoSync: true}
		open := func() (*Log, [][]byte, error) {
			var kept [][]byte
			l, err := disk.OpenLog(path, func(body []byte) error {
				if body[0] == 0xff { // a body the reader refuses
					return ErrCorrupt
				}
				kept = append(kept, append([]byte(nil), body...))
				return nil
			})
			return l, kept, err
		}
		l, kept, err := open()
		checksummed := len(data) == 0 || bytes.HasPrefix(data, []byte(header))
		if err != nil {
			if !checksummed || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenLog = %v", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatalf("a failed open changed the file")
			}
			return
		}
		want, read := []byte(header), []byte(nil) // what the file should hold; what was read of it
		for _, body := range kept {
			want = seal(append(append(want, make([]byte, frameHdr)...), body...), len(want))
			read = append(binary.LittleEndian.AppendUint32(read, uint32(len(body))), body...)
		}
		if checksummed {
			read = want
		}
		if len(data) == 0 {
			want = nil // a new log's header goes out with its first append
		}
		if !bytes.HasPrefix(data, read) && len(data) > 0 {
			t.Fatalf("replayed frames are not a prefix of the file")
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, want) {
			t.Fatalf("the file holds %d bytes after the open, want the %d of its replayed frames", len(after), len(want))
		}
		tail := frame("tail")
		if err := l.Append(tail); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, again, err := open()
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if len(again) != len(kept)+1 || !bytes.Equal(again[len(kept)], tail[frameHdr:]) {
			t.Fatalf("after an append the log replays %d frames, want the %d before it and the new one last", len(again), len(kept))
		}
	})
}
