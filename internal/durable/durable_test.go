package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
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

func (f *faultyFile) Write(b []byte) (int, error) {
	if f.short {
		n, _ := f.File.Write(b[:len(b)/2])
		return n, errors.New("injected short write")
	}
	return f.File.Write(b)
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
// failure off refuses every later append.
func TestFailedAppendIsCutOff(t *testing.T) {
	for _, c := range []struct {
		name  string
		fault faultyFile
		want  []string
	}{
		{"short write", faultyFile{short: true}, []string{"acked-1", "acked-2"}},
		{"fsync error", faultyFile{sync: true}, []string{"acked-1", "acked-2"}},
		{"fsync and truncate error", faultyFile{sync: true, truncate: true}, []string{"acked-1", "failed"}},
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

// TestSyncsCountsEveryFsync: an append is one fsync, a replace two (the
// file, then its directory), and a NoSync disk issues none but the one
// an explicit Sync asks for.
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
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if want := map[bool]uint64{false: 6, true: 1}[nosync]; disk.Syncs() != want {
			t.Fatalf("NoSync=%v: %d fsyncs, want %d", nosync, disk.Syncs(), want)
		}
	}
}

// TestReaderErrorKeepsTheLog: a frame the reader fails on for any reason
// but ErrCorrupt — a frame that decodes but does not fit what came
// before — fails the open and leaves the file byte for byte as it was.
func TestReaderErrorKeepsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	data := append(frame("one"), frame("two")...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	inconsistent := errors.New("inconsistent frame")
	_, err := new(Disk).OpenLog(path, func(body []byte) error {
		if bytes.HasSuffix(body, []byte("two")) {
			return inconsistent
		}
		return nil
	})
	if !errors.Is(err, inconsistent) {
		t.Fatalf("OpenLog = %v, want the reader's error", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Fatalf("the log went from %d bytes to %d", len(data), len(after))
	}
}

// FuzzOpenLog: whatever bytes a log file holds, opening it does not
// panic, keeps a prefix of whole frames the reader accepted and cuts the
// file to exactly that prefix, and a frame appended afterwards is the
// next one replayed.
func FuzzOpenLog(f *testing.F) {
	two := append(frame("one"), frame("two")...)
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add(append(frame("x"), 0xff, 0xff, 0xff, 0x7f, 1))
	f.Add(append([]byte{1, 0, 0, 0, 0xff}, two...)) // a frame the reader refuses, then two good ones
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		disk := Disk{NoSync: true}
		open := func() (*Log, [][]byte) {
			var kept [][]byte
			l, err := disk.OpenLog(path, func(body []byte) error {
				if len(body) > 0 && body[0] == 0xff { // a body the reader refuses
					return ErrCorrupt
				}
				kept = append(kept, append([]byte(nil), body...))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return l, kept
		}
		l, kept := open()
		var prefix []byte
		for _, body := range kept {
			prefix = binary.LittleEndian.AppendUint32(prefix, uint32(len(body)))
			prefix = append(prefix, body...)
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("replayed frames are not a prefix of the file")
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(len(prefix)) {
			t.Fatalf("file cut to %d bytes, want the %d bytes replayed", fi.Size(), len(prefix))
		}
		tail := frame("tail")
		if err := l.Append(tail); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, again := open()
		defer l.Close()
		if len(again) != len(kept)+1 || !bytes.Equal(again[len(kept)], tail[4:]) {
			t.Fatalf("after an append the log replays %d frames, want the %d before it and the new one last", len(again), len(kept))
		}
	})
}
