// Package durable is where the stores' bytes meet the disk: a framed log
// that after any crash or failed call holds exactly the frames whose
// appends succeeded, and a replace that leaves the old content or the new.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"mochi/internal/codec"
)

// ErrCorrupt is what a reader hands OpenLog for a frame it cannot decode.
var ErrCorrupt = errors.New("durable: corrupt frame")

// A log opens with header, then frames of [len u32][crc32c u32][body]; a
// legacy log has neither. step is how far past its end a log reserves its
// file at a time, so that an append's fsync changes no size.
const header, frameHdr, step = "mochilg1", 8, 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Disk writes logs and replaced files; with NoSync it never fsyncs but
// for Log.Sync. A Disk must not be copied after first use.
type Disk struct {
	NoSync bool
	syncs  atomic.Uint64
}

// Syncs returns how many fsyncs d has issued, directories included.
func (d *Disk) Syncs() uint64 { return d.syncs.Load() }

func (d *Disk) sync(f interface{ Sync() error }) error {
	if d.NoSync {
		return nil
	}
	d.syncs.Add(1)
	return f.Sync()
}

func (d *Disk) syncDir(dir string) error {
	f, err := os.Open(dir)
	if err == nil {
		err = d.sync(f)
		f.Close()
	}
	return err
}

// Frame appends m, whose encoding must not be empty, to buf as a frame.
func Frame(buf []byte, m codec.Message) []byte {
	return seal(codec.MarshalAppend(append(buf, make([]byte, frameHdr)...), m), len(buf))
}

// seal fills in the header of the frame at buf[at:] from its body.
func seal(buf []byte, at int) []byte {
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-frameHdr))
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.Checksum(buf[at+frameHdr:], castagnoli))
	return buf
}

// file is what a Log needs of an *os.File, so a test can fail its calls.
type file interface {
	io.WriterAt
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// Log is an append-only file of frames, for one writer at a time.
type Log struct {
	disk     *Disk
	path     string
	f        file
	end      int64 // where the last acknowledged frame ends
	reserved int64 // the file's size as of the last reservation or cut
	broken   error // set when a failed append could not be cut off again
}

// OpenLog opens (or creates) the log at path and hands each whole frame's
// body, valid during the call only, to each in order. The file is cut at
// the first frame of length 0 (reserved space) or with a bad CRC (a torn
// write); an error from each fails the open, file untouched. A legacy log
// is cut at a short frame or an ErrCorrupt from each, then rewritten.
func (d *Disk) OpenLog(path string, each func(frame []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	var h [frameHdr]byte
	if _, rerr := f.ReadAt(h[:], 0); rerr != io.EOF {
		err = errors.Join(err, rerr)
	}
	legacy := size > 0 && string(h[:]) != header
	good, hdr := min(size, int64(len(header))), int64(frameHdr) // where the last accepted frame ends; its header's size
	if legacy {
		good, hdr = 0, 4
	}
	r := bufio.NewReader(io.NewSectionReader(f, good, size-good))
	var body, upgrade []byte
	for err == nil && size-good >= hdr {
		_, err = io.ReadFull(r, h[:hdr])
		n := int64(binary.LittleEndian.Uint32(h[:]))
		if err != nil || n == 0 || n > size-good-hdr {
			break // a read error, reserved space, or a write a crash tore
		}
		body = slices.Grow(body[:0], int(n))[:n]
		if _, err = io.ReadFull(r, body); err != nil || !legacy && crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(h[4:]) {
			break // a read error, a torn write, or stale bytes past the end
		}
		if err = each(body); err != nil {
			break
		}
		if legacy {
			upgrade = seal(append(append(upgrade, make([]byte, frameHdr)...), body...), len(upgrade))
		}
		good += hdr + n
	}
	l := &Log{disk: d, path: path, f: f, end: good, reserved: good}
	switch {
	case legacy && (err == nil || errors.Is(err, ErrCorrupt)):
		err = l.Rewrite(upgrade)
	case err == nil && good < size:
		err = f.Truncate(good)
	}
	if err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// Append adds frames with one fsync, into space reserved a step at a time.
// A failed write or fsync is cut off again: it is never replayed.
func (l *Log) Append(frames []byte) error {
	if l.broken != nil {
		return l.broken
	}
	if l.end == 0 { // a new log's header goes out with its first append
		frames = slices.Concat([]byte(header), frames)
	}
	end := l.end + int64(len(frames))
	_, err := l.f.WriteAt(frames, l.end)
	if err == nil && end > l.reserved && !l.disk.NoSync {
		l.reserved = end + step - end%step
		err = l.f.Truncate(l.reserved)
	}
	if err == nil {
		err = l.disk.sync(l.f)
	}
	if err != nil {
		if terr := l.trim(); terr != nil {
			l.broken = fmt.Errorf("durable: a failed append could not be cut off: %w", terr)
		}
		return err
	}
	l.end = end
	return nil
}

// trim cuts the file to its last good frame, dropping any reservation.
func (l *Log) trim() error {
	l.reserved = l.end
	return l.f.Truncate(l.end)
}

// Rewrite replaces the whole log with frames; the log stays usable.
func (l *Log) Rewrite(frames []byte) error {
	data := append([]byte(header), frames...)
	f, err := l.disk.replace(l.path, data)
	if f != nil {
		l.f.Close()
		l.f, l.end, l.reserved, l.broken = f, int64(len(data)), int64(len(data)), nil
	}
	return err
}

// Sync trims and fsyncs the log, NoSync or not: a durability point.
func (l *Log) Sync() error {
	l.disk.syncs.Add(1)
	return errors.Join(l.trim(), l.f.Sync())
}

// Close trims the log, leaving its file exactly its frames, and closes it.
func (l *Log) Close() error { return errors.Join(l.trim(), l.f.Close()) }

// Replace makes data the content of path, atomically and durably.
func (d *Disk) Replace(path string, data []byte) error {
	f, err := d.replace(path, data)
	if f != nil {
		err = errors.Join(err, f.Close())
	}
	return err
}

// replace is Replace keeping the file open. It returns the file once the
// rename is done, with the directory sync's error if any.
func (d *Disk) replace(path string, data []byte) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(data); err == nil {
		err = d.sync(f)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return f, d.syncDir(filepath.Dir(path))
}

// MkdirAll is os.MkdirAll that syncs each directory it creates into its
// parent, so that a crash cannot take the path back.
func (d *Disk) MkdirAll(dir string) error {
	err := os.Mkdir(dir, 0o755)
	if errors.Is(err, os.ErrNotExist) && d.MkdirAll(filepath.Dir(dir)) == nil {
		err = os.Mkdir(dir, 0o755)
	}
	if err == nil {
		err = d.syncDir(filepath.Dir(dir))
	} else if errors.Is(err, os.ErrExist) {
		err = nil
	}
	return err
}
