// Package durable is where the stores' bytes meet the disk: a framed log
// that after any crash or failed call holds exactly the frames whose
// appends succeeded, and a replace that leaves the old content or the new.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"mochi/internal/codec"
)

// ErrCorrupt is what a reader hands OpenLog for a frame it cannot decode.
var ErrCorrupt = errors.New("durable: corrupt frame")

// Disk writes logs and replaced files; with NoSync it never fsyncs but
// for Log.Sync. A Disk must not be copied after first use.
type Disk struct {
	NoSync bool
	syncs  atomic.Uint64
}

// Syncs returns how many fsyncs d has issued, directories included.
func (d *Disk) Syncs() uint64 { return d.syncs.Load() }

func (d *Disk) sync(f file) error {
	if d.NoSync {
		return nil
	}
	d.syncs.Add(1)
	return f.Sync()
}

// Frame appends m to buf as a log holds it: a 4-byte little-endian
// length, then m's encoding.
func Frame(buf []byte, m codec.Message) []byte {
	at := len(buf)
	buf = codec.MarshalAppend(append(buf, 0, 0, 0, 0), m)
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	return buf
}

// file is what a Log needs of an *os.File, so a test can fail its syncs.
type file interface {
	io.WriteCloser
	Sync() error
	Truncate(size int64) error
}

// Log is an append-only file of frames, for one writer at a time.
type Log struct {
	disk   *Disk
	path   string
	f      file
	size   int64 // the file's length with every acknowledged append in it
	broken error // set when a failed append could not be cut off again
}

// OpenLog opens (or creates) the log at path and hands each whole frame's
// body, valid during the call only, to each in order. The file is cut at
// the first frame that is short (a write a crash tore) or that each
// refuses with ErrCorrupt; any other error fails the open, file untouched.
func (d *Disk) OpenLog(path string, each func(frame []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	r := bufio.NewReader(io.NewSectionReader(f, 0, size))
	var good int64 // where the last accepted frame ends
	var hdr [4]byte
	var body []byte
	for err == nil && size-good >= 4 {
		_, err = io.ReadFull(r, hdr[:])
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if err != nil || n > size-good-4 {
			break // a read error, or a write a crash tore
		}
		body = slices.Grow(body[:0], int(n))[:n]
		if _, err = io.ReadFull(r, body); err == nil {
			err = each(body)
		}
		if err == nil {
			good += 4 + n
		}
	}
	if errors.Is(err, ErrCorrupt) || err == nil && good < size {
		err = f.Truncate(good)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{disk: d, path: path, f: f, size: good}, nil
}

// Append adds frames with one write and one fsync. If either fails the
// file is cut back to its last good size: a failed append is never
// replayed, and the next one follows the last good frame.
func (l *Log) Append(frames []byte) error {
	if l.broken != nil {
		return l.broken
	}
	_, err := l.f.Write(frames)
	if err == nil {
		err = l.disk.sync(l.f)
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("durable: a failed append could not be cut off: %w", terr)
		}
		return err
	}
	l.size += int64(len(frames))
	return nil
}

// Rewrite replaces the whole log with frames; the log stays usable.
func (l *Log) Rewrite(frames []byte) error {
	f, err := l.disk.replace(l.path, frames)
	if f != nil {
		l.f.Close()
		l.f, l.size, l.broken = f, int64(len(frames)), nil
	}
	return err
}

// Sync fsyncs the log, NoSync or not: it is an explicit durability point.
func (l *Log) Sync() error {
	l.disk.syncs.Add(1)
	return l.f.Sync()
}

// Close closes the log's file.
func (l *Log) Close() error { return l.f.Close() }

// Replace makes data the content of path, atomically and durably.
func (d *Disk) Replace(path string, data []byte) error {
	f, err := d.replace(path, data)
	if f != nil {
		err = errors.Join(err, f.Close())
	}
	return err
}

// replace is Replace keeping the file open for appends. It returns the
// file once the rename is done, with the directory sync's error if any.
func (d *Disk) replace(path string, data []byte) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
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
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = d.sync(dir)
		dir.Close()
	}
	return f, err
}
