// Package remi is the REsource MIgration component (paper §6,
// Observations 4–5): it transfers the files backing a resource from
// one process to another, so that "the migration of a component can
// be reduced to the migration of its files to a new location".
//
// Two transfer methods are provided, matching the paper's design
// discussion:
//
//   - MethodBulk ("RDMA"): the source memory-maps each file (here:
//     registers the bytes it read as a bulk region) and the
//     destination pulls it in a single bulk operation per file —
//     efficient for large files.
//   - MethodChunked: the source streams fixed-size chunks over
//     pipelined RPCs, packing small files together — efficient for
//     many small files since chunks are pipelined and the per-file
//     handshake is amortized.
package remi

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mochi/internal/codec"
	"mochi/internal/mercury"
)

// Errors returned by the migration component.
var (
	ErrChecksum   = errors.New("remi: checksum mismatch after transfer")
	ErrBadFileSet = errors.New("remi: invalid fileset")
	ErrNoTransfer = errors.New("remi: unknown transfer id")
	ErrClosed     = errors.New("remi: provider closed")
)

// Method selects the transfer mechanism.
type Method uint8

const (
	// MethodBulk uses one RDMA-like bulk pull per file.
	MethodBulk Method = iota
	// MethodChunked streams pipelined chunk RPCs.
	MethodChunked
	// MethodAuto picks per fileset: bulk when the mean file size
	// exceeds AutoThreshold, chunked otherwise.
	MethodAuto
)

func (m Method) String() string {
	switch m {
	case MethodBulk:
		return "bulk"
	case MethodChunked:
		return "chunked"
	default:
		return "auto"
	}
}

// AutoThreshold is the mean-file-size crossover used by MethodAuto.
const AutoThreshold = 256 * 1024

// FileInfo describes one file inside a FileSet.
type FileInfo struct {
	// RelPath is the path relative to the fileset root. It must not
	// escape the root.
	RelPath string
	Size    int64
	CRC     uint32
	// Data is the file's content when REMI holds it in memory: on the
	// source, the bytes Size and CRC were computed from, which are the
	// bytes Migrate sends (a file is read once, and what arrives is
	// what was checksummed); on the destination, the bytes that arrived
	// and passed the CRC, so a MigratedCallback need not read them
	// back. Nil on the source means Migrate reads RelPath under Root.
	Data []byte
}

// FileSet names a set of files rooted at a directory, plus free-form
// metadata (REMI filesets carry the provider type and configuration
// needed to re-instantiate the resource at the destination).
type FileSet struct {
	// Class tags what kind of resource these files back (e.g. "yokan").
	Class string
	// Root is the directory the files live under. Empty marks an
	// in-memory fileset (see AddBytes): every entry carries its Data,
	// nothing is read from or written to disk on either side, and
	// RelPath is only a name.
	Root     string
	Files    []FileInfo
	Metadata map[string]string
}

// InMemory reports whether the fileset lives in memory only.
func (fs *FileSet) InMemory() bool { return fs.Root == "" }

// AddBytes appends data to an in-memory fileset as the entry named
// relPath. data is shared, not copied: it must stay unchanged until
// Migrate returns.
func (fs *FileSet) AddBytes(relPath string, data []byte) {
	fs.Files = append(fs.Files, FileInfo{
		RelPath: relPath,
		Size:    int64(len(data)),
		CRC:     crc32.ChecksumIEEE(data),
		Data:    data,
	})
}

// BuildFileSet reads the given absolute paths (all under root) into a
// FileSet, computing sizes and checksums. The fileset keeps what it
// read: it is a snapshot of the files as of this call.
func BuildFileSet(class, root string, paths []string, metadata map[string]string) (*FileSet, error) {
	fs := &FileSet{Class: class, Root: root, Metadata: metadata}
	for _, p := range paths {
		rel, err := filepath.Rel(root, p)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%w: %q not under root %q", ErrBadFileSet, p, root)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("remi: read %s: %w", p, err)
		}
		fs.Files = append(fs.Files, FileInfo{
			RelPath: rel,
			Size:    int64(len(data)),
			CRC:     crc32.ChecksumIEEE(data),
			Data:    data,
		})
	}
	return fs, nil
}

// TotalBytes returns the sum of file sizes.
func (fs *FileSet) TotalBytes() int64 {
	var n int64
	for _, f := range fs.Files {
		n += f.Size
	}
	return n
}

// validateRelPath rejects paths escaping the destination root.
func validateRelPath(rel string) error {
	if rel == "" || filepath.IsAbs(rel) {
		return fmt.Errorf("%w: bad path %q", ErrBadFileSet, rel)
	}
	clean := filepath.Clean(rel)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return fmt.Errorf("%w: path %q escapes root", ErrBadFileSet, rel)
	}
	return nil
}

// Wire messages.

const (
	rpcBegin = "remi_begin"
	rpcChunk = "remi_chunk"
	rpcEnd   = "remi_end"
)

type wireFile struct {
	RelPath string
	Size    int64
	CRC     uint32
	Bulk    mercury.BulkDescriptor // only for MethodBulk
}

type beginArgs struct {
	Method   uint8
	InMemory bool
	Class    string
	Meta     map[string]string
	Files    []wireFile
}

func (a *beginArgs) Proc(p *codec.Proc) {
	p.Uint8(&a.Method)
	p.Bool(&a.InMemory)
	p.String(&a.Class)
	procMeta(p, &a.Meta)
	codec.Slice(p, &a.Files, func(p *codec.Proc, f *wireFile) {
		p.String(&f.RelPath)
		p.Int64(&f.Size)
		p.Uint32(&f.CRC)
		f.Bulk.Proc(p)
	})
}

// procMeta carries the map as a list of (key, value) elements, sorted
// by key so that the same map is the same bytes every time.
func procMeta(p *codec.Proc, meta *map[string]string) {
	type entry struct{ k, v string }
	var entries []entry
	if !p.Decoding() {
		for k, v := range *meta {
			entries = append(entries, entry{k, v})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].k < entries[j].k })
	}
	codec.Slice(p, &entries, func(p *codec.Proc, e *entry) {
		p.String(&e.k)
		p.String(&e.v)
	})
	if p.Decoding() {
		*meta = make(map[string]string, len(entries))
		for _, e := range entries {
			(*meta)[e.k] = e.v
		}
	}
}

type beginReply struct {
	Status uint8
	Err    string
	XferID uint64
}

func (r *beginReply) Proc(p *codec.Proc) {
	p.Uint8(&r.Status)
	p.String(&r.Err)
	p.Uint64(&r.XferID)
}

// segment is one piece of one file; a chunk RPC carries several
// segments so that many small files can be "packed together into
// larger chunks" (§6, Observation 4).
type segment struct {
	FileIdx uint32
	Offset  int64
	Data    []byte
}

type chunkArgs struct {
	XferID   uint64
	Segments []segment
}

func (a *chunkArgs) Proc(p *codec.Proc) {
	p.Uint64(&a.XferID)
	codec.Slice(p, &a.Segments, func(p *codec.Proc, s *segment) {
		p.Uint32(&s.FileIdx)
		p.Int64(&s.Offset)
		p.BytesCopy(&s.Data)
	})
}

type endArgs struct {
	XferID uint64
}

func (a *endArgs) Proc(p *codec.Proc) { p.Uint64(&a.XferID) }

type statusReply struct {
	Status uint8
	Err    string
}

func (r *statusReply) Proc(p *codec.Proc) {
	p.Uint8(&r.Status)
	p.String(&r.Err)
}
