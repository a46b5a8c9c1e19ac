package remi

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// Options tune a migration.
type Options struct {
	// Method selects the transfer path; MethodAuto decides per fileset.
	Method Method
	// ChunkSize is the chunk RPC payload size (default 64 KiB).
	ChunkSize int
	// Pipeline is the number of chunk RPCs kept in flight (default 8).
	Pipeline int
}

func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 64 * 1024
	}
	if o.Pipeline <= 0 {
		o.Pipeline = 8
	}
	return o
}

// Stats reports what a migration did.
type Stats struct {
	Method   Method
	Files    int
	Bytes    int64
	Chunks   int
	Duration time.Duration
}

// Client is the source side of migrations.
type Client struct {
	inst *margo.Instance
}

// NewClient creates a migration client.
func NewClient(inst *margo.Instance) *Client {
	return &Client{inst: inst}
}

// Migrate transfers fs to the REMI provider at (addr, providerID). It
// returns once the destination has verified the fileset, written it
// durably (unless it is in-memory) and run its callback; fs's files are
// left in place.
func (c *Client) Migrate(ctx context.Context, addr string, providerID uint16, fs *FileSet, opts Options) (Stats, error) {
	opts = opts.withDefaults()
	start := c.inst.Clock().Now()
	method := opts.Method
	if method == MethodAuto {
		if fs.InMemory() || len(fs.Files) == 0 || fs.TotalBytes()/int64(max(len(fs.Files), 1)) >= AutoThreshold {
			method = MethodBulk
		} else {
			method = MethodChunked
		}
	}
	if fs.InMemory() {
		if method != MethodBulk {
			return Stats{}, fmt.Errorf("%w: an in-memory fileset moves by %s only", ErrBadFileSet, MethodBulk)
		}
		for _, fi := range fs.Files {
			if fi.Data == nil && fi.Size != 0 {
				return Stats{}, fmt.Errorf("%w: in-memory entry %q carries no data", ErrBadFileSet, fi.RelPath)
			}
		}
	}
	var (
		stats Stats
		err   error
	)
	switch method {
	case MethodBulk:
		stats, err = c.migrateBulk(ctx, addr, providerID, fs)
	case MethodChunked:
		stats, err = c.migrateChunked(ctx, addr, providerID, fs, opts)
	default:
		return Stats{}, fmt.Errorf("remi: unknown method %v", method)
	}
	if err != nil {
		return stats, err
	}
	stats.Duration = c.inst.Clock().Since(start)
	return stats, nil
}

// sourceData returns the content of one fileset entry: the bytes the
// fileset already holds, else the file.
func sourceData(fs *FileSet, fi *FileInfo) ([]byte, error) {
	if fi.Data != nil || fs.InMemory() {
		return fi.Data, nil
	}
	data, err := os.ReadFile(filepath.Join(fs.Root, fi.RelPath))
	if err != nil {
		return nil, fmt.Errorf("remi: read %s: %w", fi.RelPath, err)
	}
	return data, nil
}

// begin opens a transfer at the destination and returns its ID.
func (c *Client) begin(ctx context.Context, addr string, providerID uint16, args *beginArgs) (uint64, error) {
	var reply beginReply
	if err := c.inst.Call(ctx, addr, rpcBegin, providerID, args, &reply); err != nil {
		return 0, err
	}
	if reply.Status != 0 {
		return 0, fmt.Errorf("remi: destination error: %s", reply.Err)
	}
	return reply.XferID, nil
}

// migrateBulk registers each file's bytes as a bulk region and lets
// the destination pull them ("memory mapping the files and using RDMA
// to transfer the data").
func (c *Client) migrateBulk(ctx context.Context, addr string, providerID uint16, fs *FileSet) (Stats, error) {
	args := beginArgs{Method: uint8(MethodBulk), InMemory: fs.InMemory(), Class: fs.Class, Meta: fs.Metadata}
	var bulks []*mercury.Bulk
	defer func() {
		for _, b := range bulks {
			b.Free()
		}
	}()
	var total int64
	for i := range fs.Files {
		fi := &fs.Files[i]
		data, err := sourceData(fs, fi)
		if err != nil {
			return Stats{}, err
		}
		b := c.inst.Class().CreateBulk(data, mercury.BulkReadOnly)
		bulks = append(bulks, b)
		args.Files = append(args.Files, wireFile{
			RelPath: fi.RelPath,
			Size:    int64(len(data)),
			CRC:     fi.CRC,
			Bulk:    b.Descriptor(),
		})
		total += int64(len(data))
	}
	if _, err := c.begin(ctx, addr, providerID, &args); err != nil {
		return Stats{}, err
	}
	return Stats{Method: MethodBulk, Files: len(fs.Files), Bytes: total}, nil
}

// migrateChunked streams the files as pipelined chunk RPCs.
func (c *Client) migrateChunked(ctx context.Context, addr string, providerID uint16, fs *FileSet, opts Options) (Stats, error) {
	args := beginArgs{Method: uint8(MethodChunked), Class: fs.Class, Meta: fs.Metadata}
	for _, fi := range fs.Files {
		args.Files = append(args.Files, wireFile{RelPath: fi.RelPath, Size: fi.Size, CRC: fi.CRC})
	}
	xfer, err := c.begin(ctx, addr, providerID, &args)
	if err != nil {
		return Stats{}, err
	}

	sem := make(chan struct{}, opts.Pipeline)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var total int64
	chunks := 0

	send := func(segs []segment) {
		defer wg.Done()
		defer func() { <-sem }()
		var r statusReply
		err := c.inst.Call(ctx, addr, rpcChunk, providerID, &chunkArgs{XferID: xfer, Segments: segs}, &r)
		if err == nil && r.Status != 0 {
			err = fmt.Errorf("remi: chunk rejected: %s", r.Err)
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	}

	// Pack segments into chunks of up to ChunkSize bytes — small files
	// share chunks ("packed together into larger chunks"), large files
	// are split — and pipeline the chunk RPCs.
	var pending []segment
	pendingBytes := 0
	flush := func() bool {
		if len(pending) == 0 {
			return true
		}
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			return false
		}
		sem <- struct{}{}
		wg.Add(1)
		chunks++
		go send(pending)
		pending = nil
		pendingBytes = 0
		return true
	}
loop:
	for idx := range fs.Files {
		data, err := sourceData(fs, &fs.Files[idx])
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			break
		}
		total += int64(len(data))
		for off := 0; off < len(data); {
			room := opts.ChunkSize - pendingBytes
			if room <= 0 {
				if !flush() {
					break loop
				}
				continue
			}
			end := off + room
			if end > len(data) {
				end = len(data)
			}
			pending = append(pending, segment{FileIdx: uint32(idx), Offset: int64(off), Data: data[off:end]})
			pendingBytes += end - off
			off = end
		}
		// A zero-length file sends no segment: the destination lands
		// it from the size Begin declared.
	}
	flush()
	wg.Wait()
	if firstErr != nil {
		return Stats{Method: MethodChunked}, firstErr
	}

	var er statusReply
	if err := c.inst.Call(ctx, addr, rpcEnd, providerID, &endArgs{XferID: xfer}, &er); err != nil {
		return Stats{}, err
	}
	if er.Status != 0 {
		return Stats{}, fmt.Errorf("remi: finalize failed: %s", er.Err)
	}
	return Stats{Method: MethodChunked, Files: len(fs.Files), Bytes: total, Chunks: chunks}, nil
}
