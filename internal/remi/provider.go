package remi

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"path/filepath"
	"sync"
	"time"

	"mochi/internal/argobots"
	"mochi/internal/codec"
	"mochi/internal/durable"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// MigratedCallback is invoked on the destination once a fileset has
// fully arrived, passed its checksums and, unless it is in-memory, been
// written durably under Root (each file replaced: temporary name,
// fsync, rename, directory fsync). It runs on the ULT of the handler
// that completed the fileset and under that handler's context (so
// spans it records join the migration's trace), before the source
// hears that the migration succeeded. Every entry carries the verified
// bytes in Data, valid until the callback returns (the provider
// receives the next fileset into the same memory).
// Bedrock uses it to instantiate a new provider over the received
// files (§6 Observation 5).
type MigratedCallback func(ctx context.Context, fs *FileSet)

// Provider is the destination side of migrations: it owns a root
// directory where incoming filesets are written.
type Provider struct {
	inst *margo.Instance
	id   uint16
	root string
	rpcs *margo.RPCSet
	disk durable.Disk

	mu       sync.Mutex
	xferSeq  uint64
	inflight map[uint64]*transfer // chunked transfers between Begin and End
	callback MigratedCallback
	closed   bool
	// spare is the largest receive buffer a finished migration handed
	// back: a provider that receives filesets of one size over and over
	// (a shard ping-ponging between two nodes) receives each into memory
	// it already owns.
	spare []byte
}

// transfer is a chunked transfer's fileset and the time its last Begin
// or Chunk arrived.
type transfer struct {
	*FileSet
	touched time.Time
}

// NewProvider creates a REMI provider writing incoming filesets under
// root. Its handlers run on pool (nil selects the instance's RPC
// pool): a bulk migration pulls, verifies and hands over the whole
// fileset inside one handler, so a node that must keep serving while
// it receives gives REMI a pool of its own.
func NewProvider(inst *margo.Instance, id uint16, pool *argobots.Pool, root string) (*Provider, error) {
	p := &Provider{inst: inst, id: id, root: root, inflight: map[uint64]*transfer{}}
	if err := p.disk.MkdirAll(root); err != nil {
		return nil, err
	}
	var err error
	p.rpcs, err = inst.RegisterSet(id, pool,
		margo.RPC{Name: rpcBegin, Handler: margo.Serve(p.handleBegin)},
		margo.RPC{Name: rpcChunk, Handler: margo.Serve(p.handleChunk)},
		margo.RPC{Name: rpcEnd, Handler: margo.Serve(p.handleEnd)},
	)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ID returns the provider ID.
func (p *Provider) ID() uint16 { return p.id }

// Root returns the directory receiving migrated files.
func (p *Provider) Root() string { return p.root }

// OnMigrated installs the completion callback.
func (p *Provider) OnMigrated(cb MigratedCallback) {
	p.mu.Lock()
	p.callback = cb
	p.mu.Unlock()
}

// Close deregisters the provider and abandons in-flight transfers.
func (p *Provider) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.inflight = map[uint64]*transfer{}
	p.mu.Unlock()
	p.rpcs.Close()
	return nil
}

// status is the reply of the chunk and end RPCs.
func status(err error) (codec.Message, error) {
	var r statusReply
	if err != nil {
		r.Status = 1
		r.Err = err.Error()
	}
	return &r, nil
}

// makeFileSet checks what a Begin declares and gives each entry a
// receive buffer of its declared size for its bytes to arrive in.
func (p *Provider) makeFileSet(args *beginArgs) (*FileSet, error) {
	switch m := Method(args.Method); {
	case m != MethodBulk && m != MethodChunked:
		return nil, errors.New("remi: begin with unresolved method")
	case m == MethodChunked && args.InMemory:
		return nil, errors.New("remi: chunked transfer of an in-memory fileset")
	}
	for _, wf := range args.Files {
		if err := validateRelPath(wf.RelPath); err != nil {
			return nil, err
		}
		if wf.Size < 0 {
			return nil, fmt.Errorf("%w: %q declares size %d", ErrBadFileSet, wf.RelPath, wf.Size)
		}
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	fs := &FileSet{Class: args.Class, Root: p.root, Metadata: args.Meta}
	if args.InMemory {
		fs.Root = ""
	}
	for _, wf := range args.Files {
		fs.Files = append(fs.Files, FileInfo{RelPath: wf.RelPath, Size: wf.Size, CRC: wf.CRC, Data: p.receiveBuffer(wf.Size)})
	}
	return fs, nil
}

// handleBegin starts a transfer. For MethodBulk the whole migration
// completes inside this handler: the destination pulls each exposed
// file in one bulk operation, then lands the fileset. Every Begin first
// drops the chunked transfers idle for longer than pullTimeout, whose
// receive buffers nothing else would free before Close.
func (p *Provider) handleBegin(ctx context.Context, _ *mercury.Handle, args *beginArgs) (codec.Message, error) {
	var reply beginReply
	now := p.inst.Clock().Now()
	p.mu.Lock()
	maps.DeleteFunc(p.inflight, func(_ uint64, x *transfer) bool { return now.Sub(x.touched) > pullTimeout })
	p.mu.Unlock()
	fs, err := p.makeFileSet(args)
	switch {
	case err != nil:
	case Method(args.Method) == MethodChunked:
		p.mu.Lock()
		p.xferSeq++
		reply.XferID = p.xferSeq
		p.inflight[p.xferSeq] = &transfer{fs, now}
		p.mu.Unlock()
	default:
		if err = p.pullAll(ctx, args, fs); err == nil {
			err = p.land(ctx, fs)
		}
		p.recycle(fs)
	}
	if err != nil {
		reply.Status, reply.Err = 1, err.Error()
	}
	return &reply, nil
}

// pullTimeout bounds one destination-side bulk pull when the handler
// context carries no deadline of its own. Handler contexts normally
// don't: without this bound, a lost bulk frame would park the handler
// forever — and with it the execution stream of the pool the provider
// was registered on, so one wedged pull starves every later migration
// into this provider (and, on the default RPC pool, every other RPC
// on the node). It also bounds a chunked transfer's idle time.
const pullTimeout = 10 * time.Second

// pullAll pulls each file into its receive buffer. It runs under the
// handler context so the bulk pulls inherit its trace context (each
// transfer records a bulk phase span when sampled).
func (p *Provider) pullAll(ctx context.Context, args *beginArgs, fs *FileSet) error {
	for i, wf := range args.Files {
		local := p.inst.Class().CreateBulk(fs.Files[i].Data, mercury.BulkReadWrite)
		pctx := ctx
		var cancel context.CancelFunc
		if _, ok := ctx.Deadline(); !ok {
			pctx, cancel = context.WithTimeout(ctx, pullTimeout)
		}
		err := p.inst.Class().BulkTransfer(pctx, mercury.BulkPull, wf.Bulk, 0, local, 0, uint64(wf.Size))
		if cancel != nil {
			cancel()
		}
		local.Free()
		if err != nil {
			return fmt.Errorf("remi: bulk pull of %s: %w", wf.RelPath, err)
		}
	}
	return nil
}

// land finishes a migration, whichever method carried it: every entry
// must match its checksum before any is written, an on-disk fileset is
// then replaced file by file under Root, and only then does the
// callback see it. The handler replies after land returns, so a source
// that hears "migrated" knows the files are durable here.
func (p *Provider) land(ctx context.Context, fs *FileSet) error {
	for _, fi := range fs.Files {
		if crc32.ChecksumIEEE(fi.Data) != fi.CRC {
			return fmt.Errorf("%w: %s", ErrChecksum, fi.RelPath)
		}
	}
	for _, fi := range fs.Files {
		if fs.InMemory() {
			break
		}
		dst := filepath.Join(fs.Root, fi.RelPath)
		if err := p.disk.MkdirAll(filepath.Dir(dst)); err != nil {
			return err
		}
		if err := p.disk.Replace(dst, fi.Data); err != nil {
			return err
		}
	}
	p.mu.Lock()
	cb := p.callback
	p.mu.Unlock()
	if cb != nil {
		cb(ctx, fs)
	}
	return nil
}

// receiveBuffer returns n bytes to receive a file into: the spare
// buffer if it is large enough, else fresh memory.
func (p *Provider) receiveBuffer(n int64) []byte {
	p.mu.Lock()
	buf := p.spare
	p.spare = nil
	p.mu.Unlock()
	if int64(cap(buf)) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// maxSpare bounds the receive buffer a provider keeps between
// migrations, so that one huge fileset does not pin its size forever.
const maxSpare = 64 << 20

// recycle keeps the largest receive buffer (up to maxSpare) of a
// fileset whose callback has returned, or that failed, as the next
// spare.
func (p *Provider) recycle(fs *FileSet) {
	p.mu.Lock()
	for i := range fs.Files {
		if c := cap(fs.Files[i].Data); c > cap(p.spare) && c <= maxSpare {
			p.spare = fs.Files[i].Data
		}
		fs.Files[i].Data = nil
	}
	p.mu.Unlock()
}

// handleChunk copies each segment into its file's receive buffer. It
// holds the lock while it copies, so no segment lands once End has
// taken the transfer.
func (p *Provider) handleChunk(_ context.Context, _ *mercury.Handle, args *chunkArgs) (codec.Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fs, ok := p.inflight[args.XferID]
	if !ok {
		return status(ErrNoTransfer)
	}
	fs.touched = p.inst.Clock().Now()
	for _, seg := range args.Segments {
		if int(seg.FileIdx) >= len(fs.Files) || seg.Offset < 0 || seg.Offset > fs.Files[seg.FileIdx].Size-int64(len(seg.Data)) {
			return status(fmt.Errorf("%w: %d bytes at offset %d of file %d", ErrBadFileSet, len(seg.Data), seg.Offset, seg.FileIdx))
		}
		copy(fs.Files[seg.FileIdx].Data[seg.Offset:], seg.Data)
	}
	return status(nil)
}

func (p *Provider) handleEnd(ctx context.Context, _ *mercury.Handle, args *endArgs) (codec.Message, error) {
	p.mu.Lock()
	fs, ok := p.inflight[args.XferID]
	delete(p.inflight, args.XferID)
	p.mu.Unlock()
	if !ok {
		return status(ErrNoTransfer)
	}
	err := p.land(ctx, fs.FileSet)
	p.recycle(fs.FileSet)
	return status(err)
}
