package remi

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mochi/internal/argobots"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// MigratedCallback is invoked on the destination once a fileset has
// fully arrived and verified, on the ULT of the handler that completed
// it and under that handler's context (so spans it records join the
// migration's trace). Every entry carries the verified bytes in Data,
// valid until the callback returns (the provider receives the next
// fileset into the same memory); unless the fileset is in-memory they
// are also on disk under Root.
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

	mu       sync.Mutex
	xferSeq  uint64
	inflight map[uint64]*incoming
	callback MigratedCallback
	closed   bool
	// spare is the largest receive buffer a finished bulk migration
	// handed back: a provider that receives filesets of one size over
	// and over (a shard ping-ponging between two nodes) pulls each into
	// memory it already owns.
	spare []byte
}

type incoming struct {
	fs    *FileSet
	files []*os.File
}

// NewProvider creates a REMI provider writing incoming filesets under
// root. Its handlers run on pool (nil selects the instance's RPC
// pool): a bulk migration pulls, verifies and hands over the whole
// fileset inside one handler, so a node that must keep serving while
// it receives gives REMI a pool of its own.
func NewProvider(inst *margo.Instance, id uint16, pool *argobots.Pool, root string) (*Provider, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	p := &Provider{inst: inst, id: id, root: root, inflight: map[uint64]*incoming{}}
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
	for _, in := range p.inflight {
		for _, f := range in.files {
			if f != nil {
				f.Close()
			}
		}
	}
	p.inflight = map[uint64]*incoming{}
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

func (p *Provider) makeFileSet(args *beginArgs) (*FileSet, error) {
	fs := &FileSet{Class: args.Class, Root: p.root, Metadata: args.Meta}
	if args.InMemory {
		fs.Root = ""
	}
	for _, wf := range args.Files {
		if err := validateRelPath(wf.RelPath); err != nil {
			return nil, err
		}
		fs.Files = append(fs.Files, FileInfo{RelPath: wf.RelPath, Size: wf.Size, CRC: wf.CRC})
	}
	return fs, nil
}

// handleBegin starts a transfer. For MethodBulk the whole migration
// completes inside this handler: the destination pulls each exposed
// file in one bulk operation, verifies it, and writes it out.
func (p *Provider) handleBegin(ctx context.Context, _ *mercury.Handle, args *beginArgs) (codec.Message, error) {
	var reply beginReply
	fs, err := p.makeFileSet(args)
	if err == nil {
		switch {
		case Method(args.Method) == MethodBulk:
			if err = p.pullAll(ctx, args, fs); err == nil {
				p.notify(ctx, fs)
			}
			p.recycle(fs)
		case Method(args.Method) != MethodChunked:
			err = errors.New("remi: begin with unresolved method")
		case fs.InMemory():
			err = errors.New("remi: chunked transfer of an in-memory fileset")
		default:
			reply.XferID, err = p.beginChunked(fs)
		}
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
// on the node).
const pullTimeout = 10 * time.Second

// pullAll runs under the handler context so the bulk pulls inherit its
// trace context (each transfer records a bulk phase span when sampled).
func (p *Provider) pullAll(ctx context.Context, args *beginArgs, fs *FileSet) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrClosed
	}
	for i, wf := range args.Files {
		// The region the pull fills is the buffer that is checksummed,
		// written out and handed to the callback.
		buf := p.receiveBuffer(wf.Size)
		fs.Files[i].Data = buf
		local := p.inst.Class().CreateBulk(buf, mercury.BulkReadWrite)
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
		if crc32.ChecksumIEEE(buf) != wf.CRC {
			return fmt.Errorf("%w: %s", ErrChecksum, wf.RelPath)
		}
		if fs.InMemory() {
			continue
		}
		dst := filepath.Join(p.root, wf.RelPath)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(dst, buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// receiveBuffer returns n bytes to pull a file into: the spare buffer
// if it is large enough, else fresh memory.
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

func (p *Provider) beginChunked(fs *FileSet) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	in := &incoming{fs: fs, files: make([]*os.File, len(fs.Files))}
	for i, fi := range fs.Files {
		dst := filepath.Join(p.root, fi.RelPath)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return 0, err
		}
		f, err := os.Create(dst)
		if err != nil {
			return 0, err
		}
		if err := f.Truncate(fi.Size); err != nil {
			f.Close()
			return 0, err
		}
		in.files[i] = f
	}
	p.xferSeq++
	p.inflight[p.xferSeq] = in
	return p.xferSeq, nil
}

func (p *Provider) handleChunk(_ context.Context, _ *mercury.Handle, args *chunkArgs) (codec.Message, error) {
	p.mu.Lock()
	in, ok := p.inflight[args.XferID]
	p.mu.Unlock()
	if !ok {
		return status(ErrNoTransfer)
	}
	for _, seg := range args.Segments {
		if int(seg.FileIdx) >= len(in.files) {
			return status(fmt.Errorf("%w: file index %d", ErrBadFileSet, seg.FileIdx))
		}
		if _, err := in.files[seg.FileIdx].WriteAt(seg.Data, seg.Offset); err != nil {
			return status(err)
		}
	}
	return status(nil)
}

func (p *Provider) handleEnd(ctx context.Context, _ *mercury.Handle, args *endArgs) (codec.Message, error) {
	p.mu.Lock()
	in, ok := p.inflight[args.XferID]
	delete(p.inflight, args.XferID)
	p.mu.Unlock()
	if !ok {
		return status(ErrNoTransfer)
	}
	// Verify checksums. Durability policy is the receiving provider's
	// concern (it flushes when it adopts the files), so no per-file
	// fsync here — the bulk path behaves the same way.
	var err error
	for i, fi := range in.fs.Files {
		f := in.files[i]
		f.Close()
		data, rerr := os.ReadFile(filepath.Join(p.root, fi.RelPath))
		if rerr != nil && err == nil {
			err = rerr
		}
		if rerr == nil && crc32.ChecksumIEEE(data) != fi.CRC && err == nil {
			err = fmt.Errorf("%w: %s", ErrChecksum, fi.RelPath)
		}
		in.fs.Files[i].Data = data
	}
	if err == nil {
		p.notify(ctx, in.fs)
	}
	return status(err)
}

func (p *Provider) notify(ctx context.Context, fs *FileSet) {
	p.mu.Lock()
	cb := p.callback
	p.mu.Unlock()
	if cb != nil {
		cb(ctx, fs)
	}
}
