package yokan

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"mochi/internal/codec"
	"mochi/internal/durable"
)

// logDB is the persistent backend: an append-only log of put/erase
// records (a durable.Log) indexed by an in-memory skip list. Opening
// replays the log; Compact rewrites it to only live records. This is
// the backend whose files REMI migrates and whose checkpoints land on
// the "parallel file system" (§7, Observation 9).
//
// Writes go through group commit: concurrent writers enqueue their
// records into a shared batch and the first of them (the leader)
// writes every record with one file write and one fsync, then applies
// the index updates in enqueue order and wakes the batch. While a
// leader is inside the commit, later writers form the next batch, so
// under load the fsync cost is amortised over the whole convoy. With
// no_sync there is no fsync to amortise, so writers skip the batch
// machinery and commit one at a time under commitMu (same
// commitLocked, identical semantics). Reads never queue behind a
// commit — they go straight to the internally locked index.
type logDB struct {
	path string
	disk durable.Disk

	index  *skipDB
	closed atomic.Bool

	// batchMu guards the forming batch only; it is never held across
	// I/O.
	batchMu sync.Mutex
	pending *logBatch

	// commitMu serializes commits, compaction, flush, and file
	// lifecycle.
	commitMu sync.Mutex
	log      *durable.Log
	// garbage counts dead records; Compact resets it.
	garbage int
	// frame is the commit staging buffer, reused across batches.
	frame []byte
}

const (
	logOpPut   = 0
	logOpErase = 1
)

type logRecord struct {
	op    uint8 // 0 put, 1 erase
	key   []byte
	value []byte
}

func (r *logRecord) Proc(p *codec.Proc) {
	p.Uint8(&r.op)
	p.BytesCopy(&r.key)
	p.BytesCopy(&r.value)
}

// logOp is one queued mutation, framed as its record. The key/value
// slices are borrowed from the caller, which stays blocked until the
// batch commits, so the leader may read them without copying; the
// index copies on apply.
type logOp struct {
	logRecord
	err error
}

// logBatch is one group commit in formation. done closes after the
// leader has written, synced, applied, and filled every op's err.
type logBatch struct {
	ops  []*logOp
	done chan struct{}
}

func openLogDB(path string, noSync bool) (*logDB, error) {
	d := &logDB{path: path, disk: durable.Disk{NoSync: noSync}, index: newSkipDB()}
	log, err := d.disk.OpenLog(path, d.replay)
	if err != nil {
		return nil, fmt.Errorf("yokan: open log: %w", err)
	}
	d.log = log
	return d, nil
}

// replay applies one record of the log to the index.
func (d *logDB) replay(frame []byte) error {
	var rec logRecord
	if codec.Unmarshal(frame, &rec) != nil {
		return durable.ErrCorrupt
	}
	switch rec.op {
	case logOpPut:
		if ok, _ := d.index.Exists(rec.key); ok {
			d.garbage++
		}
		return d.index.Put(rec.key, rec.value)
	case logOpErase:
		d.garbage += 2
		if err := d.index.Erase(rec.key); err != nil && err != ErrKeyNotFound {
			return err
		}
	}
	return nil
}

// enqueue joins ops to the forming batch, reporting whether the
// caller became its leader.
func (d *logDB) enqueue(ops ...*logOp) (*logBatch, bool) {
	d.batchMu.Lock()
	b := d.pending
	leader := b == nil
	if leader {
		b = &logBatch{done: make(chan struct{})}
		d.pending = b
	}
	b.ops = append(b.ops, ops...)
	d.batchMu.Unlock()
	return b, leader
}

// lead runs one group commit: wait out the previous commit (the batch
// keeps absorbing writers meanwhile), detach the batch, then write +
// sync + apply under commitMu.
func (d *logDB) lead(b *logBatch) {
	d.commitMu.Lock()
	d.batchMu.Lock()
	if d.pending == b {
		d.pending = nil
	}
	d.batchMu.Unlock()
	d.commitLocked(b)
	d.commitMu.Unlock()
	close(b.done)
}

// commitLocked decides each op's outcome, writes all surviving
// records with one write + one fsync, and applies them to the index
// in enqueue order. Caller holds commitMu.
func (d *logDB) commitLocked(b *logBatch) {
	if d.closed.Load() {
		for _, op := range b.ops {
			op.err = ErrClosed
		}
		return
	}
	// overlay tracks presence changes made by earlier ops in this
	// batch, so within-batch sequences (put then erase of the same
	// key) resolve exactly as they would serially.
	var overlay map[string]bool
	exists := func(key []byte) bool {
		if overlay != nil {
			if present, ok := overlay[string(key)]; ok {
				return present
			}
		}
		ok, _ := d.index.Exists(key)
		return ok
	}
	note := func(key []byte, present bool) {
		if overlay == nil {
			overlay = make(map[string]bool, len(b.ops))
		}
		overlay[string(key)] = present
	}
	buf := d.frame[:0]
	accepted := 0
	for _, op := range b.ops {
		put := op.op == logOpPut
		switch present := exists(op.key); {
		case put && present:
			d.garbage++ // overwritten record becomes dead
		case !put && !present:
			op.err = ErrKeyNotFound
			continue
		case !put:
			d.garbage += 2 // the put and the tombstone
		}
		note(op.key, put)
		buf = durable.Frame(buf, &op.logRecord)
		accepted++
	}
	d.frame = buf[:0]
	if accepted == 0 {
		return
	}
	if err := d.log.Append(buf); err != nil {
		ioErr := fmt.Errorf("yokan: log append: %w", err)
		for _, op := range b.ops {
			if op.err == nil {
				op.err = ioErr
			}
		}
		return
	}
	for _, op := range b.ops {
		if op.err != nil {
			continue
		}
		switch op.op {
		case logOpPut:
			op.err = d.index.Put(op.key, op.value)
		case logOpErase:
			if err := d.index.Erase(op.key); err != nil && err != ErrKeyNotFound {
				op.err = err
			}
		}
	}
}

// run pushes ops through a group commit (serially when there is no
// fsync to share) and returns the first op's error.
func (d *logDB) run(ops ...*logOp) error {
	if d.disk.NoSync {
		d.commitMu.Lock()
		b := logBatch{ops: ops}
		d.commitLocked(&b)
		d.commitMu.Unlock()
	} else {
		b, leader := d.enqueue(ops...)
		if leader {
			d.lead(b)
		} else {
			<-b.done
		}
	}
	for _, op := range ops {
		if op.err != nil {
			return op.err
		}
	}
	return nil
}

func (d *logDB) Put(key, value []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if d.closed.Load() {
		return ErrClosed
	}
	op := logOp{logRecord: logRecord{op: logOpPut, key: key, value: value}}
	return d.run(&op)
}

// PutMulti implements BatchWriter: the whole batch rides one group
// commit — one log write, one fsync — instead of len(pairs) of each.
func (d *logDB) PutMulti(pairs []KeyValue) error {
	if len(pairs) == 0 {
		return nil
	}
	if d.closed.Load() {
		return ErrClosed
	}
	ops := make([]logOp, len(pairs))
	ptrs := make([]*logOp, len(pairs))
	for i, kv := range pairs {
		if len(kv.Key) == 0 {
			return ErrEmptyKey
		}
		ops[i] = logOp{logRecord: logRecord{op: logOpPut, key: kv.Key, value: kv.Value}}
		ptrs[i] = &ops[i]
	}
	return d.run(ptrs...)
}

func (d *logDB) Erase(key []byte) error {
	if len(key) == 0 {
		return ErrKeyNotFound
	}
	if d.closed.Load() {
		return ErrClosed
	}
	op := logOp{logRecord: logRecord{op: logOpErase, key: key}}
	return d.run(&op)
}

func (d *logDB) Get(key []byte) ([]byte, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	return d.index.Get(key)
}

func (d *logDB) Exists(key []byte) (bool, error) {
	if d.closed.Load() {
		return false, ErrClosed
	}
	return d.index.Exists(key)
}

func (d *logDB) Count() (int, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	return d.index.Count()
}

func (d *logDB) ListKeys(fromKey, prefix []byte, max int) ([][]byte, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	return d.index.ListKeys(fromKey, prefix, max)
}

func (d *logDB) ListKeyValues(fromKey, prefix []byte, max int) ([]KeyValue, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	return d.index.ListKeyValues(fromKey, prefix, max)
}

func (d *logDB) Flush() error {
	if d.closed.Load() {
		return ErrClosed
	}
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	return d.log.Sync()
}

// Garbage reports the number of dead records in the log.
func (d *logDB) Garbage() int {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	return d.garbage
}

// Compact rewrites the log keeping only live pairs.
func (d *logDB) Compact() error {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	kvs, err := d.index.ListKeyValues(nil, nil, 0)
	if err != nil {
		return err
	}
	var frames []byte
	for _, kv := range kvs {
		frames = durable.Frame(frames, &logRecord{op: logOpPut, key: kv.Key, value: kv.Value})
	}
	if err := d.log.Rewrite(frames); err != nil {
		return err
	}
	d.garbage = 0
	return nil
}

func (d *logDB) Files() []string {
	return []string{d.path}
}

func (d *logDB) Close() error {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	if d.closed.Swap(true) {
		return nil
	}
	return d.log.Close()
}

func (d *logDB) Destroy() error {
	if err := d.Close(); err != nil {
		return err
	}
	return os.Remove(d.path)
}
