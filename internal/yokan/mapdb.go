package yokan

import (
	"bytes"
	"runtime"
	"sort"
	"sync"
)

// mapDB is the unordered in-memory backend.
type mapDB struct {
	mu     sync.RWMutex
	m      map[string][]byte
	closed bool
}

func newMapDB() *mapDB {
	return &mapDB{m: map[string][]byte{}}
}

func (d *mapDB) Put(key, value []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	// Same-length overwrite reuses the stored buffer in place: Get
	// hands out copies, so nothing outside the lock aliases it, and
	// the steady-state overwrite path allocates nothing.
	if old, ok := d.m[string(key)]; ok && len(old) == len(value) {
		copy(old, value)
		return nil
	}
	d.m[string(key)] = append([]byte(nil), value...)
	return nil
}

func (d *mapDB) Get(key []byte) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, ErrClosed
	}
	v, ok := d.m[string(key)]
	if !ok {
		return nil, ErrKeyNotFound
	}
	return append([]byte(nil), v...), nil
}

// testHookScan, when non-nil, runs between Scan's key collection and
// its first value fetch.
var testHookScan func()

// Scan implements scanner. A Go map cannot be iterated in resumable
// pages, so the keys are collected under one read lock (the strings
// are shared with the map, not copied) and each pair is then visited
// under a read lock of its own, straight from the stored bytes.
func (d *mapDB) Scan(fn func(key, value []byte)) error {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return ErrClosed
	}
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		keys = append(keys, k)
	}
	d.mu.RUnlock()
	if testHookScan != nil {
		testHookScan()
	}
	var kb []byte
	for i, k := range keys {
		if i%scanPage == scanPage-1 {
			runtime.Gosched() // see Scan: bounded steps of the processor too
		}
		d.mu.RLock()
		if d.closed {
			d.mu.RUnlock()
			return ErrClosed
		}
		if v, ok := d.m[k]; ok {
			kb = append(kb[:0], k...)
			fn(kb, v)
		}
		d.mu.RUnlock()
	}
	return nil
}

func (d *mapDB) Erase(key []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if _, ok := d.m[string(key)]; !ok {
		return ErrKeyNotFound
	}
	delete(d.m, string(key))
	return nil
}

func (d *mapDB) Exists(key []byte) (bool, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return false, ErrClosed
	}
	_, ok := d.m[string(key)]
	return ok, nil
}

func (d *mapDB) Count() (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return 0, ErrClosed
	}
	return len(d.m), nil
}

func (d *mapDB) sortedKeys(fromKey, prefix []byte) []string {
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		if len(prefix) > 0 && !bytes.HasPrefix([]byte(k), prefix) {
			continue
		}
		if fromKey != nil && k <= string(fromKey) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (d *mapDB) ListKeys(fromKey, prefix []byte, max int) ([][]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, ErrClosed
	}
	var out [][]byte
	for _, k := range d.sortedKeys(fromKey, prefix) {
		if max > 0 && len(out) >= max {
			break
		}
		out = append(out, []byte(k))
	}
	return out, nil
}

func (d *mapDB) ListKeyValues(fromKey, prefix []byte, max int) ([]KeyValue, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, ErrClosed
	}
	var out []KeyValue
	for _, k := range d.sortedKeys(fromKey, prefix) {
		if max > 0 && len(out) >= max {
			break
		}
		out = append(out, KeyValue{Key: []byte(k), Value: append([]byte(nil), d.m[k]...)})
	}
	return out, nil
}

func (d *mapDB) Flush() error { return nil }

func (d *mapDB) Files() []string { return nil }

func (d *mapDB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.m = nil
	return nil
}

func (d *mapDB) Destroy() error { return d.Close() }
