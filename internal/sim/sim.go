// Package sim is the deterministic cluster simulator: it runs real
// protocol code (the ssg SWIM engine, chaos fault schedules) on
// virtual time, so a 10k-node, 10-virtual-minute run finishes in
// seconds of wall time and replays bit-identically from a seed.
//
// Determinism comes from three properties, not from luck:
//
//  1. the simulation is single-threaded — one goroutine pops events
//     off an ordered heap and executes them to completion;
//  2. every event is ordered by (virtual time, sequence number), so
//     two events at the same instant run in schedule order;
//  3. all randomness flows from rand sources derived from one seed
//     (per-node protocol RNGs, per-node chaos schedules, the link
//     jitter RNG), and the protocol engines themselves iterate in
//     deterministic order (see ssg.Engine).
//
// The package also contains the linearizability checker
// (linearize.go) used to verify RaftKV histories recorded under
// simulated fault schedules.
package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"time"
)

// event is one scheduled action on virtual time. Events are stored by
// value in a hand-rolled binary heap keyed on (int64 nanos, seq):
// tens of millions of events run per simulation, so per-event pointer
// allocations and time.Time comparisons are worth eliminating.
type event struct {
	at  int64 // virtual time, nanoseconds since the simulation epoch
	seq uint64
	fn  func()
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Sim) push(e event) {
	h := append(s.events, e)
	s.events = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (s *Sim) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n].fn = nil
	s.events = h[:n]
	h = h[:n]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && eventLess(h[l], h[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && eventLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// Sim is the discrete-event scheduler. All protocol activity is
// expressed as events; running them in (time, seq) order while
// advancing the simulated clock gives a total order over everything
// that happens in the cluster.
type Sim struct {
	Trace *Trace

	rng    *rand.Rand
	now    int64 // virtual time, nanoseconds since the simulation epoch
	events []event
	seq    uint64
	ran    uint64
}

// New creates a simulation whose randomness all derives from seed.
// Virtual time starts at the Unix epoch so event keys are plain
// nanosecond offsets.
func New(seed int64) *Sim {
	return &Sim{
		Trace: &Trace{},
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return time.Unix(0, s.now) }

// Rand returns the master RNG. Use it only during setup (deriving
// per-node seeds); protocol-time randomness should come from per-node
// sources so adding a node does not shift every other node's schedule.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn to run after d of virtual time.
func (s *Sim) At(d time.Duration, fn func()) {
	s.seq++
	s.push(event{at: s.now + int64(d), seq: s.seq, fn: fn})
}

// Events returns how many events have executed.
func (s *Sim) Events() uint64 { return s.ran }

// Run executes events in order until the queue drains or virtual time
// reaches end, advancing virtual time to each event's instant.
func (s *Sim) Run(end time.Time) {
	endNano := end.UnixNano()
	for len(s.events) > 0 {
		if s.events[0].at > endNano {
			break
		}
		next := s.pop()
		s.now = next.at
		s.ran++
		next.fn()
	}
	if s.now < endNano {
		s.now = endNano
	}
}

// RunFor runs for d of virtual time.
func (s *Sim) RunFor(d time.Duration) { s.Run(s.Now().Add(d)) }

// Trace accumulates a rolling FNV-1a hash over every recorded
// simulation event. Two runs with the same seed must produce the same
// final hash and count — the replay-identity check — without storing
// millions of events.
type Trace struct {
	h     uint64
	count uint64
}

// Record folds one event into the hash: a kind tag, two int32
// participants, a detail word, and the virtual timestamp.
func (t *Trace) Record(at time.Time, kind uint8, a, b int32, detail uint64) {
	if t.h == 0 {
		t.h = fnv.New64a().Sum64() // offset basis
	}
	var buf [29]byte
	buf[0] = kind
	binary.LittleEndian.PutUint32(buf[1:], uint32(a))
	binary.LittleEndian.PutUint32(buf[5:], uint32(b))
	binary.LittleEndian.PutUint64(buf[9:], detail)
	binary.LittleEndian.PutUint64(buf[17:], uint64(at.UnixNano()))
	binary.LittleEndian.PutUint32(buf[25:], uint32(t.count))
	h := t.h
	for _, c := range buf {
		h ^= uint64(c)
		h *= 1099511628211 // FNV-1a prime
	}
	t.h = h
	t.count++
}

// Hash returns the rolling hash.
func (t *Trace) Hash() uint64 { return t.h }

// Count returns how many events were recorded.
func (t *Trace) Count() uint64 { return t.count }
