// Package router spreads one logical yokan keyspace across N
// providers with a client-side consistent-hash router, and makes the
// placement *dynamic*: a Reshard operation REMI-migrates one shard's
// data to a new owner and atomically flips routing under live
// traffic. This is the paper's elasticity claim (§6: REMI +
// Pufferscale + SSG compose into dynamically reconfigurable
// services) exercised end to end.
//
// Routing is two-level, the classic "many fixed shards over few
// movable owners" design: a key hashes onto a virtual-node ring whose
// points map to a fixed set of shards, and a versioned map assigns
// each shard to an owner (address, provider ID). Moving data
// never rehashes keys — only the shard→owner assignment changes, so a
// reshard touches exactly one shard's pairs and every other key keeps
// routing without interruption.
package router

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync/atomic"

	"mochi/internal/codec"
)

// Bounds on decoded maps, protecting against corrupt or hostile
// inputs (the map travels inside redirect replies).
const (
	MaxShards = 4096
	MaxVNodes = 1024
	// DefaultVNodes is the ring density per shard. 32 points per
	// shard keeps the max/mean keyspace share of a shard within a
	// few percent of ideal while the ring stays small enough to
	// rebuild on every map decode.
	DefaultVNodes = 32
)

// Owner locates the provider serving a shard.
type Owner struct {
	Addr     string
	Provider uint16
}

func (o Owner) String() string { return fmt.Sprintf("%s/%d", o.Addr, o.Provider) }

func (o Owner) less(p Owner) bool {
	return o.Addr < p.Addr || o.Addr == p.Addr && o.Provider < p.Provider
}

// Map is the shard map: each shard's owner and the version of that
// entry. It is immutable once built: a move derives a successor with
// WithOwner, and a holder adopts a map it hears through Merge, so a
// *Map can be published through an atomic pointer and read lock-free
// on every operation.
//
// Only a shard's owner bumps its version, by moving it, one move at a
// time: each shard's history is a chain of its own, and flips of
// different shards commute.
//
// The ring is derived deterministically from (len(Owners), VNodes)
// alone — ring point j of shard i is the hash of "shard/i/j" — so two
// parties that agree on the shard count agree on every key's shard,
// regardless of how the map was serialized, merged, or re-decoded.
// Owner changes never move ring points.
type Map struct {
	VNodes   int
	Owners   []Owner  // indexed by shard
	Versions []uint64 // indexed by shard: bumped by each move of it

	ring []ringEntry
}

type ringEntry struct {
	point uint64
	shard uint32
}

// NewMap builds a map assigning shard i to owners[i%len], every shard
// at version 0. nshards is the fixed shard count for the life of the
// keyspace.
func NewMap(nshards int, owners []Owner, vnodes int) (*Map, error) {
	if nshards < 1 || nshards > MaxShards {
		return nil, fmt.Errorf("router: shard count %d out of range [1,%d]", nshards, MaxShards)
	}
	if len(owners) == 0 {
		return nil, fmt.Errorf("router: need at least one owner")
	}
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	if vnodes < 1 || vnodes > MaxVNodes {
		return nil, fmt.Errorf("router: vnodes %d out of range [1,%d]", vnodes, MaxVNodes)
	}
	m := &Map{VNodes: vnodes, Owners: make([]Owner, nshards), Versions: make([]uint64, nshards)}
	for i := range m.Owners {
		m.Owners[i] = owners[i%len(owners)]
	}
	m.buildRing()
	return m, nil
}

// NumShards returns the fixed shard count.
func (m *Map) NumShards() int { return len(m.Owners) }

// buildRing derives the sorted virtual-node ring. Points depend only
// on the shard count and vnode density, never on owners or versions.
func (m *Map) buildRing() {
	m.ring = make([]ringEntry, 0, len(m.Owners)*m.VNodes)
	var name [32]byte
	for s := 0; s < len(m.Owners); s++ {
		for v := 0; v < m.VNodes; v++ {
			b := name[:0]
			b = append(b, "shard/"...)
			b = appendUint(b, uint64(s))
			b = append(b, '/')
			b = appendUint(b, uint64(v))
			m.ring = append(m.ring, ringEntry{point: hashBytes(b), shard: uint32(s)})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].point != m.ring[j].point {
			return m.ring[i].point < m.ring[j].point
		}
		// Deterministic tie-break so equal points (vanishingly
		// rare) still order identically everywhere.
		return m.ring[i].shard < m.ring[j].shard
	})
}

func appendUint(b []byte, v uint64) []byte {
	if v >= 10 {
		b = appendUint(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// hashBytes hashes for ring placement: FNV-64a for the byte walk,
// then a murmur3-style finalizer. Raw FNV of short, similar inputs
// ("key-1", "key-2", ...) clusters badly — neighbouring inputs land
// in neighbouring ring arcs and the "uniform" ring degenerates to a
// couple of hot shards; the finalizer's avalanche restores uniform
// spread while staying a bijection (distinct FNV values stay
// distinct).
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// ShardOf maps a key to its shard: the first ring point at or after
// the key's hash, wrapping at the top.
func (m *Map) ShardOf(key []byte) uint32 {
	h := hashBytes(key)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].point >= h })
	if i == len(m.ring) {
		i = 0
	}
	return m.ring[i].shard
}

// OwnerOf returns the owner currently assigned to the key's shard.
func (m *Map) OwnerOf(key []byte) (uint32, Owner) {
	s := m.ShardOf(key)
	return s, m.Owners[s]
}

// WithOwner derives the successor map: identical except shard is
// assigned to o at the next version. The ring is shared — ring points
// never depend on ownership.
func (m *Map) WithOwner(shard uint32, o Owner) *Map {
	next := m.clone()
	next.Owners[shard] = o
	next.Versions[shard]++
	return next
}

func (m *Map) clone() *Map {
	return &Map{VNodes: m.VNodes, Owners: slices.Clone(m.Owners), Versions: slices.Clone(m.Versions), ring: m.ring}
}

// Merge is how every holder adopts a map it hears: shard by shard it
// keeps the higher-versioned entry of m and o (on a tie, which only
// diverged histories produce, the greater owner), so it is
// commutative, associative and idempotent, and the order in which maps
// arrive does not matter. It returns m itself when o adds nothing, when
// o is nil, or when o has another shard count or vnode density; o when
// m is nil.
func (m *Map) Merge(o *Map) *Map {
	if m == nil {
		return o
	}
	if o == nil || len(o.Owners) != len(m.Owners) || o.VNodes != m.VNodes {
		return m
	}
	out := m
	for s, v := range o.Versions {
		if v > m.Versions[s] || v == m.Versions[s] && m.Owners[s].less(o.Owners[s]) {
			if out == m {
				out = m.clone()
			}
			out.Owners[s], out.Versions[s] = o.Owners[s], v
		}
	}
	return out
}

// mergeInto folds m into the map p publishes and reports whether that
// changed it: the one way a node or a router adopts a map it hears.
func mergeInto(p *atomic.Pointer[Map], m *Map) bool {
	for {
		cur := p.Load()
		next := cur.Merge(m)
		if next == cur {
			return false
		}
		if p.CompareAndSwap(cur, next) {
			return true
		}
	}
}

// Epoch sums the shard versions: a number that grows with every flip,
// for logs, the demo and tests that check a whole map's flip count. No
// node or router compares it: maps are ordered by Merge alone.
func (m *Map) Epoch() uint64 {
	var e uint64
	for _, v := range m.Versions {
		e += v
	}
	return e
}

// Nodes returns the distinct owner addresses, in first-seen order.
func (m *Map) Nodes() []string {
	seen := make(map[string]bool, len(m.Owners))
	var out []string
	for _, o := range m.Owners {
		if !seen[o.Addr] {
			seen[o.Addr] = true
			out = append(out, o.Addr)
		}
	}
	return out
}

// Proc describes the map: vnode density, then the shard→owner table
// and the shard versions. The ring is derived, never serialized;
// decoding validates the header and rebuilds it.
func (m *Map) Proc(p *codec.Proc) {
	vn := uint64(m.VNodes)
	p.Uvarint(&vn)
	if p.Decoding() { // a map is shared and immutable: encoding writes nothing
		if vn < 1 || vn > MaxVNodes {
			p.Fail(fmt.Errorf("%d vnodes per shard, outside [1,MaxVNodes=%d]", vn, MaxVNodes))
		}
		m.VNodes = int(vn)
	}
	codec.Slice(p, &m.Owners, procOwner)
	codec.Slice(p, &m.Versions, (*codec.Proc).Uvarint)
	if p.Decoding() {
		if n := len(m.Owners); n < 1 || n > MaxShards {
			p.Fail(fmt.Errorf("%d shards, outside [1,MaxShards=%d]", n, MaxShards))
		} else if len(m.Versions) != n {
			p.Fail(fmt.Errorf("%d versions for %d shards", len(m.Versions), n))
		} else {
			m.buildRing()
			return
		}
		m.Owners = nil
	}
}

func procOwner(p *codec.Proc, o *Owner) {
	p.String(&o.Addr)
	p.Uint16(&o.Provider)
}

// EncodeMap serializes a map to bytes.
func EncodeMap(m *Map) []byte { return codec.Marshal(m) }

// DecodeMap parses and validates a serialized map.
func DecodeMap(b []byte) (*Map, error) {
	var m Map
	if err := codec.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("router: bad shard map: %w", err)
	}
	return &m, nil
}
