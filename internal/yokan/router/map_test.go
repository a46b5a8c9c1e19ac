package router

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mochi/internal/codec"
)

func testOwners(n int) []Owner {
	out := make([]Owner, n)
	for i := range out {
		out[i] = Owner{Addr: fmt.Sprintf("sm://node-%d", i), Provider: 9}
	}
	return out
}

// Ring assignment must be a pure function of (shard count, vnode
// density): serializing and re-decoding a map — or changing owners —
// must never move a key to a different shard. This is the property
// the whole migration protocol leans on: a reshard moves ownership,
// never hash placement.
func TestRingStableAcrossReserialization(t *testing.T) {
	m, err := NewMap(16, testOwners(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeMap(EncodeMap(m))
	if err != nil {
		t.Fatal(err)
	}
	// And once more through a WithOwner derivation + round-trip.
	moved := m.WithOwner(3, Owner{Addr: "sm://node-9", Provider: 9})
	dec2, err := DecodeMap(EncodeMap(moved))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		want := m.ShardOf(key)
		if got := dec.ShardOf(key); got != want {
			t.Fatalf("key %q: shard %d after round-trip, %d before", key, got, want)
		}
		if got := moved.ShardOf(key); got != want {
			t.Fatalf("key %q: shard moved by WithOwner: %d != %d", key, got, want)
		}
		if got := dec2.ShardOf(key); got != want {
			t.Fatalf("key %q: shard %d after WithOwner round-trip, %d before", key, got, want)
		}
	}
}

func TestMapRoundTripFields(t *testing.T) {
	m, err := NewMap(8, testOwners(3), 64)
	if err != nil {
		t.Fatal(err)
	}
	moved := m.WithOwner(5, Owner{Addr: "sm://spare", Provider: 11})
	if moved.Versions[5] != 1 || moved.Epoch() != 1 {
		t.Fatalf("versions after one move of shard 5: %v", moved.Versions)
	}
	dec, err := DecodeMap(EncodeMap(moved))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec.Versions, moved.Versions) || dec.VNodes != moved.VNodes || len(dec.Owners) != len(moved.Owners) {
		t.Fatalf("header mismatch: %+v vs %+v", dec, moved)
	}
	for i := range dec.Owners {
		if dec.Owners[i] != moved.Owners[i] {
			t.Fatalf("owner %d: %v != %v", i, dec.Owners[i], moved.Owners[i])
		}
	}
	if dec.Owners[5].Addr != "sm://spare" {
		t.Fatalf("WithOwner not applied: %v", dec.Owners[5])
	}
}

func TestMapShardSpread(t *testing.T) {
	m, err := NewMap(8, testOwners(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 8)
	for i := 0; i < 20000; i++ {
		counts[m.ShardOf([]byte(fmt.Sprintf("key-%d", i)))]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no keys", s)
		}
	}
}

// TestDecodeMapRejectsGarbage: input that is not a map is refused, and
// a header outside the bounds is refused by name — at the field that
// is wrong, not as whatever the rest of the bytes then look like.
func TestDecodeMapRejectsGarbage(t *testing.T) {
	good, _ := NewMap(2, testOwners(2), 4)
	manyVNodes, manyShards := *good, *good
	manyVNodes.VNodes = MaxVNodes + 1
	manyShards.Owners = testOwners(MaxShards + 1)
	e := codec.NewEncoder(nil)
	e.Uvarint(1)
	e.Uvarint(uint64(MaxShards + 1)) // a count with no owners behind it
	cases := []struct {
		in   []byte
		want string
	}{
		{nil, "length overflow"},
		{[]byte{}, "length overflow"},
		{[]byte{1, 2, 3}, "length overflow"},
		{EncodeMap(&manyVNodes), fmt.Sprintf("%d vnodes per shard, outside [1,MaxVNodes=%d]", MaxVNodes+1, MaxVNodes)},
		{EncodeMap(&manyShards), fmt.Sprintf("%d shards, outside [1,MaxShards=%d]", MaxShards+1, MaxShards)},
		{e.Bytes(), "length overflow"},
		{EncodeMap(&Map{VNodes: 4}), "0 shards, outside [1,MaxShards="},
		{EncodeMap(&Map{VNodes: 4, Owners: good.Owners, Versions: []uint64{1}}), "1 versions for 2 shards"},
		{append(EncodeMap(good), 0), "1 trailing bytes"},
	}
	for i, c := range cases {
		_, err := DecodeMap(c.in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %v, want one containing %q", i, err, c.want)
		}
	}
}

func sameMap(a, b *Map) bool {
	return a.VNodes == b.VNodes && slices.Equal(a.Owners, b.Owners) && slices.Equal(a.Versions, b.Versions)
}

// flipHistory generates a random history of flips over base, each made
// by the shard's current owner from its own view of the map — which
// knows the flips it took part in and, unless gossip was lost, the
// rest. It returns every map a flip produced and the map that holds
// each shard's last flip.
func flipHistory(rng *rand.Rand, base *Map, owners []Owner, flips int) (maps []*Map, last *Map) {
	views := map[Owner]*Map{}
	for _, o := range owners {
		views[o] = base
	}
	last = base
	for i := 0; i < flips; i++ {
		s := uint32(rng.Intn(base.NumShards()))
		src, dst := last.Owners[s], owners[rng.Intn(len(owners))]
		if dst == src {
			continue
		}
		next := views[src].WithOwner(s, dst)
		maps = append(maps, next)
		views[src], views[dst] = views[src].Merge(next), views[dst].Merge(next)
		for _, o := range owners {
			if rng.Intn(3) > 0 { // gossip, when not lost
				views[o] = views[o].Merge(next)
			}
		}
		last = last.WithOwner(s, dst)
	}
	return maps, last
}

// TestMergeLaws: whatever order, and however often, a holder hears the
// maps of a flip history, merging them leaves it with each shard's last
// flip; and Merge is commutative, associative and idempotent. The
// global-epoch rule — keep the map of higher epoch — is kept here as a
// twin the property must reject.
func TestMergeLaws(t *testing.T) {
	owners := testOwners(4)
	base, err := NewMap(8, owners[:2], 4)
	if err != nil {
		t.Fatal(err)
	}
	keepHigherEpoch := func(cur, m *Map) *Map {
		if cur.Epoch() >= m.Epoch() {
			return cur
		}
		return m
	}
	twinFailed := false
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maps, last := flipHistory(rng, base, owners, 40)
		for h := 0; h < 4; h++ {
			heard := append(slices.Clone(maps), base)
			for i := rng.Intn(len(maps) + 1); i > 0; i-- {
				heard = append(heard, maps[rng.Intn(len(maps))])
			}
			rng.Shuffle(len(heard), func(i, j int) { heard[i], heard[j] = heard[j], heard[i] })
			merged, epochs := base, base
			for _, m := range heard {
				merged, epochs = merged.Merge(m), keepHigherEpoch(epochs, m)
			}
			if !sameMap(merged, last) {
				t.Fatalf("seed %d holder %d: merged %v %v, want %v %v", seed, h, merged.Owners, merged.Versions, last.Owners, last.Versions)
			}
			twinFailed = twinFailed || !sameMap(epochs, last)
		}
		for i := 0; i < 20; i++ {
			a, b, c := maps[rng.Intn(len(maps))], maps[rng.Intn(len(maps))], maps[rng.Intn(len(maps))]
			if !sameMap(a.Merge(b), b.Merge(a)) {
				t.Fatalf("seed %d: Merge not commutative", seed)
			}
			if !sameMap(a.Merge(b).Merge(c), a.Merge(b.Merge(c))) {
				t.Fatalf("seed %d: Merge not associative", seed)
			}
			if a.Merge(a) != a || !sameMap(a.Merge(b).Merge(b), a.Merge(b)) {
				t.Fatalf("seed %d: Merge not idempotent", seed)
			}
		}
	}
	if !twinFailed {
		t.Fatal("keeping the higher epoch passed the property: the histories are too kind")
	}

	// A map of another keyspace — shard count or vnode density — merges
	// as a no-op, however far its versions have run.
	moved := base.WithOwner(0, owners[3])
	for _, shape := range [][2]int{{9, 4}, {8, 8}} {
		other, err := NewMap(shape[0], owners, shape[1])
		if err != nil {
			t.Fatal(err)
		}
		other = other.WithOwner(0, owners[2]).WithOwner(0, owners[1])
		if got := moved.Merge(other); got != moved {
			t.Fatalf("a map of %d shards × %d vnodes merged into one of 8 × 4", shape[0], shape[1])
		}
	}
}
