package router

import (
	"fmt"
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
	if moved.Epoch != m.Epoch+1 {
		t.Fatalf("epoch: got %d want %d", moved.Epoch, m.Epoch+1)
	}
	dec, err := DecodeMap(EncodeMap(moved))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epoch != moved.Epoch || dec.VNodes != moved.VNodes || len(dec.Owners) != len(moved.Owners) {
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
	e.Uint64(1)
	e.Uvarint(1)
	e.Uvarint(uint64(MaxShards + 1)) // a count with no owners behind it
	cases := []struct {
		in   []byte
		want string
	}{
		{nil, "short buffer"},
		{[]byte{}, "short buffer"},
		{[]byte{1, 2, 3}, "short buffer"},
		{EncodeMap(&manyVNodes), fmt.Sprintf("%d vnodes per shard, outside [1,MaxVNodes=%d]", MaxVNodes+1, MaxVNodes)},
		{EncodeMap(&manyShards), fmt.Sprintf("%d shards, outside [1,MaxShards=%d]", MaxShards+1, MaxShards)},
		{e.Bytes(), "length overflow"},
		{EncodeMap(&Map{Epoch: 1, VNodes: 4}), "0 shards, outside [1,MaxShards="},
		{append(EncodeMap(good), 0), "1 trailing bytes"},
	}
	for i, c := range cases {
		_, err := DecodeMap(c.in)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %v, want one containing %q", i, err, c.want)
		}
	}
}
