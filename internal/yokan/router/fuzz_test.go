package router

import (
	"bytes"
	"fmt"
	"testing"

	"mochi/internal/codec"
	"mochi/internal/codec/codectest"
	"mochi/internal/yokan"
)

// FuzzShardMapWire decodes arbitrary bytes as a shard map. The map
// travels inside redirect replies from arbitrary peers, so the
// decoder must never panic, never allocate absurdly, and anything it
// accepts must round-trip byte-identically and route keys identically
// after re-serialization.
func FuzzShardMapWire(f *testing.F) {
	m, _ := NewMap(8, []Owner{{Addr: "sm://a", Provider: 1}, {Addr: "sm://b", Provider: 2}}, 0)
	f.Add(EncodeMap(m))
	f.Add(EncodeMap(m.WithOwner(3, Owner{Addr: "sm://c", Provider: 3})))
	big, _ := NewMap(64, []Owner{{Addr: "tcp://127.0.0.1:9999", Provider: 42}}, 128)
	f.Add(EncodeMap(big))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeMap(data)
		if err != nil {
			return
		}
		re := EncodeMap(dec)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted map does not round-trip: %x -> %x", data, re)
		}
		dec2, err := DecodeMap(re)
		if err != nil {
			t.Fatalf("re-encoded map rejected: %v", err)
		}
		for i := 0; i < 64; i++ {
			key := []byte(fmt.Sprintf("probe-%d", i))
			s := dec.ShardOf(key)
			if s2 := dec2.ShardOf(key); s2 != s {
				t.Fatalf("ring moved across re-serialization: key %q %d -> %d", key, s, s2)
			}
			if int(s) >= len(dec.Owners) {
				t.Fatalf("ShardOf out of range: %d >= %d", s, len(dec.Owners))
			}
		}
	})
}

// wireProtos is one prototype of every wire message of the package, in
// the order the fuzz selector and testdata/wire.golden number them.
func wireProtos() []codectest.Message {
	return []codectest.Message{
		&opArgs{Shard: 2, Keys: [][]byte{[]byte("k")}},
		&opReply{Status: statusStale, Map: []byte{1, 2}},
		&promoteArgs{Shard: 1, MigID: 99, Map: []byte{3}, Log: []byte{4}},
		&statsReply{Stats: []ShardStat{{Shard: 1, Ops: 2, Bytes: 3}}},
		&installArgs{Map: []byte{9}},
		&reshardArgs{Shard: 3, Dst: Owner{Addr: "sm://x", Provider: 1}},
		&opArgs{Shard: 2, Pairs: []yokan.KeyValue{{Key: []byte("k"), Value: []byte("v")}}},
		&mapReply{Map: []byte{1}},
		&statusReply{Status: statusError, Err: "boom"},
		&abortArgs{Shard: 1, MigID: 99},
	}
}

// FuzzWireMessages runs every router wire message under the shared
// hostile-input harness. The shard map is not among them: rebuilding
// its ring allocates by what the header declares, not by input size,
// and FuzzShardMapWire holds it to the stricter byte-identical round
// trip.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f, wireProtos()...)
}

// TestWireGolden fails when the encoding of any of them, or of the
// shard map, changes.
func TestWireGolden(t *testing.T) {
	m, err := NewMap(3, []Owner{{Addr: "sm://a", Provider: 1}, {Addr: "tcp://127.0.0.1:9999", Provider: 42}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	codectest.Golden(t, append(wireProtos(), m.WithOwner(2, Owner{Addr: "sm://c", Provider: 3}))...)
}

// FuzzSnapshotMerge feeds arbitrary bytes to the merge as a shard
// snapshot, which a peer's REMI transfer delivers: a snapshot that
// fails to decode must never be marked merged.
func FuzzSnapshotMerge(f *testing.F) {
	snap := codec.NewEncoder(nil)
	logPut(snap, []byte("key"), []byte("value"))
	logErase(snap, []byte("key"))
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:snap.Len()-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := yokan.Open(yokan.Config{Type: "map", Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		inc := &staging{db: db}
		d := codec.NewDecoder(data)
		for done := false; !done; {
			if done, err = mergeBatch(inc, d, mergeBatchKeys); err != nil {
				if inc.merged {
					t.Fatal("a snapshot that failed to decode was marked merged")
				}
				return
			}
		}
	})
}
