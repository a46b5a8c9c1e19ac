package router

import (
	"testing"

	"mochi/internal/codec"
)

// A Put truncated right after its key count used to decode as a valid
// opArgs with no keys and no pairs — a write that acks and stores
// nothing — because the count guard bailed out without failing the
// decoder and nothing was left for Finish to complain about.
func TestOpArgsTruncatedAfterCountIsRejected(t *testing.T) {
	e := codec.NewEncoder(nil)
	e.Uint32(3) // shard
	e.Uvarint(5)
	var a opArgs
	if err := codec.Unmarshal(e.Bytes(), &a); err == nil {
		t.Fatalf("truncated opArgs decoded as %+v", a)
	}
}
