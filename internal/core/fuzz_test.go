package core

import (
	"testing"

	"mochi/internal/codec/codectest"
	"mochi/internal/yokan"
)

// wireProtos is one prototype of every wire message of the package, in
// the order the fuzz selector and testdata/wire.golden number them.
func wireProtos() []codectest.Message {
	return []codectest.Message{
		&kvCommand{Op: kvOpPut, Key: []byte("k"), Value: []byte("v"), CID: "sm://a#1", Seq: 3},
		&kvResult{Status: 1, Err: "not found", Value: []byte("v")},
		&kvSnapshot{
			Pairs: []yokan.KeyValue{{Key: []byte("k1"), Value: []byte("v")}, {Key: []byte("k2"), Value: []byte{}}},
			Sessions: []snapshotSession{
				{"sm://a#1", kvSession{Seq: 3, Result: []byte("done")}},
				{"sm://b#2", kvSession{Seq: 1, Result: []byte{}}},
			},
		},
	}
}

// FuzzWireMessages runs the replicated KV's log command, result and
// snapshot — bytes every replica decodes from the raft log and its
// snapshot file — under the shared hostile-input harness.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f, wireProtos()...)
}

// TestWireGolden fails when the encoding of any of them changes.
func TestWireGolden(t *testing.T) { codectest.Golden(t, wireProtos()...) }
