package yokan

import (
	"testing"

	"mochi/internal/codec/codectest"
)

// wireProtos is one prototype of every wire message of the package, in
// the order the fuzz selector and testdata/wire.golden number them.
func wireProtos() []codectest.Message {
	return []codectest.Message{
		&putArgs{Pairs: []KeyValue{{Key: []byte("k"), Value: []byte("v")}}},
		&keysArgs{Keys: [][]byte{[]byte("a"), []byte("b")}},
		&listArgs{FromKey: []byte("a"), HasFrom: true, Prefix: []byte("p"), Max: 10},
		&statusReply{Status: 2, Err: "boom"},
		&valueReply{Status: 0, Value: []byte("v")},
		&valuesReply{Found: []bool{true, false}, Values: [][]byte{[]byte("v"), nil}},
		&boolReply{Value: true},
		&countReply{Count: 99},
		&kvListReply{Pairs: []KeyValue{{Key: []byte("k"), Value: []byte("v")}}},
		&logRecord{op: 0, key: []byte("k"), value: []byte("v")},
	}
}

// FuzzWireMessages runs every yokan wire message type — and the log
// backend's on-disk record — under the shared hostile-input harness.
// Corrupt RPC payloads and torn log tails must fail cleanly.
func FuzzWireMessages(f *testing.F) {
	f.Add(uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	codectest.FuzzMessages(f, wireProtos()...)
}

// TestWireGolden fails when the encoding of any of them changes.
func TestWireGolden(t *testing.T) { codectest.Golden(t, wireProtos()...) }
