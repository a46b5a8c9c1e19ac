package colza

import (
	"testing"

	"mochi/internal/codec/codectest"
)

// wireProtos is one prototype of every wire message of the package, in
// the order the fuzz selector and testdata/wire.golden number them.
func wireProtos() []codectest.Message {
	return []codectest.Message{
		&stageArgs{ViewHash: 7, Iteration: 2, BlockID: 5, Data: []byte("block")},
		&stageReply{Status: 1, Err: "stale", ViewHash: 8, Blocks: 2, Bytes: 10},
	}
}

// FuzzWireMessages runs both colza wire messages under the shared
// hostile-input harness.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f, wireProtos()...)
}

// TestWireGolden fails when the encoding of any of them changes.
func TestWireGolden(t *testing.T) { codectest.Golden(t, wireProtos()...) }
