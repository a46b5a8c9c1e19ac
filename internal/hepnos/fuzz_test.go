package hepnos

import (
	"testing"

	"mochi/internal/codec/codectest"
)

// wireProtos is one prototype of every encoded record of the package,
// in the order the fuzz selector and testdata/wire.golden number them.
func wireProtos() []codectest.Message {
	return []codectest.Message{
		&eventMeta{Region: 7, Size: 1 << 20, Shard: 3},
	}
}

// FuzzWireMessages runs the event metadata record — bytes read back
// from yokan, where they outlive the process that wrote them — under
// the shared hostile-input harness.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f, wireProtos()...)
}

// TestWireGolden fails when the encoding of any of them changes.
func TestWireGolden(t *testing.T) { codectest.Golden(t, wireProtos()...) }
