package poesie

import (
	"testing"

	"mochi/internal/codec/codectest"
)

// wireProtos is one prototype of every wire message of the package, in
// the order the fuzz selector and testdata/wire.golden number them.
func wireProtos() []codectest.Message {
	return []codectest.Message{
		&execArgs{Script: "return 1;"},
		&execReply{OK: true, Result: "1", Output: "out"},
	}
}

// FuzzWireMessages runs both poesie wire messages under the shared
// hostile-input harness.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f, wireProtos()...)
}

// TestWireGolden fails when the encoding of any of them changes.
func TestWireGolden(t *testing.T) { codectest.Golden(t, wireProtos()...) }
