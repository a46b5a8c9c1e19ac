package warabi

import (
	"testing"

	"mochi/internal/codec/codectest"
	"mochi/internal/mercury"
)

// wireProtos is one prototype of every wire message of the package, in
// the order the fuzz selector and testdata/wire.golden number them.
func wireProtos() []codectest.Message {
	return []codectest.Message{
		&ioArgs{Region: 3, Offset: 8, Size: 4, Data: []byte("data"), HasBulk: true, Bulk: mercury.BulkDescriptor{Addr: "sm://a", ID: 1, Size: 4, Access: 1}},
		&ioReply{Status: 3, Err: "out of bounds", Region: 3, Size: 4, Data: []byte("data"), IDs: []RegionID{1, 2}},
	}
}

// FuzzWireMessages runs both warabi wire messages under the shared
// hostile-input harness.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f, wireProtos()...)
}

// TestWireGolden fails when the encoding of any of them changes.
func TestWireGolden(t *testing.T) { codectest.Golden(t, wireProtos()...) }
