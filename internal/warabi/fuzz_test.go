package warabi

import (
	"testing"

	"mochi/internal/codec/codectest"
	"mochi/internal/mercury"
)

// FuzzWireMessages runs both warabi wire messages under the shared
// hostile-input harness.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f,
		&ioArgs{Region: 3, Offset: 8, Size: 4, Data: []byte("data"), HasBulk: true, Bulk: mercury.BulkDescriptor{Addr: "sm://a", ID: 1, Size: 4, Access: 1}},
		&ioReply{Status: 3, Err: "out of bounds", Region: 3, Size: 4, Data: []byte("data"), IDs: []RegionID{1, 2}},
	)
}
