package colza

import (
	"testing"

	"mochi/internal/codec/codectest"
)

// FuzzWireMessages runs both colza wire messages under the shared
// hostile-input harness.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f,
		&stageArgs{ViewHash: 7, Iteration: 2, BlockID: 5, Data: []byte("block")},
		&stageReply{Status: 1, Err: "stale", ViewHash: 8, Blocks: 2, Bytes: 10},
	)
}
