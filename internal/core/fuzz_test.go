package core

import (
	"testing"

	"mochi/internal/codec/codectest"
)

// FuzzWireMessages runs the replicated KV's log command and result —
// bytes every replica decodes from the raft log — under the shared
// hostile-input harness.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f,
		&kvCommand{Op: kvOpPut, Key: []byte("k"), Value: []byte("v"), CID: "sm://a#1", Seq: 3},
		&kvResult{Status: 1, Err: "not found", Value: []byte("v")},
	)
}
