package poesie

import (
	"testing"

	"mochi/internal/codec/codectest"
)

// FuzzWireMessages runs both poesie wire messages under the shared
// hostile-input harness.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f,
		&execArgs{Script: "return 1;"},
		&execReply{OK: true, Result: "1", Output: "out"},
	)
}
