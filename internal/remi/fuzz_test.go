package remi

import (
	"testing"

	"mochi/internal/codec/codectest"
	"mochi/internal/mercury"
)

// wireProtos is one prototype of every wire message of the package, in
// the order the fuzz selector and testdata/wire.golden number them.
func wireProtos() []codectest.Message {
	return []codectest.Message{
		&beginArgs{
			Method: uint8(MethodBulk), Class: "yokan", Meta: map[string]string{"k": "v"},
			Files: []wireFile{{RelPath: "a/b", Size: 3, CRC: 7, Bulk: mercury.BulkDescriptor{Addr: "sm://a", ID: 1, Size: 3, Access: 1}}},
		},
		&beginReply{Status: 1, Err: "boom", XferID: 9},
		&chunkArgs{XferID: 9, Segments: []segment{{FileIdx: 1, Offset: 4, Data: []byte("data")}}},
		&endArgs{XferID: 9},
		&statusReply{Status: 1, Err: "boom"},
	}
}

// FuzzWireMessages runs every REMI wire message under the shared
// hostile-input harness.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f, wireProtos()...)
}

// TestWireGolden fails when the encoding of any of them changes.
func TestWireGolden(t *testing.T) { codectest.Golden(t, wireProtos()...) }
