package ssg

import (
	"testing"

	"mochi/internal/codec/codectest"
)

// wireProtos is one prototype of every wire message of the package, in
// the order the fuzz selector and testdata/wire.golden number them.
func wireProtos() []codectest.Message {
	ups := []Update{{Addr: "sm://a", Incarnation: 2, State: StateSuspect}}
	return []codectest.Message{
		&pingArgs{Group: "g", From: "sm://a", Updates: ups},
		&ackReply{OK: true, Updates: ups},
		&pingReqArgs{Group: "g", From: "sm://a", Target: "sm://b", Updates: ups},
		&joinArgs{Group: "g", Addr: "sm://c"},
		&viewReply{OK: true, Version: 5, Members: []Member{{Addr: "sm://a", Incarnation: 2, State: StateSuspect}}},
	}
}

// FuzzWireMessages runs every SWIM wire message type under the shared
// hostile-input harness: gossip from a malfunctioning member must
// produce decode errors, never panics.
func FuzzWireMessages(f *testing.F) {
	f.Add(uint8(0), []byte{0x01, 0x61, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	codectest.FuzzMessages(f, wireProtos()...)
}

// TestWireGolden fails when the encoding of any of them changes.
func TestWireGolden(t *testing.T) { codectest.Golden(t, wireProtos()...) }
