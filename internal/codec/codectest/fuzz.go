// Package codectest holds the two checks every component's wire
// messages run under: the hostile-input fuzz harness (FuzzMessages) and
// the format pin (Golden). It must only be imported from _test.go
// files.
//
// The rule: a type with a Proc method appears in exactly one package's
// prototype list (its own package's wireProtos, in fuzz_test.go), and
// that list goes to both checks. `make fuzz` runs FuzzWireMessages in
// every package that has one.
package codectest

import (
	"reflect"
	"runtime"
	"testing"

	"mochi/internal/codec"
)

// Message is a wire message.
type Message = codec.Message

// allocFactor and allocSlack bound what decoding n input bytes may
// allocate: the largest in-memory element a two-byte wire element
// decodes into is a 48-byte key/value pair, and decoders copy strings
// and payloads at most once. The slack absorbs the runtime's own
// background allocations between the two measurements.
const (
	allocFactor = 64
	allocSlack  = 64 << 10
)

// FuzzMessages fuzzes the decoder of every prototype. The seed corpus
// is each prototype's own encoding under its position in protos (add
// further raw seeds with f.Add(uint8(position), bytes) first); the
// fuzz input is (selector, bytes) with the selector taken modulo
// len(protos). For every input:
//
//   - decoding never panics and never allocates more than a constant
//     multiple of the input size, whatever counts the bytes declare;
//   - a decode that succeeds re-encodes and re-decodes to the same
//     value.
//
// Before fuzzing it also checks, deterministically, that no proper
// prefix of a prototype's encoding decodes: a message cut short —
// right after an element count included — is an error, never a
// shorter valid message.
func FuzzMessages(f *testing.F, protos ...Message) {
	fresh := func(sel uint8) Message {
		t := reflect.TypeOf(protos[int(sel)%len(protos)]).Elem()
		return reflect.New(t).Interface().(Message)
	}
	for i, p := range protos {
		enc := codec.Marshal(p)
		f.Add(uint8(i), enc)
		for cut := 0; cut < len(enc); cut++ {
			if codec.Unmarshal(enc[:cut], fresh(uint8(i))) == nil {
				f.Fatalf("%T: the %d-byte prefix of a %d-byte encoding decodes as a valid message", p, cut, len(enc))
			}
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		v := fresh(sel)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := codec.Unmarshal(data, v)
		runtime.ReadMemStats(&after)
		if got, max := after.TotalAlloc-before.TotalAlloc, uint64(allocFactor*len(data)+allocSlack); got > max {
			t.Fatalf("%T: decoding %d bytes allocated %d (bound %d)", v, len(data), got, max)
		}
		if err != nil {
			return
		}
		again := fresh(sel)
		if err := codec.Unmarshal(codec.Marshal(v), again); err != nil {
			t.Fatalf("%T: re-encoding of an accepted message is rejected: %v", v, err)
		}
		if !reflect.DeepEqual(v, again) {
			t.Fatalf("%T: round trip changed the message:\n first %+v\nsecond %+v", v, v, again)
		}
	})
}
