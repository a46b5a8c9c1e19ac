package mercury

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"mochi/internal/codec"
	"mochi/internal/codec/codectest"
	"mochi/internal/trace"
)

// wireProtos is one prototype of every message mercury itself encodes,
// in the order the fuzz selector and testdata/wire.golden number them.
func wireProtos() []codectest.Message {
	return []codectest.Message{
		&BulkDescriptor{Addr: "tcp://127.0.0.1:9999", ID: 7, Size: 1 << 20, Access: uint8(BulkReadWrite)},
		&message{
			kind: msgRequest, seq: 7, id: NameToID("fuzz"), provider: 3, src: "sm://fuzz-src",
			status: 2, errmsg: "boom", auth: "token", payload: []byte("payload"),
			bulkID: 1, bulkOff: 2, bulkLen: 3, tc: trace.SpanContext{TraceID: 4, Parent: 5, Flags: 1},
		},
	}
}

// FuzzWireMessages runs the bulk descriptor, which travels inside other
// components' arguments, and the transport's own frame body under the
// shared hostile-input harness.
func FuzzWireMessages(f *testing.F) {
	codectest.FuzzMessages(f, wireProtos()...)
}

// TestWireGolden fails when the encoding of any of them changes.
func TestWireGolden(t *testing.T) { codectest.Golden(t, wireProtos()...) }

// frameReader returns an unconnected TCP transport and a reader over
// data, to drive the connection read path (readMessage) from bytes.
func frameReader(data []byte) (*tcpTransport, *bufio.Reader) {
	tr := &tcpTransport{}
	tr.class = newClass(tr)
	return tr, bufio.NewReaderSize(bytes.NewReader(data), readBufferSize)
}

// validFrame encodes one message exactly as tcpTransport.send does:
// 4-byte little-endian length prefix, then the codec encoding.
func validFrame(payload []byte) []byte {
	return validFrameKind(msgRequest, payload)
}

func validFrameKind(kind msgKind, payload []byte) []byte {
	m := getMessage()
	m.kind = kind
	m.seq = 7
	m.id = NameToID("fuzz")
	m.src = "sm://fuzz-src"
	m.payload = payload
	enc := codec.GetEncoder()
	enc.Uint32(0)
	m.Proc(enc.Proc())
	frame := append([]byte(nil), enc.Bytes()...)
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	codec.PutEncoder(enc)
	m.payload = nil
	putMessage(m)
	return frame
}

// FuzzFrameDecode feeds arbitrary byte streams to the TCP frame
// parser. It must never panic and never allocate anywhere near an
// advertised hostile length; valid frames decode and pooled messages
// recycle cleanly.
func FuzzFrameDecode(f *testing.F) {
	f.Add(validFrame([]byte("hello")))
	f.Add(validFrame(nil))
	f.Add(append(validFrame([]byte("two")), validFrame([]byte("frames"))...))
	f.Add([]byte{0, 0, 0, 0})             // zero-length frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB length prefix
	hostile := make([]byte, 4, 104)
	binary.LittleEndian.PutUint32(hostile, 32<<20)
	f.Add(append(hostile, make([]byte, 100)...)) // huge length, short body
	ack := validFrameKind(msgBulkAck, make([]byte, fuzzLanding))
	f.Add(ack)                                                     // lands in the registered region
	f.Add(append(append([]byte(nil), ack...), ack...))             // then its duplicate, drained
	f.Add(ack[:len(ack)/2])                                        // connection lost mid-payload
	f.Add(validFrameKind(msgBulkAck, make([]byte, fuzzLanding+1))) // wrong size for the region
	f.Add(validFrameKind(msgBulkWrite, make([]byte, fuzzLanding))) // large, but not an ack

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, br := frameReader(data)
		// validFrameKind's seq has a pull in flight: its ack must fill
		// this region and nothing else, whatever the stream holds.
		region := make([]byte, fuzzLanding, fuzzLanding+1)
		region[:cap(region)][fuzzLanding] = 0xA5
		tr.class.landings[7] = region
		var scratch []byte
		for {
			m, err := tr.readMessage(br, &scratch)
			if region[:cap(region)][fuzzLanding] != 0xA5 {
				t.Fatal("ack payload written past the registered region")
			}
			if err != nil {
				return
			}
			if m.landed && m.payload != nil {
				t.Fatal("landed ack still carries a payload")
			}
			m.releasePayload()
			putMessage(m)
		}
	})
}

// fuzzLanding is the size of the region FuzzFrameDecode registers:
// large enough for the direct path.
const fuzzLanding = bulkFrameMin + 1024
