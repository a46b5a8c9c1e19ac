package codec

import (
	"bytes"
	"testing"
)

// FuzzDecoder interprets the first input as a script of decode
// operations run against the second input as the buffer. Whatever the
// bytes, the decoder must never panic; once it has failed it must stay
// failed and return only inert zero values.
func FuzzDecoder(f *testing.F) {
	// Seed with a valid encoding of every field type, paired with a
	// script that reads it back in order, plus a few hostile shapes.
	e := NewEncoder(nil)
	e.Uint8(7)
	e.Bool(true)
	e.Uint16(513)
	e.Uint32(1 << 20)
	e.Uint64(1 << 40)
	e.Int64(-9)
	e.Float64(3.25)
	e.Uvarint(300)
	e.Varint(-300)
	e.BytesField([]byte("payload"))
	e.String("name")
	e.StringSlice([]string{"a", "bb", "ccc"})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12}, append([]byte(nil), e.Bytes()...))
	f.Add([]byte{9, 9, 9}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge uvarint length
	f.Add([]byte{12}, []byte{0x05})                                                            // count with no elements
	f.Add([]byte{7}, []byte{0x80})                                                             // truncated varint

	f.Fuzz(func(t *testing.T, ops []byte, data []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		d := NewDecoder(data)
		for _, op := range ops {
			switch op % 14 {
			case 0:
				d.Uint8()
			case 1:
				d.Bool()
			case 2:
				d.Uint16()
			case 3:
				d.Uint32()
			case 4:
				d.Uint64()
			case 5:
				d.Int64()
			case 6:
				d.Float64()
			case 7:
				d.Uvarint()
			case 8:
				d.Varint()
			case 9:
				b := d.BytesField()
				if d.Err() == nil && len(b) > d.Remaining()+len(b) {
					t.Fatalf("BytesField returned %d bytes from a %d-byte buffer", len(b), len(data))
				}
			case 10:
				d.BytesFieldCopy()
			case 11:
				_ = d.String()
			case 12:
				ss := d.StringSlice()
				if d.Err() == nil && len(ss) > len(data) {
					t.Fatalf("StringSlice returned %d strings from %d bytes", len(ss), len(data))
				}
			case 13:
				// The intern table is a cache: what it returns is what
				// the plain decode of the same bytes returns.
				ref := NewDecoder(data[len(data)-d.Remaining():])
				want, got := ref.String(), d.StringIntern()
				if got != want || (d.Err() == nil) != (ref.Err() == nil) || d.Remaining() != ref.Remaining() {
					t.Fatalf("StringIntern %q (err %v, %d left), String %q (err %v, %d left)",
						got, d.Err(), d.Remaining(), want, ref.Err(), ref.Remaining())
				}
			}
			if d.Err() != nil {
				// Failure is sticky and everything after it is inert.
				if v := d.Uint64(); v != 0 {
					t.Fatalf("Uint64 after error = %d, want 0", v)
				}
				if b := d.BytesField(); b != nil {
					t.Fatalf("BytesField after error = %q, want nil", b)
				}
				if s := d.String(); s != "" {
					t.Fatalf("String after error = %q, want empty", s)
				}
				if err := d.Finish(); err == nil {
					t.Fatal("Finish reported success after a decode error")
				}
				return
			}
		}
		_ = d.Finish()
	})
}

// FuzzRoundTrip checks that any byte string and string survive an
// encode/decode cycle byte-for-byte, whatever their content.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("key"), "value", uint64(42))
	f.Add([]byte{}, "", uint64(0))
	f.Add([]byte{0xff, 0x00}, "\x00\xff", uint64(1<<63))
	f.Fuzz(func(t *testing.T, b []byte, s string, u uint64) {
		e := NewEncoder(nil)
		e.BytesField(b)
		e.String(s)
		e.Uvarint(u)
		d := NewDecoder(e.Bytes())
		gb := d.BytesField()
		gs := d.String()
		gu := d.Uvarint()
		if err := d.Finish(); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(gb, b) || gs != s || gu != u {
			t.Fatalf("round trip mismatch: %q/%q/%d != %q/%q/%d", gb, gs, gu, b, s, u)
		}
	})
}
