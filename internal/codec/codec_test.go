package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripPrimitives(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint8(0xAB)
	e.Bool(true)
	e.Bool(false)
	e.Uint16(0xBEEF)
	e.Uint32(0xDEADBEEF)
	e.Uint64(0x0123456789ABCDEF)
	e.Int64(-42)
	e.Float64(3.14159)
	e.Uvarint(1 << 40)
	e.Varint(-(1 << 33))
	e.String("hello mochi")
	e.BytesField([]byte{1, 2, 3})
	e.StringSlice([]string{"a", "", "ccc"})

	d := NewDecoder(e.Bytes())
	if got := d.Uint8(); got != 0xAB {
		t.Errorf("Uint8 = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.Uint16(); got != 0xBEEF {
		t.Errorf("Uint16 = %#x", got)
	}
	if got := d.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := d.Uint64(); got != 0x0123456789ABCDEF {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := d.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64 = %v", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -(1 << 33) {
		t.Errorf("Varint = %d", got)
	}
	if got := d.String(); got != "hello mochi" {
		t.Errorf("String = %q", got)
	}
	if got := d.BytesField(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	ss := d.StringSlice()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "ccc" {
		t.Errorf("StringSlice = %v", ss)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestFloat64SpecialValues(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		e := NewEncoder(nil)
		e.Float64(v)
		d := NewDecoder(e.Bytes())
		if got := d.Float64(); got != v {
			t.Errorf("Float64(%v) = %v", v, got)
		}
	}
	// NaN round trips to NaN (not equal to itself).
	e := NewEncoder(nil)
	e.Float64(math.NaN())
	if got := NewDecoder(e.Bytes()).Float64(); !math.IsNaN(got) {
		t.Errorf("NaN decoded as %v", got)
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.Uint32()
	if d.Err() != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", d.Err())
	}
	// After an error every read returns a zero value and keeps the error.
	if d.Uint64() != 0 || d.Err() != ErrShortBuffer {
		t.Fatal("decoder did not stay failed")
	}
}

func TestCorruptLengthPrefix(t *testing.T) {
	e := NewEncoder(nil)
	e.Uvarint(1 << 62) // declares a ridiculous string length
	d := NewDecoder(e.Bytes())
	if d.BytesField() != nil || d.Err() != ErrOverflow {
		t.Fatalf("want ErrOverflow, got %v", d.Err())
	}
}

func TestCorruptStringSliceCount(t *testing.T) {
	e := NewEncoder(nil)
	e.Uvarint(1 << 50)
	d := NewDecoder(e.Bytes())
	if d.StringSlice() != nil || d.Err() != ErrOverflow {
		t.Fatalf("want ErrOverflow, got %v", d.Err())
	}
}

// TestCount: a count is accepted exactly when the remaining input can
// hold that many minimum-size elements; otherwise the decoder fails —
// including when nothing at all follows the count, the case a guard
// that merely returned would let through as an empty message.
func TestCount(t *testing.T) {
	for _, tc := range []struct {
		count    uint64
		trailing int
		minBytes int
		ok       bool
	}{
		{0, 0, 1, true},
		{3, 3, 1, true},
		{3, 2, 1, false},
		{5, 0, 1, false}, // truncated right after the count
		{2, 16, 8, true},
		{2, 15, 8, false},
		{1 << 50, 4, 1, false},
	} {
		e := NewEncoder(nil)
		e.Uvarint(tc.count)
		d := NewDecoder(append(e.Bytes(), make([]byte, tc.trailing)...))
		n := d.fits(d.Uvarint(), tc.minBytes)
		if tc.ok && (d.Err() != nil || uint64(n) != tc.count) {
			t.Errorf("Count(%d) of %d with %d bytes left = %d, %v; want accepted", tc.minBytes, tc.count, tc.trailing, n, d.Err())
		}
		if !tc.ok && (d.Err() != ErrOverflow || n != 0) {
			t.Errorf("Count(%d) of %d with %d bytes left = %d, %v; want 0, ErrOverflow", tc.minBytes, tc.count, tc.trailing, n, d.Err())
		}
	}
}

// TestPaddedVarintRejected: a number has one encoding. The padded
// forms binary.Uvarint would accept ({0x80, 0x00} for 0, {0x81, 0x00}
// for 1) are refused, so an accepted message re-encodes to the bytes it
// came from.
func TestPaddedVarintRejected(t *testing.T) {
	for _, in := range [][]byte{{0x80, 0x00}, {0x81, 0x00}, {0xff, 0x80, 0x00}} {
		if d := NewDecoder(in); d.Uvarint() != 0 || d.Err() != ErrOverflow {
			t.Errorf("Uvarint(%x) accepted: %v", in, d.Err())
		}
		if d := NewDecoder(in); d.Varint() != 0 || d.Err() != ErrOverflow {
			t.Errorf("Varint(%x) accepted: %v", in, d.Err())
		}
	}
	for _, v := range []int64{0, 1, -1, 63, -64, 64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		e := NewEncoder(nil)
		e.Varint(v)
		e.Uvarint(uint64(v))
		d := NewDecoder(e.Bytes())
		if got, gotU := d.Varint(), d.Uvarint(); got != v || gotU != uint64(v) || d.Finish() != nil {
			t.Errorf("round trip of %d = %d, %d, %v", v, got, gotU, d.Finish())
		}
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint8(1)
	e.Uint8(2)
	d := NewDecoder(e.Bytes())
	d.Uint8()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish accepted trailing bytes")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint64(7)
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after Reset = %d", e.Len())
	}
	e.Uint8(9)
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1", e.Len())
	}
}

func TestEmptyVarintInput(t *testing.T) {
	d := NewDecoder(nil)
	d.Uvarint()
	if d.Err() != ErrOverflow {
		t.Fatalf("err = %v", d.Err())
	}
}

// Property: any (uint64, int64, string, []byte) tuple round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, s string, b []byte, f64 float64, ss []string) bool {
		e := NewEncoder(nil)
		e.Uvarint(u)
		e.Varint(i)
		e.String(s)
		e.BytesField(b)
		e.Float64(f64)
		e.StringSlice(ss)
		d := NewDecoder(e.Bytes())
		gu := d.Uvarint()
		gi := d.Varint()
		gs := d.String()
		gb := d.BytesField()
		gf := d.Float64()
		gss := d.StringSlice()
		if err := d.Finish(); err != nil {
			return false
		}
		if gu != u || gi != i || gs != s || !bytes.Equal(gb, b) {
			return false
		}
		if gf != f64 && !(math.IsNaN(gf) && math.IsNaN(f64)) {
			return false
		}
		if len(gss) != len(ss) {
			return false
		}
		for k := range ss {
			if gss[k] != ss[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary input.
func TestQuickDecoderRobustness(t *testing.T) {
	f := func(input []byte) bool {
		d := NewDecoder(input)
		d.Uvarint()
		_ = d.String()
		d.StringSlice()
		d.Uint64()
		d.BytesField()
		_ = d.Finish()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

type wirePair struct {
	Name string
	N    uint64
}

func (w *wirePair) Proc(p *Proc) {
	p.String(&w.Name)
	p.Uvarint(&w.N)
}

func TestMarshalUnmarshalHelpers(t *testing.T) {
	in := &wirePair{Name: "pool", N: 99}
	buf := Marshal(in)
	var out wirePair
	if err := Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Fatalf("round trip = %+v, want %+v", out, *in)
	}
	if err := Unmarshal(append(buf, 0), &out); err == nil {
		t.Fatal("Unmarshal accepted trailing data")
	}
}

func BenchmarkEncodeSmallMessage(b *testing.B) {
	e := NewEncoder(make([]byte, 0, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Uint64(uint64(i))
		e.String("echo")
		e.Uvarint(42)
	}
}

func BenchmarkDecodeSmallMessage(b *testing.B) {
	e := NewEncoder(nil)
	e.Uint64(7)
	e.String("echo")
	e.Uvarint(42)
	buf := e.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		d.Uint64()
		_ = d.String()
		d.Uvarint()
	}
}
