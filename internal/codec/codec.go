// Package codec implements the compact binary wire format used by the
// mercury RPC layer for RPC headers and by components for their
// argument structures. It favours simplicity and zero external
// dependencies: little-endian fixed-width integers, unsigned varints
// for lengths, and length-prefixed byte strings.
//
// It has two layers. Encoder and Decoder are the primitives: append a
// value, consume a value. On top of them a message states its fields
// once, as a Proc method (proc.go) that the library runs in encode or
// in decode mode — Mercury's "hg_proc" serialization callbacks — and
// Marshal, Unmarshal and margo's RPC binding take any such Message.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShortBuffer is returned when a Decoder runs out of input.
var ErrShortBuffer = errors.New("codec: short buffer")

// ErrOverflow is returned when a varint is malformed or a declared
// length exceeds the remaining input.
var ErrOverflow = errors.New("codec: length overflow")

// MaxStringLen bounds decoded string/byte lengths to protect against
// corrupt or hostile inputs declaring absurd allocations.
const MaxStringLen = 1 << 30

// Encoder appends primitive values to a byte buffer.
type Encoder struct {
	buf  []byte
	proc Proc
}

// NewEncoder returns an encoder writing into buf (may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse, keeping the allocation.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
}
func (e *Encoder) Uint16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}
func (e *Encoder) Int64(v int64)     { e.Uint64(uint64(v)) }
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Uvarint appends v using unsigned LEB128.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends v using zig-zag LEB128.
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Bytes appends a length-prefixed byte string.
func (e *Encoder) BytesField(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// StringSlice appends a count-prefixed slice of strings.
func (e *Encoder) StringSlice(ss []string) { Slice(e.Proc(), &ss, (*Proc).String) }

// Decoder consumes primitive values from a byte buffer.
type Decoder struct {
	buf  []byte
	off  int
	err  error
	proc Proc
}

// NewDecoder returns a decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) { //nolint:unparam
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail(ErrShortBuffer)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) Uint8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Decoder) Bool() bool { return d.Uint8() != 0 }

func (d *Decoder) Uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *Decoder) Int64() int64     { return int64(d.Uint64()) }
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	// A multi-byte encoding that ends in a zero byte is a padded form
	// of a smaller number. No encoder writes one, and accepting it
	// would let two different byte strings be the same message.
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		d.fail(ErrOverflow)
		return 0
	}
	d.off += n
	return v
}

func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// BytesField decodes a length-prefixed byte string. This is the
// zero-copy variant: the returned slice aliases the decoder's buffer,
// so it is valid exactly as long as the input buffer is — callers that
// retain it past the buffer's lifetime (see DESIGN.md "Hot-path memory
// discipline") must copy, e.g. with BytesFieldCopy.
func (d *Decoder) BytesField() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxStringLen || n > uint64(d.Remaining()) {
		d.fail(ErrOverflow)
		return nil
	}
	return d.take(int(n))
}

// BytesFieldCopy decodes a length-prefixed byte string into freshly
// owned memory, safe to retain indefinitely.
func (d *Decoder) BytesFieldCopy() []byte {
	b := d.BytesField()
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String decodes a length-prefixed string. Strings are immutable, so
// this always copies.
func (d *Decoder) String() string { return string(d.BytesField()) }

// StringIntern decodes a length-prefixed string through the small-
// string intern table: repeated wire values (source addresses, RPC
// names, auth tokens) resolve to one shared owned copy, so the steady
// state allocates nothing. The result is always safe to retain — on an
// intern miss the string is copied before it is cached.
func (d *Decoder) StringIntern() string {
	b := d.BytesField()
	return Intern(b)
}

// fits admits an element count n, just read, whose elements each occupy
// at least minBytes (≥ 1) of input. A count the remaining input cannot
// hold fails the decoder with ErrOverflow and returns 0, so Slice may
// size its allocation by the result: a hostile count neither allocates
// past the input nor — when nothing follows it — decodes as a valid
// empty collection.
func (d *Decoder) fits(n uint64, minBytes int) int {
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()/minBytes) {
		d.fail(ErrOverflow)
		return 0
	}
	return int(n)
}

// StringSlice decodes a count-prefixed slice of strings.
func (d *Decoder) StringSlice() (ss []string) {
	Slice(d.Proc(), &ss, (*Proc).String)
	return ss
}

// Finish reports an error if decoding failed or if input remains.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("codec: %d trailing bytes", d.Remaining())
	}
	return nil
}

// Marshal encodes m into a fresh buffer.
func Marshal(m Message) []byte {
	e := NewEncoder(nil)
	m.Proc(e.Proc())
	return e.Bytes()
}

// MarshalAppend encodes m appended to dst (which may be nil or a
// recycled scratch buffer) and returns the extended slice. It is the
// allocation-free Marshal: steady-state callers pass the previous
// result truncated with dst[:0].
func MarshalAppend(dst []byte, m Message) []byte {
	// A pooled encoder, lent dst as its buffer for the one call: one on
	// the stack would escape through the interface call and allocate.
	e := GetEncoder()
	own := e.buf
	e.buf = dst
	m.Proc(e.Proc())
	dst, e.buf = e.buf, own
	PutEncoder(e)
	return dst
}

// Unmarshal decodes buf into m, requiring full consumption.
func Unmarshal(buf []byte, m Message) error {
	d := GetDecoder(buf)
	m.Proc(d.Proc())
	err := d.Finish()
	PutDecoder(d)
	return err
}
