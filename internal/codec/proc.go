package codec

import (
	"reflect"
	"sync"
)

// Message is a type that describes its own encoding, once: Proc visits
// every field in wire order, and the same visit encodes or decodes
// depending on which way p runs (Mercury's hg_proc). What is on the
// wire is exactly the sequence of Proc calls, so a field added,
// reordered or retyped cannot be done on one side only. Encoding only
// reads the message (senders share messages): a description that
// carries a field through a local stores it back under p.Decoding().
type Message interface {
	Proc(p *Proc)
}

// Proc runs a Message's description in one direction: over an Encoder
// it appends each visited field, over a Decoder it fills each visited
// field from the input. It lives inside its Encoder or Decoder (get it
// with their Proc method), so a pooled encoder or decoder brings a
// Proc that costs no allocation.
//
// Decoding follows the Decoder's rules: the first error sticks, every
// later field reads as zero, and Unmarshal (or Decoder.Finish) reports
// it. Encoding cannot fail.
type Proc struct {
	e *Encoder // exactly one of e and d is set
	d *Decoder
}

// Proc returns the Proc that encodes into e.
func (e *Encoder) Proc() *Proc {
	e.proc.e = e
	return &e.proc
}

// Proc returns the Proc that decodes from d.
func (d *Decoder) Proc() *Proc {
	d.proc.d = d
	return &d.proc
}

// Decoding reports the direction. Most descriptions never ask; it is
// for the few that validate what arrived or rebuild derived state.
func (p *Proc) Decoding() bool { return p.d != nil }

// Fail rejects the input being decoded with err, unless an earlier
// error already did. It does nothing while encoding.
func (p *Proc) Fail(err error) {
	if p.d != nil {
		p.d.fail(err)
	}
}

// field is every primitive below: the one branch between the two
// directions.
func field[T any](p *Proc, v *T, decode func(*Decoder) T, encode func(*Encoder, T)) {
	if p.d != nil {
		*v = decode(p.d)
	} else {
		encode(p.e, *v)
	}
}

func (p *Proc) Uint8(v *uint8)   { field(p, v, (*Decoder).Uint8, (*Encoder).Uint8) }
func (p *Proc) Bool(v *bool)     { field(p, v, (*Decoder).Bool, (*Encoder).Bool) }
func (p *Proc) Uint16(v *uint16) { field(p, v, (*Decoder).Uint16, (*Encoder).Uint16) }
func (p *Proc) Uint32(v *uint32) { field(p, v, (*Decoder).Uint32, (*Encoder).Uint32) }
func (p *Proc) Uint64(v *uint64) { field(p, v, (*Decoder).Uint64, (*Encoder).Uint64) }
func (p *Proc) Int64(v *int64)   { field(p, v, (*Decoder).Int64, (*Encoder).Int64) }

// Uvarint is an unsigned LEB128 integer.
func (p *Proc) Uvarint(v *uint64) { field(p, v, (*Decoder).Uvarint, (*Encoder).Uvarint) }

// String is a length-prefixed string; decoding copies it. StringIntern
// decodes through the intern table instead, for values that repeat
// from message to message (see Decoder.StringIntern).
func (p *Proc) String(v *string)       { field(p, v, (*Decoder).String, (*Encoder).String) }
func (p *Proc) StringIntern(v *string) { field(p, v, (*Decoder).StringIntern, (*Encoder).String) }

// Strings is a count-prefixed list of strings.
func (p *Proc) Strings(v *[]string) { field(p, v, (*Decoder).StringSlice, (*Encoder).StringSlice) }

// Bytes is a length-prefixed byte string that, decoded, aliases the
// input: valid exactly as long as the input buffer is (see DESIGN.md
// "Hot-path memory discipline"). A field that outlives the buffer is a
// BytesCopy, which decodes into memory the message owns; that choice
// is the whole difference between the two.
func (p *Proc) Bytes(v *[]byte)     { field(p, v, (*Decoder).BytesField, (*Encoder).BytesField) }
func (p *Proc) BytesCopy(v *[]byte) { field(p, v, (*Decoder).BytesFieldCopy, (*Encoder).BytesField) }

// Slice is a count-prefixed list whose elements elem describes. When
// decoding it is the one place that faces a hostile count: the count
// must fit the remaining input at the fewest bytes an element can
// take, so it neither sizes an allocation past the input nor — when
// nothing follows it — passes for an empty list; then the slice is
// allocated once and filled until the first error. An empty list
// decodes as nil, a failed one leaves nil.
//
// The fewest bytes an element can take is what elem encodes a zero T
// in (a zero integer, varint, empty string or empty list is as short as
// its kind gets), measured the first time elem is seen — so elem is a
// plain function or a literal whose encoding of a zero element does
// not depend on what it captured.
func Slice[T any](p *Proc, s *[]T, elem func(*Proc, *T)) {
	if p.d == nil {
		p.e.Uvarint(uint64(len(*s)))
		for i := range *s {
			elem(p, &(*s)[i])
		}
		return
	}
	*s = nil
	count := p.d.Uvarint()
	if count == 0 {
		return
	}
	n := p.d.fits(count, zeroLen(elem))
	if n == 0 {
		return
	}
	out := make([]T, n)
	for i := range out {
		elem(p, &out[i])
		if p.d.err != nil {
			return
		}
	}
	*s = out
}

// zeroLens maps an element routine (by its code pointer, which no two
// routines share) to the number of bytes it encodes a zero element in.
var zeroLens sync.Map

func zeroLen[T any](elem func(*Proc, *T)) int {
	pc := reflect.ValueOf(elem).UnsafePointer()
	if n, ok := zeroLens.Load(pc); ok {
		return n.(int)
	}
	e := GetEncoder()
	elem(e.Proc(), new(T))
	n := max(e.Len(), 1)
	PutEncoder(e)
	zeroLens.Store(pc, n)
	return n
}
