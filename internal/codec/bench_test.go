package codec

import (
	"testing"
)

// benchMsg exercises every encoder primitive the RPC header and the
// yokan wire types use.
type benchMsg struct {
	Kind   uint8
	Seq    uint64
	ID     uint32
	Prov   uint16
	OK     bool
	Name   string
	Key    []byte
	Value  []byte
	Weight uint64
}

func (m *benchMsg) Proc(p *Proc) {
	p.Uint8(&m.Kind)
	p.Uint64(&m.Seq)
	p.Uint32(&m.ID)
	p.Uint16(&m.Prov)
	p.Bool(&m.OK)
	p.String(&m.Name)
	p.Bytes(&m.Key)
	p.Bytes(&m.Value)
	p.Uint64(&m.Weight)
}

var benchIn = benchMsg{
	Kind:   2,
	Seq:    1 << 40,
	ID:     0xdeadbeef,
	Prov:   42,
	OK:     true,
	Name:   "yokan_put",
	Key:    []byte("bench-key-0123456789"),
	Value:  []byte("bench-value-abcdefghijklmnopqrstuvwxyz"),
	Weight: 0x400921f9f01b866e,
}

// BenchmarkCodecMarshal measures a fresh-buffer Marshal per op, the
// seed-code pattern on every RPC argument encode.
func BenchmarkCodecMarshal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Marshal(&benchIn)
	}
}

// BenchmarkCodecRoundTrip measures Marshal + Unmarshal of a
// representative header-sized message.
func BenchmarkCodecRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Marshal(&benchIn)
		var out benchMsg
		if err := Unmarshal(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecPooledRoundTrip measures the hot-path pattern the RPC
// layers use: pooled encoder + zero-copy decode. The single remaining
// allocation is the owned copy of the Name string. Primitive/bytes-only
// messages are allocation-free — see TestCodecAllocsPinned.
func BenchmarkCodecPooledRoundTrip(b *testing.B) {
	b.ReportAllocs()
	var out benchMsg
	for i := 0; i < b.N; i++ {
		e := GetEncoder()
		benchIn.Proc(e.Proc())
		d := GetDecoder(e.Bytes())
		out.Proc(d.Proc())
		if err := d.Finish(); err != nil {
			b.Fatal(err)
		}
		PutDecoder(d)
		PutEncoder(e)
	}
}
