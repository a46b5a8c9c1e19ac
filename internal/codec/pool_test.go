package codec

import (
	"bytes"
	"testing"

	"mochi/internal/testutil"
)

func TestPooledEncoderRoundTrip(t *testing.T) {
	e := GetEncoder()
	e.Uint32(7)
	e.BytesField([]byte("payload"))
	got := append([]byte(nil), e.Bytes()...)
	PutEncoder(e)

	e2 := GetEncoder()
	defer PutEncoder(e2)
	if e2.Len() != 0 {
		t.Fatalf("pooled encoder not reset: len %d", e2.Len())
	}
	d := GetDecoder(got)
	if v := d.Uint32(); v != 7 {
		t.Fatalf("got %d", v)
	}
	if b := d.BytesField(); string(b) != "payload" {
		t.Fatalf("got %q", b)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	PutDecoder(d)
}

func TestPutEncoderDropsOversized(t *testing.T) {
	e := GetEncoder()
	e.BytesField(make([]byte, maxPooledBuf+1))
	PutEncoder(e) // must not retain a >64KiB buffer; nothing to assert beyond not panicking
}

// TestBytesFieldAliasesInput pins the zero-copy contract: BytesField
// shares the input buffer, BytesFieldCopy does not.
func TestBytesFieldAliasesInput(t *testing.T) {
	e := GetEncoder()
	e.BytesField([]byte("alias"))
	e.BytesField([]byte("owned"))
	buf := append([]byte(nil), e.Bytes()...)
	PutEncoder(e)

	d := NewDecoder(buf)
	ref := d.BytesField()
	own := d.BytesFieldCopy()
	if string(ref) != "alias" || string(own) != "owned" {
		t.Fatalf("decode mismatch: %q %q", ref, own)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	if string(ref) != "XXXXX" {
		t.Fatalf("BytesField should alias the input, got %q after mutation", ref)
	}
	if string(own) != "owned" {
		t.Fatalf("BytesFieldCopy must be independent of the input, got %q", own)
	}
}

func TestMarshalAppendReusesScratch(t *testing.T) {
	m := &benchMsg{Seq: 1, Key: []byte("abc"), Name: "s"}
	scratch := make([]byte, 0, 256)
	out := MarshalAppend(scratch, m)
	if &out[0] != &scratch[:1][0] {
		t.Fatal("MarshalAppend did not use the provided scratch buffer")
	}
	if !bytes.Equal(out, Marshal(m)) {
		t.Fatal("MarshalAppend and Marshal disagree")
	}
}

func TestBufferPoolClasses(t *testing.T) {
	b := GetBuffer(100)
	if cap(b) < 100 || len(b) != 0 {
		t.Fatalf("GetBuffer(100): len %d cap %d", len(b), cap(b))
	}
	if cap(b) != 128 {
		t.Fatalf("expected 128-byte class, got %d", cap(b))
	}
	PutBuffer(b)
	b2 := GetBuffer(100)
	if &b2[:1][0] != &b[:1][0] {
		t.Fatal("expected recycled buffer from the pool")
	}
	PutBuffer(b2)

	big := GetBuffer(maxPooledBuf + 1)
	if cap(big) < maxPooledBuf+1 {
		t.Fatal("oversized GetBuffer too small")
	}
	PutBuffer(big)                   // dropped, not pooled
	PutBuffer(make([]byte, 0, 100))  // non-power-of-two cap: dropped
	PutBuffer(make([]byte, 0, 1<<5)) // below minimum class: dropped
	if got := AppendBuffer([]byte("xyz")); string(got) != "xyz" {
		t.Fatalf("AppendBuffer got %q", got)
	}
}

// TestPooledBufferMutationAfterPut proves the ownership rule the RPC
// layers rely on: data copied out of a pooled buffer before PutBuffer
// stays intact when the recycled buffer is overwritten by its next
// owner.
func TestPooledBufferMutationAfterPut(t *testing.T) {
	src := AppendBuffer([]byte("precious"))
	kept := append([]byte(nil), src...)
	PutBuffer(src)
	next := GetBuffer(8)
	next = append(next, "garbage!"...)
	if string(kept) != "precious" {
		t.Fatalf("copy corrupted by pool reuse: %q", kept)
	}
	PutBuffer(next)
}

// pinMsg is a primitive-and-bytes-only message, pinList one with a
// list in it.
type pinMsg struct {
	Seq uint64
	Key []byte
}

func (m *pinMsg) Proc(p *Proc) {
	p.Uint64(&m.Seq)
	p.Bytes(&m.Key)
}

type pinList struct {
	Seq  uint64
	Keys [][]byte
}

func (m *pinList) Proc(p *Proc) {
	p.Uint64(&m.Seq)
	Slice(p, &m.Keys, (*Proc).Bytes)
}

// TestCodecAllocsPinned fails if a message's round trip through the
// pooled encoder and decoder — the path margo's Call/Serve/Reply take,
// interface call included — regresses from its steady state: nothing
// for a primitive-and-bytes-only message, the list itself and nothing
// else for one that carries a list.
func TestCodecAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	key := []byte("0123456789abcdef")
	for _, c := range []struct {
		in, out Message
		want    float64
	}{
		{&pinMsg{Seq: 42, Key: key}, &pinMsg{}, 0},
		{&pinList{Seq: 42, Keys: [][]byte{key, key, key}}, &pinList{}, 1},
	} {
		avg := testing.AllocsPerRun(200, func() {
			e := GetEncoder()
			c.in.Proc(e.Proc())
			d := GetDecoder(e.Bytes())
			c.out.Proc(d.Proc())
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			PutDecoder(d)
			PutEncoder(e)
		})
		if avg != c.want {
			t.Errorf("%T: pooled round trip allocates %.1f times per op, want %.0f", c.in, avg, c.want)
		}
	}
}
