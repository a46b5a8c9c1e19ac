// Pooling for the codec hot path. The RPC layers encode and decode a
// header-sized message per send and per receive; without reuse, every
// one of those costs an Encoder/Decoder allocation (the values escape
// through the Message interface) plus a backing buffer.
// The pools below make the steady-state cost zero, mirroring the
// caller-owned-buffer discipline of Mercury's hg_proc.
//
// Ownership rules (see DESIGN.md "Hot-path memory discipline"):
//
//   - After PutEncoder/PutDecoder, every slice obtained from the
//     value is invalid: the backing buffer will be reused.
//     Copy anything that must survive before calling Put.
//   - GetBuffer/PutBuffer recycle payload-sized scratch; a buffer may
//     only be Put once, by whoever holds ownership last.
package codec

import "sync"

// maxPooledBuf bounds what the encoder and buffer pools retain, so a
// single huge message does not pin megabytes inside pools forever.
const maxPooledBuf = 64 << 10

var encoderPool = sync.Pool{New: func() any { return &Encoder{} }}

// GetEncoder returns a reset Encoder from the pool. Pair with
// PutEncoder once the encoded bytes have been consumed (sent or
// copied).
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder recycles e. The buffer returned by e.Bytes() must no
// longer be referenced by the caller.
func PutEncoder(e *Encoder) {
	if e == nil || cap(e.buf) > maxPooledBuf {
		return
	}
	e.buf = e.buf[:0]
	encoderPool.Put(e)
}

var decoderPool = sync.Pool{New: func() any { return &Decoder{} }}

// GetDecoder returns a pooled Decoder reading from buf. Pair with
// PutDecoder; zero-copy results (BytesField) remain valid
// afterwards only as long as buf itself is.
func GetDecoder(buf []byte) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.buf = buf
	d.off = 0
	d.err = nil
	return d
}

// PutDecoder recycles d. The decoder drops its reference to the input
// buffer so pooling never pins caller memory.
func PutDecoder(d *Decoder) {
	if d == nil {
		return
	}
	d.buf = nil
	d.off = 0
	d.err = nil
	decoderPool.Put(d)
}

// bufClass maps a size to a power-of-two pool class: class i holds
// buffers of capacity 1<<(minBufBits+i).
const (
	minBufBits = 6 // 64 B
	maxBufBits = 16
	numClasses = maxBufBits - minBufBits + 1
)

// bufPools are bounded free-lists of slice headers. Channels rather
// than sync.Pool for two reasons: sending a []byte through a channel
// does not box it into an interface (sync.Pool.Put of a slice
// allocates a header copy on every call, which would put an alloc
// right back on the path the pool exists to clear), and the free-list
// survives GC cycles so alloc-pinning tests are deterministic. Each
// class is capped at ~1 MiB of retained memory.
var bufPools [numClasses]chan []byte

func init() {
	for c := range bufPools {
		size := 1 << (minBufBits + c)
		slots := (1 << 20) / size
		if slots < 8 {
			slots = 8
		}
		if slots > 1024 {
			slots = 1024
		}
		bufPools[c] = make(chan []byte, slots)
	}
}

func classFor(n int) int {
	c := 0
	for size := 1 << minBufBits; size < n; size <<= 1 {
		c++
	}
	return c
}

// GetBuffer returns a zero-length buffer with capacity >= n from the
// size-classed pool, or a fresh allocation for n > 64 KiB. Return it
// with PutBuffer when ownership ends.
func GetBuffer(n int) []byte {
	if n > maxPooledBuf {
		return make([]byte, 0, n)
	}
	c := classFor(n)
	select {
	case b := <-bufPools[c]:
		return b[:0]
	default:
		return make([]byte, 0, 1<<(minBufBits+c))
	}
}

// PutBuffer recycles a buffer obtained from GetBuffer (or any buffer
// whose capacity is an exact pool class size). Buffers of other
// capacities, oversized ones, and overflow beyond the per-class bound
// are left for the GC.
func PutBuffer(b []byte) {
	c := cap(b)
	if c < 1<<minBufBits || c > maxPooledBuf || c&(c-1) != 0 {
		return
	}
	select {
	case bufPools[classFor(c)] <- b[:0]:
	default:
	}
}

// AppendBuffer copies src into a pooled buffer (GetBuffer semantics):
// the result has the same contents but pool-recyclable backing memory.
func AppendBuffer(src []byte) []byte {
	return append(GetBuffer(len(src)), src...)
}
