package mercury

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mochi/internal/codec"
)

func newPair(t *testing.T) (*Fabric, *Class, *Class) {
	t.Helper()
	f := NewFabric()
	a, err := f.NewClass("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.NewClass("b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return f, a, b
}

func ctxShort(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestEchoRPC(t *testing.T) {
	_, a, b := newPair(t)
	b.Register("echo", func(h *Handle) {
		if err := h.Respond(h.Input()); err != nil {
			t.Error(err)
		}
	})
	out, err := a.Forward(ctxShort(t), b.Addr(), NameToID("echo"), []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ping" {
		t.Fatalf("echo returned %q", out)
	}
}

func TestAddressFormat(t *testing.T) {
	_, a, _ := newPair(t)
	if a.Addr() != "sm://a" {
		t.Fatalf("addr = %q", a.Addr())
	}
}

func TestDuplicateEndpointRejected(t *testing.T) {
	f := NewFabric()
	if _, err := f.NewClass("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.NewClass("x"); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
}

func TestNoHandler(t *testing.T) {
	_, a, b := newPair(t)
	_, err := a.Forward(ctxShort(t), b.Addr(), NameToID("nothing"), nil)
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestHandlerError(t *testing.T) {
	_, a, b := newPair(t)
	b.Register("fail", func(h *Handle) {
		_ = h.RespondError(errors.New("backend exploded"))
	})
	_, err := a.Forward(ctxShort(t), b.Addr(), NameToID("fail"), nil)
	if !errors.Is(err, ErrRemoteFailure) {
		t.Fatalf("err = %v, want ErrRemoteFailure", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("backend exploded")) {
		t.Fatalf("error lost remote message: %v", err)
	}
}

func TestProviderMultiplexing(t *testing.T) {
	_, a, b := newPair(t)
	for _, pid := range []uint16{1, 2} {
		pid := pid
		b.RegisterProvider("whoami", pid, func(h *Handle) {
			_ = h.Respond([]byte(fmt.Sprintf("provider %d", pid)))
		})
	}
	for _, pid := range []uint16{1, 2} {
		out, err := a.ForwardProvider(ctxShort(t), b.Addr(), NameToID("whoami"), pid, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("provider %d", pid); string(out) != want {
			t.Fatalf("got %q, want %q", out, want)
		}
	}
	// Unknown provider with no AnyProvider fallback fails.
	if _, err := a.ForwardProvider(ctxShort(t), b.Addr(), NameToID("whoami"), 9, nil); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestAnyProviderFallback(t *testing.T) {
	_, a, b := newPair(t)
	b.Register("generic", func(h *Handle) { _ = h.Respond([]byte("any")) })
	out, err := a.ForwardProvider(ctxShort(t), b.Addr(), NameToID("generic"), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "any" {
		t.Fatalf("got %q", out)
	}
}

func TestDeregister(t *testing.T) {
	_, a, b := newPair(t)
	b.RegisterProvider("tmp", 3, func(h *Handle) { _ = h.Respond(nil) })
	if !b.Registered("tmp", 3) {
		t.Fatal("not registered")
	}
	b.Deregister("tmp", 3)
	if b.Registered("tmp", 3) {
		t.Fatal("still registered")
	}
	if _, err := a.ForwardProvider(ctxShort(t), b.Addr(), NameToID("tmp"), 3, nil); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
}

func TestSelfForward(t *testing.T) {
	_, a, _ := newPair(t)
	a.Register("self", func(h *Handle) { _ = h.Respond([]byte("me")) })
	out, err := a.Forward(ctxShort(t), a.Addr(), NameToID("self"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "me" {
		t.Fatalf("got %q", out)
	}
}

func TestNestedRPCInHandler(t *testing.T) {
	f, a, b := newPair(t)
	c, err := f.NewClass("c")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Register("leaf", func(h *Handle) { _ = h.Respond([]byte("leaf")) })
	// b's handler forwards to c before responding: must not deadlock.
	b.Register("mid", func(h *Handle) {
		out, err := h.Class().Forward(context.Background(), c.Addr(), NameToID("leaf"), nil)
		if err != nil {
			_ = h.RespondError(err)
			return
		}
		_ = h.Respond(append([]byte("mid+"), out...))
	})
	out, err := a.Forward(ctxShort(t), b.Addr(), NameToID("mid"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "mid+leaf" {
		t.Fatalf("got %q", out)
	}
}

func TestKillMakesUnreachable(t *testing.T) {
	f, a, b := newPair(t)
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	f.Kill(b.Addr())
	_, err := a.Forward(ctxShort(t), b.Addr(), NameToID("echo"), nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if !f.Killed(b.Addr()) {
		t.Fatal("Killed() = false")
	}
}

func TestUnknownAddressUnreachable(t *testing.T) {
	_, a, _ := newPair(t)
	_, err := a.Forward(ctxShort(t), "sm://ghost", NameToID("echo"), nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartitionDropsAndHealRestores(t *testing.T) {
	f, a, b := newPair(t)
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	f.Partition([]string{a.Addr()}, []string{b.Addr()})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.Forward(ctx, b.Addr(), NameToID("echo"), nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("partitioned forward err = %v, want ErrTimeout", err)
	}
	f.Heal()
	if _, err := a.Forward(ctxShort(t), b.Addr(), NameToID("echo"), nil); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestDropRateLosesMessages(t *testing.T) {
	f, a, b := newPair(t)
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	f.SetDropRate(1.0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.Forward(ctx, b.Addr(), NameToID("echo"), nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	f.SetDropRate(0)
	if _, err := a.Forward(ctxShort(t), b.Addr(), NameToID("echo"), nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveFreesName(t *testing.T) {
	f := NewFabric()
	a, _ := f.NewClass("re")
	a.Close()
	f.Remove(a.Addr())
	if _, err := f.NewClass("re"); err != nil {
		t.Fatalf("name not freed: %v", err)
	}
}

func TestClosedClassRejectsForward(t *testing.T) {
	_, a, b := newPair(t)
	a.Close()
	_, err := a.Forward(ctxShort(t), b.Addr(), NameToID("echo"), nil)
	if !errors.Is(err, ErrClassClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestPayloadIsolation(t *testing.T) {
	_, a, b := newPair(t)
	got := make(chan []byte, 1)
	b.Register("keep", func(h *Handle) {
		// Input() is only valid until Respond returns; copy to keep it.
		got <- append([]byte(nil), h.Input()...)
		_ = h.Respond(nil)
	})
	payload := []byte("original")
	if _, err := a.Forward(ctxShort(t), b.Addr(), NameToID("keep"), payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X' // mutate after send
	if string(<-got) != "original" {
		t.Fatal("receiver observed sender-side mutation")
	}
}

func TestConcurrentForwards(t *testing.T) {
	_, a, b := newPair(t)
	b.Register("double", func(h *Handle) {
		d := codec.NewDecoder(h.Input())
		v := d.Uint64()
		e := codec.NewEncoder(nil)
		e.Uint64(v * 2)
		_ = h.Respond(e.Bytes())
	})
	const n = 100
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			e := codec.NewEncoder(nil)
			e.Uint64(i)
			out, err := a.Forward(context.Background(), b.Addr(), NameToID("double"), e.Bytes())
			if err != nil {
				errs <- err
				return
			}
			if got := codec.NewDecoder(out).Uint64(); got != i*2 {
				errs <- fmt.Errorf("got %d want %d", got, i*2)
			}
		}(uint64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBulkPull(t *testing.T) {
	_, a, b := newPair(t)
	data := []byte("0123456789abcdef")
	remote := b.CreateBulk(data, BulkReadOnly)
	local := a.CreateBulk(make([]byte, 8), BulkReadWrite)
	if err := a.BulkTransfer(ctxShort(t), BulkPull, remote.Descriptor(), 4, local, 0, 8); err != nil {
		t.Fatal(err)
	}
	if string(local.mem) != "456789ab" {
		t.Fatalf("pulled %q", local.mem)
	}
}

func TestBulkPush(t *testing.T) {
	_, a, b := newPair(t)
	dst := make([]byte, 16)
	remote := b.CreateBulk(dst, BulkWriteOnly)
	local := a.CreateBulk([]byte("HELLO"), BulkReadOnly)
	if err := a.BulkTransfer(ctxShort(t), BulkPush, remote.Descriptor(), 3, local, 0, 5); err != nil {
		t.Fatal(err)
	}
	if string(dst[3:8]) != "HELLO" {
		t.Fatalf("dst = %q", dst)
	}
}

func TestBulkAccessEnforced(t *testing.T) {
	_, a, b := newPair(t)
	remote := b.CreateBulk(make([]byte, 8), BulkReadOnly)
	local := a.CreateBulk(make([]byte, 8), BulkReadWrite)
	err := a.BulkTransfer(ctxShort(t), BulkPush, remote.Descriptor(), 0, local, 0, 8)
	if !errors.Is(err, ErrBadBulk) {
		t.Fatalf("push to read-only: err = %v", err)
	}
}

func TestBulkBounds(t *testing.T) {
	_, a, b := newPair(t)
	remote := b.CreateBulk(make([]byte, 8), BulkReadWrite)
	local := a.CreateBulk(make([]byte, 8), BulkReadWrite)
	if err := a.BulkTransfer(ctxShort(t), BulkPull, remote.Descriptor(), 4, local, 0, 8); !errors.Is(err, ErrBulkBounds) {
		t.Fatalf("err = %v, want ErrBulkBounds", err)
	}
	if err := a.BulkTransfer(ctxShort(t), BulkPull, remote.Descriptor(), 0, local, 6, 4); !errors.Is(err, ErrBulkBounds) {
		t.Fatalf("err = %v, want ErrBulkBounds", err)
	}
}

func TestBulkFreedRegionFails(t *testing.T) {
	_, a, b := newPair(t)
	remote := b.CreateBulk(make([]byte, 8), BulkReadOnly)
	desc := remote.Descriptor()
	remote.Free()
	local := a.CreateBulk(make([]byte, 8), BulkReadWrite)
	if err := a.BulkTransfer(ctxShort(t), BulkPull, desc, 0, local, 0, 8); !errors.Is(err, ErrBadBulk) {
		t.Fatalf("err = %v", err)
	}
}

func TestBulkLocalFastPath(t *testing.T) {
	_, a, _ := newPair(t)
	src := a.CreateBulk([]byte("abcd"), BulkReadOnly)
	dst := a.CreateBulk(make([]byte, 4), BulkReadWrite)
	if err := a.BulkTransfer(ctxShort(t), BulkPull, src.Descriptor(), 0, dst, 0, 4); err != nil {
		t.Fatal(err)
	}
	if string(dst.mem) != "abcd" {
		t.Fatalf("dst = %q", dst.mem)
	}
}

func TestBulkSeesLaterWrites(t *testing.T) {
	_, a, b := newPair(t)
	data := make([]byte, 4)
	remote := b.CreateBulk(data, BulkReadOnly)
	copy(data, "LIVE") // write after registration
	local := a.CreateBulk(make([]byte, 4), BulkReadWrite)
	if err := a.BulkTransfer(ctxShort(t), BulkPull, remote.Descriptor(), 0, local, 0, 4); err != nil {
		t.Fatal(err)
	}
	if string(local.mem) != "LIVE" {
		t.Fatalf("got %q", local.mem)
	}
}

func TestBulkDescriptorRoundTrip(t *testing.T) {
	in := BulkDescriptor{Addr: "sm://x", ID: 42, Size: 1024, Access: uint8(BulkReadWrite)}
	buf := codec.Marshal(&in)
	var out BulkDescriptor
	if err := codec.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

type countingMonitor struct{ bulk atomic.Int64 }

func (m *countingMonitor) BulkTransferred(BulkOp, string, int) { m.bulk.Add(1) }

func TestMonitorCallbacks(t *testing.T) {
	_, a, b := newPair(t)
	ma, mb := &countingMonitor{}, &countingMonitor{}
	a.SetMonitor(ma)
	b.SetMonitor(mb)
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	if _, err := a.Forward(ctxShort(t), b.Addr(), NameToID("echo"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	remote := b.CreateBulk(make([]byte, 16), BulkReadOnly)
	local := a.CreateBulk(make([]byte, 16), BulkReadWrite)
	if err := a.BulkTransfer(ctxShort(t), BulkPull, remote.Descriptor(), 0, local, 0, 16); err != nil {
		t.Fatal(err)
	}
	if ma.bulk.Load() != 1 || mb.bulk.Load() != 0 {
		t.Fatalf("bulk transfers seen: initiator %d, target %d; want 1 and 0", ma.bulk.Load(), mb.bulk.Load())
	}
	a.SetMonitor(nil) // uninstall must not panic
	if _, err := a.Forward(ctxShort(t), b.Addr(), NameToID("echo"), nil); err != nil {
		t.Fatal(err)
	}
}

func TestHPCModelShape(t *testing.T) {
	m := DefaultHPCModel()
	small := m.Delay("sm://a", "sm://b", OpRPC, 64)
	big := m.Delay("sm://a", "sm://b", OpRPC, 1<<20)
	if small >= big {
		t.Fatalf("1MB RPC (%v) not slower than 64B RPC (%v)", big, small)
	}
	if d := m.Delay("sm://a", "sm://a", OpRPC, 1<<20); d != 0 {
		t.Fatalf("intra-node delay = %v, want 0", d)
	}
	// Bulk must amortize better than eager for the same large size.
	bulk := m.Delay("sm://a", "sm://b", OpBulk, 1<<20)
	if bulk >= big {
		t.Fatalf("bulk (%v) not cheaper than RPC (%v) at 1MB", bulk, big)
	}
}

func TestFabricModelDelaysDelivery(t *testing.T) {
	f, a, b := newPair(t)
	f.SetModel(&HPCModel{RPCOverhead: 20 * time.Millisecond, BytesPerSec: 1e12, EagerLimit: 1 << 20})
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	start := time.Now()
	if _, err := a.Forward(ctxShort(t), b.Addr(), NameToID("echo"), nil); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 40*time.Millisecond { // request + response
		t.Fatalf("round trip %v, want ≥40ms under 20ms/message model", el)
	}
}

func TestMessageWireRoundTrip(t *testing.T) {
	in := message{
		kind: msgRequest, seq: 7, id: NameToID("x"), provider: 3,
		src: "sm://a", status: 2, errmsg: "boom", auth: "tok",
		payload: []byte{1, 2},
		bulkID:  9, bulkOff: 10, bulkLen: 11,
	}
	buf := codec.Marshal(&in)
	var out message
	if err := codec.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.kind != in.kind || out.seq != in.seq || out.id != in.id ||
		out.provider != in.provider || out.src != in.src ||
		out.status != in.status || out.errmsg != in.errmsg || out.auth != in.auth ||
		!bytes.Equal(out.payload, in.payload) ||
		out.bulkID != in.bulkID || out.bulkOff != in.bulkOff || out.bulkLen != in.bulkLen {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func BenchmarkForwardZeroModel(b *testing.B) {
	f := NewFabric()
	ca, _ := f.NewClass("bench-a")
	cb, _ := f.NewClass("bench-b")
	defer ca.Close()
	defer cb.Close()
	cb.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	payload := make([]byte, 128)
	id := NameToID("echo")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.Forward(ctx, cb.Addr(), id, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkPull1MB(b *testing.B) {
	f := NewFabric()
	ca, _ := f.NewClass("bench-a")
	cb, _ := f.NewClass("bench-b")
	defer ca.Close()
	defer cb.Close()
	remote := cb.CreateBulk(make([]byte, 1<<20), BulkReadOnly)
	local := ca.CreateBulk(make([]byte, 1<<20), BulkReadWrite)
	desc := remote.Descriptor()
	ctx := context.Background()
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ca.BulkTransfer(ctx, BulkPull, desc, 0, local, 0, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}
