package mercury

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"mochi/internal/testutil"
)

func fillPattern(b []byte, salt byte) {
	for i := range b {
		b[i] = byte(i*7) ^ salt
	}
}

// TestTCPBulkLargeTransfers moves payloads on both sides of
// bulkFrameMin in both directions and at offsets: the gathered send
// and the direct ack landing must produce exactly the bytes the
// copying path does.
//
// Both "processes" share this test's address space, and the race
// detector cannot see that the network orders their accesses: remote
// memory is therefore only touched before CreateBulk and after Free,
// which synchronize with the serving side.
func TestTCPBulkLargeTransfers(t *testing.T) {
	a, b := newTCPPair(t)
	for _, size := range []int{8, bulkFrameMin - 1, bulkFrameMin, 1 << 20, 4<<20 + 3} {
		src := make([]byte, size+32)
		fillPattern(src, byte(size))
		remote := b.CreateBulk(src, BulkReadOnly)
		local := a.CreateBulk(make([]byte, size+16), BulkReadWrite)
		if err := a.BulkTransfer(ctxShort(t), BulkPull, remote.Descriptor(), 32, local, 16, uint64(size)); err != nil {
			t.Fatalf("pull %d: %v", size, err)
		}
		remote.Free()
		if !bytes.Equal(local.mem[16:], src[32:]) {
			t.Fatalf("pull %d: payload differs", size)
		}
		if !bytes.Equal(local.mem[:16], make([]byte, 16)) {
			t.Fatalf("pull %d: wrote before the local offset", size)
		}

		sink := make([]byte, size+8)
		remote = b.CreateBulk(sink, BulkWriteOnly)
		if err := a.BulkTransfer(ctxShort(t), BulkPush, remote.Descriptor(), 8, local, 16, uint64(size)); err != nil {
			t.Fatalf("push %d: %v", size, err)
		}
		remote.Free()
		if !bytes.Equal(sink[8:], local.mem[16:]) {
			t.Fatalf("push %d: payload differs", size)
		}
		local.Free()
	}
}

// TestBulkAckLateAndDuplicateDropped feeds the connection read path an
// ack, its transport-level duplicate, and an ack for a pull that
// already gave up: the first fills the registered region, the other
// two are drained off the stream and never written anywhere.
func TestBulkAckLateAndDuplicateDropped(t *testing.T) {
	payload := make([]byte, fuzzLanding)
	fillPattern(payload, 1)
	ack := validFrameKind(msgBulkAck, payload)
	tr, br := frameReader(append(append(append([]byte(nil), ack...), ack...), ack...))
	c := tr.class

	region := make([]byte, fuzzLanding)
	ch := getReplyChan()
	c.pending.add(7, ch)
	c.landings[7] = region
	var scratch []byte
	m, err := tr.readMessage(br, &scratch)
	if err != nil || !m.landed || m.payload != nil {
		t.Fatalf("first ack: m=%+v err=%v, want a landed message", m, err)
	}
	if !bytes.Equal(region, payload) {
		t.Fatal("first ack did not fill the registered region")
	}
	putMessage(m)

	// The duplicate finds the region claimed; the third copy finds a
	// pull that timed out and withdrew it. The caller owns the memory
	// again in both cases.
	fillPattern(region, 0xEE)
	want := append([]byte(nil), region...)
	c.landings[7] = region
	if !c.cancelLanding(7) {
		t.Fatal("an unclaimed landing did not cancel")
	}
	if m, err = tr.readMessage(br, &scratch); err != io.EOF {
		t.Fatalf("after the first ack: m=%v err=%v, want both copies drained to EOF", m, err)
	}
	if !bytes.Equal(region, want) {
		t.Fatal("a late or duplicate ack wrote into memory its pull no longer owns")
	}
	if cap(scratch) != 0 {
		t.Fatalf("dropped acks grew the frame scratch to %d bytes", cap(scratch))
	}
}

// TestBulkAckTruncatedReleasesInitiator: once a reader has claimed a
// region the initiator waits for it past its own deadline (the memory
// is being written), so a connection that dies mid-payload must still
// deliver — as a failure.
func TestBulkAckTruncatedReleasesInitiator(t *testing.T) {
	ack := validFrameKind(msgBulkAck, make([]byte, fuzzLanding))
	tr, br := frameReader(ack[:len(ack)/2])
	c := tr.class
	ch := getReplyChan()
	c.pending.add(7, ch)
	c.landings[7] = make([]byte, fuzzLanding)
	var scratch []byte
	if _, err := tr.readMessage(br, &scratch); err == nil {
		t.Fatal("truncated ack read without error")
	}
	select {
	case m := <-ch:
		if m.status == 0 || m.landed {
			t.Fatalf("truncated ack delivered as success: %+v", m)
		}
	default:
		t.Fatal("initiator left waiting after its claimed ack's connection died")
	}
}

// TestTCPBulkPullUnderChaos pulls a region whose contents change every
// round while the serving class duplicates, delays and drops its acks:
// a pull that reports success must hold exactly that round's bytes —
// a duplicate or late ack of an earlier round never lands.
func TestTCPBulkPullUnderChaos(t *testing.T) {
	a, b := newTCPPair(t)
	b.SetChaos(NewChaos(ChaosConfig{
		Seed:      11,
		DropRate:  0.1,
		DupRate:   0.5,
		DelayRate: 0.3,
		DelayMin:  time.Millisecond,
		DelayMax:  4 * time.Millisecond,
	}))
	const size = 256 << 10
	src := make([]byte, size)
	local := a.CreateBulk(make([]byte, size), BulkReadWrite)
	timeouts := 0
	for round := 0; round < 60; round++ {
		// Registered per round: see TestTCPBulkLargeTransfers.
		fillPattern(src, byte(round))
		remote := b.CreateBulk(src, BulkReadOnly)
		for attempt := 0; ; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			err := a.BulkTransfer(ctx, BulkPull, remote.Descriptor(), 0, local, 0, size)
			cancel()
			if err == nil {
				break
			}
			if !errors.Is(err, ErrTimeout) || attempt > 20 {
				t.Fatalf("round %d: %v", round, err)
			}
			timeouts++
		}
		remote.Free()
		if !bytes.Equal(local.mem, src) {
			t.Fatalf("round %d: pulled bytes are not this round's", round)
		}
	}
	if st := b.chaos.Load().Stats(); st.Dups == 0 || timeouts == 0 {
		t.Fatalf("chaos never bit: %+v, %d timeouts", st, timeouts)
	}
}

// TestBulkPullAllocsPinned: a 4 MiB pull over TCP allocates O(1), not
// O(size) — the source gathers the registered region onto the wire and
// the initiator reads the ack's payload straight into its own region.
// Before, each pull cost ~5x its size (encoder growth on the source,
// frame scratch growth and a payload copy on the initiator).
func TestBulkPullAllocsPinned(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	a, b := newTCPPair(t)
	const size = 4 << 20
	src := make([]byte, size)
	fillPattern(src, 3)
	remote := b.CreateBulk(src, BulkReadOnly)
	local := a.CreateBulk(make([]byte, size), BulkReadWrite)
	desc := remote.Descriptor()
	ctx := context.Background()
	pull := func() {
		if err := a.BulkTransfer(ctx, BulkPull, desc, 0, local, 0, size); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		pull()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pull()
	}
	runtime.ReadMemStats(&after)
	perPull := (after.TotalAlloc - before.TotalAlloc) / runs
	if perPull > 16<<10 {
		t.Fatalf("a %d-byte pull allocates %d bytes, pinned at <= 16 KiB", size, perPull)
	}
	if avg := testing.AllocsPerRun(runs, pull); avg > 8 {
		t.Fatalf("a pull allocates %.1f times, pinned at <= 8", avg)
	}
	if !bytes.Equal(local.mem, src) {
		t.Fatal("payload differs")
	}
}
