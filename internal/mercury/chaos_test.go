package mercury

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func newChaosPair(t *testing.T) (*Class, *Class) {
	t.Helper()
	f := NewFabric()
	cli, err := f.NewClass("chaos-cli")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := f.NewClass("chaos-srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

func TestChaosDropCausesTimeout(t *testing.T) {
	cli, srv := newChaosPair(t)
	srv.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	ct := NewChaos(ChaosConfig{Seed: 1, DropRate: 1})
	cli.SetChaos(ct)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := cli.Forward(ctx, srv.Addr(), NameToID("echo"), []byte("gone"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout (dropped request must look like loss)", err)
	}
	if st := ct.Stats(); st.Drops == 0 {
		t.Fatalf("stats = %+v, want Drops > 0", st)
	}
}

func TestChaosResetFailsFast(t *testing.T) {
	cli, srv := newChaosPair(t)
	ct := NewChaos(ChaosConfig{Seed: 1, ResetRate: 1})
	cli.SetChaos(ct)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := cli.Forward(ctx, srv.Addr(), NameToID("echo"), nil)
	if !errors.Is(err, ErrConnReset) {
		t.Fatalf("err = %v, want ErrConnReset", err)
	}
	if !strings.Contains(err.Error(), srv.Addr()) {
		t.Fatalf("reset error %q does not name destination", err)
	}
	if st := ct.Stats(); st.Resets == 0 {
		t.Fatalf("stats = %+v, want Resets > 0", st)
	}
}

func TestChaosDelayHoldsMessage(t *testing.T) {
	cli, srv := newChaosPair(t)
	srv.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	ct := NewChaos(ChaosConfig{
		Seed:      1,
		DelayRate: 1,
		DelayMin:  30 * time.Millisecond,
		DelayMax:  60 * time.Millisecond,
	})
	cli.SetChaos(ct)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	out, err := cli.Forward(ctx, srv.Addr(), NameToID("echo"), []byte("late"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "late" {
		t.Fatalf("out = %q", out)
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("forward returned after %v, want >= DelayMin (30ms)", el)
	}
	if st := ct.Stats(); st.Delays == 0 {
		t.Fatalf("stats = %+v, want Delays > 0", st)
	}
}

// TestChaosDuplicateDelivery checks a duplicated request reaches the
// handler twice while the caller still sees exactly one clean reply —
// the at-least-once behavior layers above must tolerate.
func TestChaosDuplicateDelivery(t *testing.T) {
	cli, srv := newChaosPair(t)
	var calls atomic.Int64
	srv.Register("count", func(h *Handle) {
		calls.Add(1)
		_ = h.Respond([]byte("ok"))
	})
	ct := NewChaos(ChaosConfig{Seed: 1, DupRate: 1})
	cli.SetChaos(ct)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := cli.Forward(ctx, srv.Addr(), NameToID("count"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" {
		t.Fatalf("out = %q", out)
	}
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("handler ran %d times, want 2 (duplicate delivery)", calls.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := ct.Stats(); st.Dups == 0 {
		t.Fatalf("stats = %+v, want Dups > 0", st)
	}
}

// TestChaosScheduleReproducible: the same seed must yield the same
// fault decisions, and the sequence must not depend on which fault
// classes are enabled (every variate is always drawn).
func TestChaosScheduleReproducible(t *testing.T) {
	cfg := ChaosConfig{
		DropRate:  0.3,
		ResetRate: 0.1,
		DelayRate: 0.2,
		DelayMin:  time.Millisecond,
		DelayMax:  2 * time.Millisecond,
		DupRate:   0.15,
	}
	a := NewChaos(ChaosConfig{Seed: 42})
	b := NewChaos(ChaosConfig{Seed: 42})
	ca, cb := cfg, cfg
	ca.Seed, cb.Seed = 42, 42
	a.Configure(ca)
	b.Configure(cb)
	for i := 0; i < 500; i++ {
		if da, db := a.Decide(), b.Decide(); da != db {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, da, db)
		}
	}

	// A different seed produces a different schedule.
	c := NewChaos(ChaosConfig{Seed: 43})
	cc := cfg
	cc.Seed = 43
	c.Configure(cc)
	d := NewChaos(ChaosConfig{Seed: 42})
	cd := cfg
	cd.Seed = 42
	d.Configure(cd)
	same := true
	for i := 0; i < 500; i++ {
		if c.Decide() != d.Decide() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 500-draw schedules")
	}
}

// TestChaosOverTCP brings the same injector to a real TCP class:
// resets kill the cached connection and fail the send with
// ErrConnReset; once the chaos is cleared the class redials and
// recovers on its own.
func TestChaosOverTCP(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Establish a healthy connection first.
	if _, err := a.Forward(ctx, b.Addr(), NameToID("echo"), []byte("pre")); err != nil {
		t.Fatal(err)
	}

	ct := NewChaos(ChaosConfig{Seed: 7, ResetRate: 1})
	a.SetChaos(ct)
	_, err := a.Forward(ctx, b.Addr(), NameToID("echo"), []byte("mid"))
	if !errors.Is(err, ErrConnReset) {
		t.Fatalf("err = %v, want ErrConnReset", err)
	}

	// Clear the fault mix (keeping the injector installed): the next
	// forward redials and succeeds.
	ct.Configure(ChaosConfig{})
	out, err := a.Forward(ctx, b.Addr(), NameToID("echo"), []byte("post"))
	if err != nil {
		t.Fatalf("forward after reset: %v", err)
	}
	if string(out) != "post" {
		t.Fatalf("out = %q", out)
	}
	if st := ct.Stats(); st.Resets == 0 {
		t.Fatalf("stats = %+v, want Resets > 0", st)
	}
}

// TestChaosOverTCPDropParity: a dropped message over TCP must present
// exactly like fabric loss — silence until the caller's deadline.
func TestChaosOverTCPDropParity(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("echo", func(h *Handle) { _ = h.Respond(h.Input()) })
	a.SetChaos(NewChaos(ChaosConfig{Seed: 7, DropRate: 1}))
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := a.Forward(ctx, b.Addr(), NameToID("echo"), nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestClassifyNetErr(t *testing.T) {
	const dst = "tcp://10.0.0.9:7777"
	cases := []struct {
		name string
		in   error
		want error
	}{
		{"econnreset", syscall.ECONNRESET, ErrConnReset},
		{"epipe", syscall.EPIPE, ErrConnReset},
		{"net-closed", net.ErrClosed, ErrConnReset},
		{"closed-pipe", io.ErrClosedPipe, ErrConnReset},
		{"econnrefused", syscall.ECONNREFUSED, ErrUnreachable},
		{"other", errors.New("no route to host"), ErrUnreachable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := classifyNetErr(dst, tc.in)
			if !errors.Is(got, tc.want) {
				t.Fatalf("classifyNetErr(%v) = %v, want %v", tc.in, got, tc.want)
			}
			if !strings.Contains(got.Error(), dst) {
				t.Fatalf("classified error %q does not name destination %q", got, dst)
			}
		})
	}
	if got := classifyNetErr(dst, syscall.ECONNREFUSED); !strings.Contains(got.Error(), "connection refused") {
		t.Fatalf("refused dial %q should say so", got)
	}
}

// TestTCPDialRefusedClassified: the dial-error bugfix — a refused
// connection is retryable (ErrUnreachable) and the error names the
// destination so retry logs are actionable.
func TestTCPDialRefusedClassified(t *testing.T) {
	a, _ := newTCPPair(t)
	const dst = "tcp://127.0.0.1:1"
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := a.Forward(ctx, dst, NameToID("echo"), nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if !strings.Contains(err.Error(), dst) {
		t.Fatalf("dial error %q does not name destination %q", err, dst)
	}
}

// TestReadFrameHostileLength feeds a frame header claiming 32 MiB with
// almost no body behind it: the read path must fail on the truncated
// stream without ever allocating the advertised size.
func TestReadFrameHostileLength(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 32<<20)
	tr, br := frameReader(append(hdr[:], make([]byte, 100)...))
	var scratch []byte
	if _, err := tr.readMessage(br, &scratch); err == nil {
		t.Fatal("readMessage accepted a truncated 32 MiB frame")
	}
	if cap(scratch) > 1<<20 {
		t.Fatalf("hostile length prefix allocated %d bytes up front, want <= 1 MiB chunk", cap(scratch))
	}

	// Over the hard cap: rejected before any body read.
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	tr, br = frameReader(hdr[:])
	_, err := tr.readMessage(br, &scratch)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize frame err = %v, want limit error", err)
	}
}
