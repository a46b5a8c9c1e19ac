package margo

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"mochi/internal/argobots"
	"mochi/internal/codec"
	"mochi/internal/mercury"
)

// note is the wire message of the binding tests: a label and a list.
type note struct {
	Text  string
	Items [][]byte
}

func (n *note) Proc(p *codec.Proc) {
	p.String(&n.Text)
	codec.Slice(p, &n.Items, (*codec.Proc).Bytes)
}

func TestCallServeRoundTrip(t *testing.T) {
	f := mercury.NewFabric()
	srv, cli := newInstance(t, f, "srv", ""), newInstance(t, f, "cli", "")
	set, err := srv.RegisterSet(7, nil, RPC{Name: "echo", Handler: Serve(
		func(_ context.Context, h *mercury.Handle, in *note) (codec.Message, error) {
			if h.Provider() != 7 {
				t.Errorf("handle provider = %d", h.Provider())
			}
			// The reply aliases the request buffer: Reply must have
			// encoded it before mercury recycles that buffer.
			return &note{Text: "re: " + in.Text, Items: in.Items}, nil
		})})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	var out note
	in := &note{Text: "hi", Items: [][]byte{[]byte("a"), []byte("bc")}}
	if err := cli.Call(shortCtx(t), srv.Addr(), "echo", 7, in, &out); err != nil {
		t.Fatal(err)
	}
	if out.Text != "re: hi" || len(out.Items) != 2 || string(out.Items[1]) != "bc" {
		t.Fatalf("reply = %+v", out)
	}
	// A nil reply discards the answer; nil args send an empty payload,
	// which this handler's message type rejects as short.
	if err := cli.Call(shortCtx(t), srv.Addr(), "echo", 7, in, nil); err != nil {
		t.Fatal(err)
	}
	if err := cli.Call(shortCtx(t), srv.Addr(), "echo", 7, nil, &out); !errors.Is(err, mercury.ErrRemoteFailure) {
		t.Fatalf("empty payload: err = %v, want a remote failure", err)
	}
}

// Malformed input is answered by the binding and never reaches the
// handler — including a count with nothing behind it.
func TestServeAnswersMalformedInput(t *testing.T) {
	f := mercury.NewFabric()
	srv, cli := newInstance(t, f, "srv", ""), newInstance(t, f, "cli", "")
	var reached atomic.Int32
	set, err := srv.RegisterSet(1, nil, RPC{Name: "n", Handler: Serve(
		func(context.Context, *mercury.Handle, *note) (codec.Message, error) {
			reached.Add(1)
			return &note{}, nil
		})})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for _, in := range [][]byte{
		nil,
		{0x01, 'x', 0x05},       // five items declared, none present
		{0x01, 'x', 0x00, 0xff}, // trailing byte
	} {
		if _, err := cli.ForwardProvider(shortCtx(t), srv.Addr(), "n", 1, in); !errors.Is(err, mercury.ErrRemoteFailure) {
			t.Errorf("input %x: err = %v, want a remote failure", in, err)
		}
	}
	if reached.Load() != 0 {
		t.Fatalf("handler ran %d times on malformed input", reached.Load())
	}
}

func TestServeErrorAndDeferredReply(t *testing.T) {
	f := mercury.NewFabric()
	srv, cli := newInstance(t, f, "srv", ""), newInstance(t, f, "cli", "")
	release := make(chan struct{})
	set, err := srv.RegisterSet(1, nil,
		RPC{Name: "fail", Handler: Serve(func(context.Context, *mercury.Handle, *note) (codec.Message, error) {
			return nil, errors.New("no can do")
		})},
		RPC{Name: "later", Handler: Serve(func(_ context.Context, h *mercury.Handle, in *note) (codec.Message, error) {
			go func() {
				<-release
				Reply(h, &note{Text: in.Text + ", eventually"})
			}()
			return nil, nil
		})},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	err = cli.Call(shortCtx(t), srv.Addr(), "fail", 1, &note{}, nil)
	if !errors.Is(err, mercury.ErrRemoteFailure) || !strings.Contains(err.Error(), "no can do") {
		t.Fatalf("handler error came back as %v", err)
	}
	close(release)
	var out note
	if err := cli.Call(shortCtx(t), srv.Addr(), "later", 1, &note{Text: "done"}, &out); err != nil || out.Text != "done, eventually" {
		t.Fatalf("deferred reply = %+v, %v", out, err)
	}
}

// RegisterSet installs everything or nothing, and Close removes exactly
// what it installed — pool references included.
func TestRegisterSetAllOrNothing(t *testing.T) {
	f := mercury.NewFabric()
	inst := newInstance(t, f, "srv", "")
	pool, err := inst.AddPool(argobots.PoolConfig{Name: "side"})
	if err != nil {
		t.Fatal(err)
	}
	nop := func(context.Context, *mercury.Handle) {}
	if _, err := inst.RegisterProvider("c", 3, nil, nop); err != nil {
		t.Fatal(err)
	}
	rpcs := []RPC{{Name: "a", Handler: nop}, {Name: "b", Pool: pool, Handler: nop}, {Name: "c", Handler: nop}}
	if _, err := inst.RegisterSet(3, nil, rpcs...); !errors.Is(err, ErrProviderRegistered) {
		t.Fatalf("set over a taken name: err = %v", err)
	}
	if _, err := inst.RegisterSet(4, nil, rpcs[0], rpcs[1], rpcs[0]); !errors.Is(err, ErrProviderRegistered) {
		t.Fatalf("set repeating a name: err = %v", err)
	}
	for _, name := range []string{"a", "b"} {
		if inst.Class().Registered(name, 3) || inst.Class().Registered(name, 4) {
			t.Fatalf("failed install left %q registered", name)
		}
	}
	if err := inst.RemovePool("side"); err != nil {
		t.Fatalf("failed install kept the pool referenced: %v", err)
	}
	if pool, err = inst.AddPool(argobots.PoolConfig{Name: "side"}); err != nil {
		t.Fatal(err)
	}
	rpcs[1].Pool = pool

	inst.DeregisterProvider("c", 3)
	set, err := inst.RegisterSet(3, nil, rpcs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.RemovePool("side"); err == nil {
		t.Fatal("pool of a registered RPC was removable")
	}
	// A same-named RPC of another provider is not the set's to remove.
	if _, err := inst.RegisterProvider("a", 5, nil, nop); err != nil {
		t.Fatal(err)
	}
	set.Close()
	set.Close()
	for _, name := range []string{"a", "b", "c"} {
		if inst.Class().Registered(name, 3) {
			t.Fatalf("Close left %q registered", name)
		}
	}
	if !inst.Class().Registered("a", 5) {
		t.Fatal("Close removed another provider's RPC")
	}
	if err := inst.RemovePool("side"); err != nil {
		t.Fatalf("Close kept the pool referenced: %v", err)
	}
	inst.Finalize()
	if _, err := inst.RegisterSet(3, nil, rpcs[0]); !errors.Is(err, ErrFinalized) {
		t.Fatalf("set on a finalized instance: err = %v", err)
	}
}
