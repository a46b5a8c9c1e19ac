package ssg

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/testutil"
)

// quietCfg keeps a member's own probing out of a test that plays its
// peers by hand.
func quietCfg() Config {
	return Config{ProtocolPeriod: time.Hour, PingTimeout: 300 * time.Millisecond}
}

// TestPingReqDoesNotParkTheVia: while a via serves a ping-req for a
// target that swallows every message, it still acks a direct ping at
// once. Before, the ping-req handler pinged the target synchronously
// and held the instance's only execution stream for a whole
// PingTimeout: a direct ping sent 20 ms later was acked after ~280 ms,
// long past the pinger's own ack window — every dead member made its
// relays look dead too.
func TestPingReqDoesNotParkTheVia(t *testing.T) {
	f := mercury.NewFabric()
	var insts [3]*margo.Instance // the via, a black-holed target, and a bare instance playing the other members
	for i := range insts {
		cls, err := f.NewClass(fmt.Sprintf("park-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if insts[i], err = margo.New(cls, nil); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(insts[i].Finalize)
	}
	via, target, peer := insts[0], insts[1], insts[2]
	cfg := quietCfg()
	g, err := Create(via, "park", []string{via.Addr(), target.Addr(), peer.Addr()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	f.Partition([]string{via.Addr(), peer.Addr()}, []string{target.Addr()})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	relayed := make(chan ackReply, 1)
	go func() {
		var r ackReply
		if err := peer.Call(ctx, via.Addr(), rpcPingReq, mercury.AnyProvider,
			&pingReqArgs{Group: "park", From: peer.Addr(), Target: target.Addr()}, &r); err != nil {
			t.Errorf("ping-req: %v", err)
		}
		relayed <- r
	}()
	eventually(t, []*Group{g}, 10*time.Second, func() bool {
		g.drv.Lock()
		defer g.drv.Unlock()
		return g.eng.Kept() == 1
	}, "the via never took the ping-req") // it now waits on the black hole

	start := time.Now()
	var ack ackReply
	if err := peer.Call(ctx, via.Addr(), rpcPing, mercury.AnyProvider, &pingArgs{Group: "park", From: peer.Addr()}, &ack); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); !ack.OK || took > cfg.PingTimeout/3 {
		t.Fatalf("direct ping to a via busy with a ping-req: ok=%v after %v (PingTimeout %v)", ack.OK, took, cfg.PingTimeout)
	}
	// The ping-req itself is answered "no" once the via's own timeout
	// for the relayed ping runs out.
	if r := <-relayed; r.OK {
		t.Fatal("via vouched for a target it cannot reach")
	}
	if took := time.Since(start); took < cfg.PingTimeout/2 {
		t.Fatalf("ping-req answered after %v, before the relayed ping's timeout %v", took, cfg.PingTimeout)
	}
}

// TestOnChangeDeliveredInOrder: callbacks see a member's transitions in
// the order they happened, however slow a callback is. Before, every
// transition got its own goroutine, so a callback that took its time
// over alive→suspect saw suspect→dead first. Here that callback waits
// until all three transitions have happened.
func TestOnChangeDeliveredInOrder(t *testing.T) {
	c := newClusterN(t, 1, quietCfg())
	g := c.groups[0]
	const peer = "sm://ordered"
	var mu sync.Mutex
	var seen []State
	done, slow := make(chan struct{}), make(chan struct{})
	g.OnChange(func(m Member, _, s State) {
		if m.Addr != peer {
			return
		}
		if s == StateSuspect {
			<-slow
		}
		mu.Lock()
		seen = append(seen, s)
		n := len(seen)
		mu.Unlock()
		if n == 3 {
			close(done)
		}
	})
	for _, s := range []State{StateAlive, StateSuspect, StateDead} {
		g.applyUpdates([]Update{{Addr: peer, Incarnation: 1, State: s}})
	}
	close(slow)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("callbacks never delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(seen) != fmt.Sprint([]State{StateAlive, StateSuspect, StateDead}) {
		t.Fatalf("callbacks saw %v, want [alive suspect dead]", seen)
	}
}

// TestGroupGoroutinesJoinedByStop: what a group adds to its driver
// (TestDriverStopJoinsEveryGoroutine, internal/margo) leaves no goroutine
// behind either — lane workers blocked in pings and ping-reqs to a member
// that swallows them, a death's callbacks — once the groups are stopped;
// the instances are still up, so whatever is left would be the groups'.
func TestGroupGoroutinesJoinedByStop(t *testing.T) {
	f := mercury.NewFabric()
	var insts []*margo.Instance
	var addrs []string
	for i := 0; i < 4; i++ {
		cls, err := f.NewClass(fmt.Sprintf("join-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Finalize)
		insts, addrs = append(insts, inst), append(addrs, inst.Addr())
		// An instance starts its dispatch workers with the first request
		// it receives; have that happen before the count is taken.
		warm, err := Create(inst, "warm", nil, quietCfg())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FetchView(context.Background(), inst, inst.Addr(), "warm"); err != nil {
			t.Fatal(err)
		}
		warm.Stop()
	}
	before := testutil.GoroutineCount()
	var groups []*Group
	dead := make(chan struct{}, 1)
	for _, inst := range insts {
		g, err := Create(inst, "joined", addrs, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		g.OnChange(func(_ Member, _, s State) {
			if s == StateDead {
				select {
				case dead <- struct{}{}:
				default:
				}
			}
		})
		groups = append(groups, g)
	}
	// A black-holed member keeps pings, ping-reqs and relays in flight
	// until the survivors declare it dead.
	f.Partition(addrs[:3], addrs[3:])
	select {
	case <-dead:
	case <-time.After(10 * time.Second):
		t.Fatal("partitioned member never declared dead")
	}
	for _, g := range groups {
		g.Stop()
	}
	testutil.WaitGoroutinesSettle(t, before, 0)
}
