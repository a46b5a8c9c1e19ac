package raft

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mochi/internal/clock"
	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// A client that finds no leader among its seeds waits 50 ms on the
// instance's clock between rounds, and gives up when its context does.
func TestClientPacesLeaderSearch(t *testing.T) {
	f := mercury.NewFabric()
	cls, err := f.NewClass("raft-client")
	if err != nil {
		t.Fatal(err)
	}
	sim := clock.NewSim(time.Time{})
	inst, err := margo.NewWithClock(cls, nil, sim)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	c := NewClient(inst, "g", []string{"sm://nobody-home"})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Apply(ctx, []byte("cmd"))
		done <- err
	}()
	for round := 0; round < 3; round++ {
		if !sim.WaitForWaiters(1, 5*time.Second) {
			t.Fatalf("round %d: the client never waited", round)
		}
		at, _ := sim.NextDeadline()
		if got := at.Sub(sim.Now()); got != 50*time.Millisecond {
			t.Fatalf("round %d: waited %v between rounds, want 50ms", round, got)
		}
		sim.AdvanceTo(at)
	}
	cancel()
	if err := <-done; !errors.Is(err, ErrTimeout) {
		t.Fatalf("apply with no leader anywhere: %v", err)
	}
}

// A round tries every member once — the cached leader first and not
// again as a seed — and the next round begins one seed further on, so a
// dead seed is not what every round starts with.
func TestClientRoundTriesEachMemberOnce(t *testing.T) {
	f := mercury.NewFabric()
	var mu sync.Mutex
	var asked []string
	var seeds []string
	for i := 0; i < 3; i++ {
		cls, err := f.NewClass(fmt.Sprintf("member-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Finalize()
		addr := inst.Addr()
		seeds = append(seeds, addr)
		if _, err := inst.RegisterSet(mercury.AnyProvider, nil, margo.RPC{Name: rpcApply, Handler: margo.Serve(
			func(context.Context, *mercury.Handle, *applyArgs) (codec.Message, error) {
				mu.Lock()
				asked = append(asked, addr)
				mu.Unlock()
				return &applyReply{Err: ErrNoLeader.Error()}, nil
			})}); err != nil {
			t.Fatal(err)
		}
	}
	cls, err := f.NewClass("raft-client")
	if err != nil {
		t.Fatal(err)
	}
	sim := clock.NewSim(time.Time{})
	inst, err := margo.NewWithClock(cls, nil, sim)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	c := NewClient(inst, "g", seeds)
	c.storeLeader(seeds[1])
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Apply(ctx, []byte("cmd"))
		done <- err
	}()
	const rounds = 3
	for round := 1; ; round++ {
		if !sim.WaitForWaiters(1, 5*time.Second) {
			t.Fatalf("round %d: the client never paused", round)
		}
		if round == rounds {
			break
		}
		at, _ := sim.NextDeadline()
		sim.AdvanceTo(at)
	}
	cancel()
	if err := <-done; !errors.Is(err, ErrTimeout) {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(asked) != rounds*len(seeds) {
		t.Fatalf("%d requests in %d rounds over %d members: %v", len(asked), rounds, len(seeds), asked)
	}
	firstSeeds := map[string]bool{}
	for r := 0; r < rounds; r++ {
		round := asked[r*3 : r*3+3]
		if round[0] != seeds[1] || round[1] == round[2] || round[1] == seeds[1] || round[2] == seeds[1] {
			t.Fatalf("round %d asked %v: want the cached leader %s first and everybody once", r, round, seeds[1])
		}
		firstSeeds[round[1]] = true
	}
	if len(firstSeeds) < 2 {
		t.Fatalf("every round began at the same seed: %v", asked)
	}
}
