package raft

import (
	"context"
	"errors"
	"testing"
	"time"

	"mochi/internal/clock"
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
