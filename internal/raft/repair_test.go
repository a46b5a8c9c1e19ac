package raft

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestFollowerLogRepair drives the Log Matching machinery explicitly:
// a follower accumulates conflicting uncommitted entries while
// partitioned as a minority leader, then must truncate and adopt the
// real leader's log after healing.
func TestFollowerLogRepair(t *testing.T) {
	c := newRaftCluster(t, 5, fastRaftCfg())
	leader := c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := leader.Apply(ctx, []byte("set base 0")); err != nil {
		t.Fatal(err)
	}

	// Partition the leader with one follower (minority of 5): it can
	// append but never commit.
	minority := []string{leader.ID()}
	var majority []string
	for _, a := range c.addrs {
		if a != leader.ID() && len(minority) < 2 {
			minority = append(minority, a)
			continue
		}
		if a != leader.ID() {
			majority = append(majority, a)
		}
	}
	c.fabric.Partition(minority, majority)
	for i := 0; i < 5; i++ {
		sctx, scancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		_, _ = leader.Apply(sctx, []byte(fmt.Sprintf("set doomed %d", i)))
		scancel()
	}
	doomedLast := c.stores[leader.ID()].LastIndex()
	if doomedLast < 2 {
		t.Fatalf("minority leader appended nothing (last=%d)", doomedLast)
	}

	// The majority elects a new leader and commits real entries.
	newLeader := c.waitLeader(minority...)
	for i := 0; i < 5; i++ {
		if _, err := newLeader.Apply(ctx, []byte(fmt.Sprintf("set real %d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Heal: the deposed nodes must truncate their doomed entries and
	// adopt the committed log — in the FSM, and on disk once the writer
	// has carried the truncation out: log terms at every overlapping index
	// agree with the new leader (the Log Matching property).
	ref, st := c.stores[newLeader.ID()], c.stores[leader.ID()]
	mismatch := func() string {
		for i := st.FirstIndex(); i <= min(st.LastIndex(), ref.LastIndex()); i++ {
			a, errA := st.Term(i)
			b, errB := ref.Term(i)
			if errA == nil && errB == nil && a != b {
				return fmt.Sprintf("log mismatch at %d: term %d vs %d", i, a, b)
			}
		}
		return ""
	}
	c.fabric.Heal()
	await(t, "the deposed leader to be repaired", c.all(), func() bool {
		return c.fsms[leader.ID()].get("real") == "4" && mismatch() == ""
	})
	if got := c.fsms[leader.ID()].get("doomed"); got != "" {
		t.Fatalf("doomed entry applied: %q", got)
	}
}

func TestApplyOnStoppedNode(t *testing.T) {
	c := newRaftCluster(t, 1, fastRaftCfg())
	leader := c.waitLeader()
	leader.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := leader.Apply(ctx, []byte("x")); err != ErrStopped {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigChangeRejectedOnFollower(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, n := range c.nodes {
		if n.ID() == leader.ID() {
			continue
		}
		if err := n.AddServer(ctx, "sm://nobody"); err == nil {
			t.Fatal("follower accepted config change")
		}
		break
	}
}

func TestTakeSnapshotIsIdempotent(t *testing.T) {
	c := newRaftCluster(t, 1, fastRaftCfg())
	leader := c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := leader.Apply(ctx, []byte(fmt.Sprintf("set s%d v", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	first := c.stores[leader.ID()].FirstIndex()
	if first == 1 {
		t.Fatal("snapshot did not compact")
	}
	if err := leader.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	// The node keeps working after compaction.
	if _, err := leader.Apply(ctx, []byte("set post snap")); err != nil {
		t.Fatal(err)
	}
}
