package margo

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mochi/internal/clock"
	"mochi/internal/testutil"
)

// fakeCore is due once, at deadline, and an hour after each tick.
type fakeCore struct {
	deadline time.Time
	ticks    []time.Time
}

func (c *fakeCore) Deadline() time.Time { return c.deadline }

func (c *fakeCore) Tick(now time.Time) {
	c.ticks = append(c.ticks, now)
	c.deadline = now.Add(time.Hour)
}

func newFakeDriver(clk clock.Clock, core *fakeCore) *Driver[int] {
	return NewDriver(clk, core, func() {}, func(int) {})
}

// wait fails the test unless ch closes within ten seconds.
func wait(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestDriverStoppedRunsNoStep: Stop's final step is the last one; after
// it no step runs, and no lane takes a message.
func TestDriverStoppedRunsNoStep(t *testing.T) {
	clk := clock.NewSim(time.Time{})
	d := newFakeDriver(clk, &fakeCore{deadline: clk.Now().Add(time.Hour)})
	l := NewLane(d, 1, func(int) { t.Error("a stopped lane sent") })
	final := 0
	d.Stop(func(time.Time) { final++ })
	d.Stop(func(time.Time) { final++ })
	ran := false
	if d.Step(func(time.Time) { ran = true }) || ran || final != 1 {
		t.Fatalf("after Stop: step ran %v, final step ran %d times", ran, final)
	}
	l.Post(1)
	if len(l.box) != 0 {
		t.Fatal("a stopped driver's lane took a message")
	}
}

// TestDriverEarlierDeadlineRearms: the timer loop sleeps on an hour-away
// deadline; a step that moves it a second away wakes the loop, which
// ticks the core after that second of virtual time, not the hour.
func TestDriverEarlierDeadlineRearms(t *testing.T) {
	clk := clock.NewSim(time.Time{})
	t0 := clk.Now()
	core := &fakeCore{deadline: t0.Add(time.Hour)}
	d := newFakeDriver(clk, core)
	d.Start()
	defer d.Stop(func(time.Time) {})
	if !clk.WaitForWaiters(1, 5*time.Second) {
		t.Fatal("the timer loop never slept")
	}
	d.Step(func(now time.Time) { core.deadline = now.Add(time.Second) })
	for limit := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		if at, _ := clk.NextDeadline(); at.Equal(t0.Add(time.Second)) {
			break
		}
		if time.Now().After(limit) {
			t.Fatal("the timer loop still sleeps on the old deadline")
		}
	}
	ticked := d.Changed()
	clk.Advance(time.Second)
	wait(t, "the tick", ticked)
	d.Lock()
	defer d.Unlock()
	if len(core.ticks) != 1 || !core.ticks[0].Equal(t0.Add(time.Second)) {
		t.Fatalf("ticks at %v, want one a second in", core.ticks)
	}
}

// TestLaneDropsOldest: with its one worker busy and its one slot taken, a
// lane makes room for a message by dropping the oldest one never sent.
func TestLaneDropsOldest(t *testing.T) {
	d := newFakeDriver(clock.NewSim(time.Time{}), &fakeCore{})
	defer d.Stop(func(time.Time) {})
	sending, release := make(chan int, 3), make(chan struct{})
	l := NewLane(d, 1, func(m int) {
		sending <- m
		<-release
	})
	post := func(m int) {
		d.Lock()
		defer d.Unlock()
		l.Post(m)
	}
	post(1)
	if m := <-sending; m != 1 {
		t.Fatalf("worker took %d first", m)
	}
	post(2)
	post(3) // full: 2 goes
	close(release)
	if m := <-sending; m != 3 || len(l.box) != 0 {
		t.Fatalf("worker took %d next, %d left, want 3 and none", m, len(l.box))
	}
}

// TestNotifierIsFIFO: callbacks queued by several steps run one at a
// time, in the order they were queued.
func TestNotifierIsFIFO(t *testing.T) {
	d := newFakeDriver(clock.NewSim(time.Time{}), &fakeCore{deadline: time.Now().Add(time.Hour)})
	d.Start()
	defer d.Stop(func(time.Time) {})
	var seen []int
	done := make(chan struct{})
	for step := 0; step < 10; step++ {
		d.Step(func(time.Time) {
			for i := step * 10; i < step*10+10; i++ {
				d.Notify(func() {
					if seen = append(seen, i); len(seen) == 100 {
						close(done)
					}
				})
			}
		})
	}
	wait(t, "the callbacks", done)
	for i, v := range seen {
		if v != i {
			t.Fatalf("callback %d ran as number %d", v, i)
		}
	}
}

// TestDriverStopJoinsEveryGoroutine: the timer loop, the notifier, the
// workers of every lane — one of them in the middle of a send — and
// whatever the owner started with Go are gone when Stop returns: the two
// that take their time to leave have left.
func TestDriverStopJoinsEveryGoroutine(t *testing.T) {
	before := testutil.GoroutineCount()
	clk := clock.NewSim(time.Time{})
	d := newFakeDriver(clk, &fakeCore{deadline: clk.Now().Add(time.Hour)})
	d.Start()
	var left atomic.Int32
	leaveSlowly := func() {
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		left.Add(1)
	}
	sending := make(chan struct{})
	l := NewLane(d, 3, func(int) {
		close(sending)
		<-d.Context().Done()
		leaveSlowly()
	})
	NewLane(d, 1, func(int) {})
	d.Go(func(done <-chan struct{}) {
		<-done
		leaveSlowly()
	})
	d.Step(func(time.Time) { l.Post(1) })
	wait(t, "a send", sending)
	d.Stop(func(time.Time) {})
	if n := left.Load(); n != 2 {
		t.Fatalf("Stop returned with %d of 2 goroutines still running", 2-n)
	}
	testutil.WaitGoroutinesSettle(t, before, 0)
}
