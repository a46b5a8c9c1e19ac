package margo

import (
	"context"
	"sync"
	"time"

	"mochi/internal/clock"
)

// Core is what a Driver ticks: a protocol core's next deadline, and the
// input that is due then.
type Core interface {
	Deadline() time.Time
	Tick(now time.Time)
}

// Driver is the live runtime of one protocol core (raft.Core,
// ssg.Engine), written once: one mutex serializes every step, one timer
// loop ticks the core at its Deadline, lanes carry its messages, one
// notifier runs user callbacks in order, and Stop joins every goroutine.
// After a step's input, dispatch — the core's own code, under the lock —
// carries out its effects and queues with Reply what must wait until the
// lock is released; answer then runs those replies, in order.
type Driver[R any] struct {
	sync.Mutex
	clk      clock.Clock
	core     Core
	dispatch func()
	answer   func(R)

	stopped bool
	replies []R
	armed   time.Time     // the deadline the timer loop sleeps on
	watch   chan struct{} // closed at the next step (Changed)
	notes   []func()      // for the notifier

	rearm, notify chan struct{} // buffered(1)
	ctx           context.Context
	cancel        context.CancelFunc
	once          sync.Once
	wg            sync.WaitGroup
}

// NewDriver returns a driver for core; Start starts it.
func NewDriver[R any](clk clock.Clock, core Core, dispatch func(), answer func(R)) *Driver[R] {
	d := &Driver[R]{clk: clk, core: core, dispatch: dispatch, answer: answer,
		rearm: make(chan struct{}, 1), notify: make(chan struct{}, 1)}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	return d
}

// Context is cancelled by Stop.
func (d *Driver[R]) Context() context.Context { return d.ctx }

// Step runs f, one input of the core, under the lock, then the replies
// it left. A stopped driver runs nothing and says so.
func (d *Driver[R]) Step(f func(now time.Time)) bool {
	d.Lock()
	if d.stopped {
		d.Unlock()
		return false
	}
	f(d.clk.Now())
	d.dispatch()
	if d.core.Deadline().Before(d.armed) {
		Signal(d.rearm)
	}
	if d.watch != nil {
		close(d.watch)
		d.watch = nil
	}
	out := d.replies
	d.replies = nil
	d.Unlock()
	for _, r := range out {
		d.answer(r)
	}
	return true
}

// Reply queues r for after the lock, Notify fn for the notifier. Caller
// holds the lock.
func (d *Driver[R]) Reply(r R) { d.replies = append(d.replies, r) }

func (d *Driver[R]) Notify(fn func()) {
	d.notes = append(d.notes, fn)
	Signal(d.notify)
}

// Changed returns a channel that is closed after the next step: what a
// test waits on between two looks at the core.
func (d *Driver[R]) Changed() <-chan struct{} {
	d.Lock()
	defer d.Unlock()
	if d.watch == nil {
		d.watch = make(chan struct{})
	}
	return d.watch
}

// Go runs f on a goroutine that Stop joins; f returns once done closes.
func (d *Driver[R]) Go(f func(done <-chan struct{})) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		f(d.ctx.Done())
	}()
}

// Start starts the timer loop and the notifier.
func (d *Driver[R]) Start() {
	d.Go(d.timerLoop)
	d.Go(d.notifier)
}

// timerLoop sleeps until the core's deadline and ticks it. A deadline
// that moves earlier wakes it; one that moves later costs a wake-up with
// nothing due.
func (d *Driver[R]) timerLoop(done <-chan struct{}) {
	t := d.clk.NewTimer(time.Hour)
	defer t.Stop()
	for wait := time.Duration(0); d.Step(func(now time.Time) {
		if !d.core.Deadline().After(now) {
			d.core.Tick(now)
		}
		d.armed = d.core.Deadline()
		wait = d.armed.Sub(now)
	}); {
		t.Reset(wait)
		select {
		case <-t.C():
		case <-d.rearm:
		case <-done:
			return
		}
	}
}

func (d *Driver[R]) notifier(done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-d.notify:
		}
		d.Lock()
		notes := d.notes
		d.notes = nil
		d.Unlock()
		for _, fn := range notes {
			fn()
		}
	}
}

// Stop runs final as the last step, whose messages no lane takes, runs
// its replies, cancels the context and joins every goroutine.
func (d *Driver[R]) Stop(final func(now time.Time)) {
	d.once.Do(func() {
		d.Step(func(now time.Time) {
			final(now)
			d.stopped = true
		})
		d.cancel()
	})
	d.wg.Wait()
}

// Lane is a mailbox of n slots emptied by n workers. Full, it drops its
// oldest unsent message: a core retransmits, so a message never sent is
// superseded rather than queued — lost, as on any datagram fabric.
type Lane[M any] struct {
	box     chan M
	stopped *bool
}

// NewLane starts a lane on d whose workers call send.
func NewLane[M, R any](d *Driver[R], n int, send func(M)) *Lane[M] {
	l := &Lane[M]{box: make(chan M, n), stopped: &d.stopped}
	for i := 0; i < n; i++ {
		d.Go(func(done <-chan struct{}) {
			for {
				select {
				case <-done:
					return
				case m := <-l.box:
					send(m)
				}
			}
		})
	}
	return l
}

// Post hands m to the lane. Caller holds the driver's lock, which makes
// it the only producer.
func (l *Lane[M]) Post(m M) {
	if *l.stopped {
		return
	}
	select {
	case l.box <- m:
	default:
		select {
		case <-l.box:
		default:
		}
		l.box <- m
	}
}

// Signal wakes whoever waits on ch, a channel of one slot, unless a
// wake-up is already pending.
func Signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
