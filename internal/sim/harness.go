package sim

import (
	"fmt"
	"time"
)

// Harness is the simulated runtime of protocol cores (raft.Core,
// ssg.Engine), written once: each member's core is a single-threaded
// event handler on Sim + Net, reading a clock of its own pace; a crash
// starts a new incarnation and voids whatever an earlier one scheduled —
// a wake-up, a disk write, an answer it is owed. The caller supplies
// what is the core's own: how to step it, what to deliver, what to check.
type Harness struct {
	*Sim
	Net      *Net
	Start    time.Time
	DupDelay time.Duration // how much later than the original a duplicate arrives
	Err      error         // the run's first failure (Failf); once set, nothing runs
	// Wake ticks m's core when its wake-up comes, and settles it;
	// Invariants run at the end of every step (Stepped).
	Wake, Invariants func(m *Member)
}

// Member is one simulated process. Its clock counts Rate seconds per
// true second, within 5 % of 1: nothing a core decides may rest on two
// members agreeing what time it is, or how fast it passes.
type Member struct {
	ID      int32
	Rate    float64
	Epoch   int  // counts its incarnations
	In, Out int  // the tags its core was handed, and has handed back
	Crashed bool // until it is restarted
	frozen  bool
	armed   time.Time // the deadline its pending wake-up is for
}

// NewHarness starts a run whose randomness all derives from seed.
func NewHarness(seed int64) *Harness {
	s := New(seed)
	return &Harness{Sim: s, Start: s.Now()}
}

// NewMember draws a member's clock rate from the run's seed.
func (h *Harness) NewMember(id int32) *Member {
	return &Member{ID: id, Rate: 0.95 + 0.1*h.Rand().Float64()}
}

// Clock is what m's clock reads: the clocks agreed when the run started,
// at the Unix epoch, and have each kept their own pace since. Until is
// how long from now, in true time, before it reads at.
func (h *Harness) Clock(m *Member) time.Time {
	return time.Unix(0, int64(float64(h.now)*m.Rate))
}

func (h *Harness) Until(m *Member, at time.Time) time.Duration {
	// Two nanoseconds late rather than one early to rounding: a timer that
	// fires before its member's clock says so would be armed again at once.
	return time.Duration(int64(float64(at.UnixNano())/m.Rate) + 2 - h.now)
}

// Failf records the run's first failure, stamped with the virtual time.
func (h *Harness) Failf(format string, args ...interface{}) {
	if h.Err == nil {
		h.Err = fmt.Errorf("at %s: %s", h.Now().Sub(h.Start), fmt.Sprintf(format, args...))
	}
}

// After runs fn d from now unless the run has failed or m has crashed
// since: how a disk write or a timer of one incarnation ends.
func (h *Harness) After(m *Member, d time.Duration, fn func()) {
	epoch := m.Epoch
	h.At(d, func() {
		if h.Err == nil && m.Epoch == epoch {
			fn()
		}
	})
}

// Stepped ends every step of m: its wake-up is armed for next, unless an
// earlier one is pending — which supersedes nothing: a wake-up whose
// deadline is no longer m's is void — and the invariants are checked.
func (h *Harness) Stepped(m *Member, next time.Time) {
	if m.armed.IsZero() || next.Before(m.armed) {
		m.armed = next
		epoch := m.Epoch
		h.At(h.Until(m, next), func() {
			if h.Err == nil && m.Epoch == epoch && m.armed.Equal(next) {
				m.armed = time.Time{}
				if !m.frozen {
					h.Wake(m)
				}
			}
		})
	}
	h.Invariants(m)
}

// Transmit puts one message from from to to on the wire: Net decides
// whether it arrives, when, and twice. It is delivered only to the
// incarnation of to it was addressed to (epoch), running and not frozen.
func (h *Harness) Transmit(from, to *Member, epoch int, deliver func()) {
	lat, dup, ok := h.Net.Deliver(from.ID, to.ID, h.Now())
	if !ok {
		return
	}
	arrive := func() {
		if h.Err == nil && to.Epoch == epoch && !to.Crashed && !to.frozen {
			deliver()
		}
	}
	h.At(lat, arrive)
	if dup {
		h.At(lat+h.DupDelay, arrive)
	}
}

// Ledger checks m's tags: every one its core was handed has come back
// once or is still kept.
func (h *Harness) Ledger(m *Member, kept int) bool {
	if m.In != m.Out+kept {
		h.Failf("ledger: n%d was handed %d tags, has handed back %d and holds %d", m.ID, m.In, m.Out, kept)
		return false
	}
	return true
}

// Crash takes m down with everything it had scheduled; Restart brings
// it back up, a new incarnation whose core its caller boots.
func (h *Harness) Crash(m *Member) {
	m.Epoch++
	m.Crashed, m.In, m.Out, m.armed = true, 0, 0, time.Time{}
	h.Net.SetDown(m.ID, true)
}

func (h *Harness) Restart(m *Member) {
	m.Crashed = false
	h.Net.SetDown(m.ID, false)
}

// Freeze stops m — no messages in or out, no timers — with its state
// intact; Thaw lets it go on from where it was.
func (h *Harness) Freeze(m *Member) {
	m.frozen = true
	h.Net.SetDown(m.ID, true)
}

func (h *Harness) Thaw(m *Member) {
	m.frozen = false
	h.Net.SetDown(m.ID, false)
	h.Wake(m)
}
