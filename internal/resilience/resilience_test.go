package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"mochi/internal/clock"
)

var errTransient = errors.New("transient")

func testManager(t *testing.T, cfg *Config, sim *clock.Sim) *Manager {
	t.Helper()
	return NewManager(cfg, sim, func(err error) bool {
		return errors.Is(err, errTransient)
	}, 1)
}

func TestPolicyDefaults(t *testing.T) {
	p := (&Config{}).policy(nil)
	if p.MaxAttempts != 3 {
		t.Fatalf("MaxAttempts = %d, want 3", p.MaxAttempts)
	}
	if p.BaseBackoff != 10*time.Millisecond || p.MaxBackoff != time.Second {
		t.Fatalf("backoff defaults wrong: %v / %v", p.BaseBackoff, p.MaxBackoff)
	}
	if p.Jitter != 0.2 {
		t.Fatalf("Jitter = %v, want 0.2", p.Jitter)
	}
	if p.AttemptTimeout != 0 {
		t.Fatalf("AttemptTimeout = %v, want 0", p.AttemptTimeout)
	}
	if p.IsRetryable(errTransient) {
		t.Fatal("nil classifier must retry nothing")
	}
}

func TestBackoffExponentialAndCapped(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	m := testManager(t, &Config{
		BaseBackoffMS: 10, MaxBackoffMS: 80, Jitter: -1,
	}, sim)
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := m.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	m := testManager(t, &Config{BaseBackoffMS: 100, MaxBackoffMS: 100, Jitter: 0.5}, sim)
	lo, hi := 50*time.Millisecond, 150*time.Millisecond
	varied := false
	prev := time.Duration(-1)
	for i := 0; i < 100; i++ {
		d := m.Backoff(1)
		if d < lo || d > hi {
			t.Fatalf("jittered backoff %v outside [%v, %v]", d, lo, hi)
		}
		if prev >= 0 && d != prev {
			varied = true
		}
		prev = d
	}
	if !varied {
		t.Fatal("jitter produced identical delays 100 times")
	}
}

func TestSleepHonorsContext(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- Sleep(ctx, sim, time.Hour) }()
	cancel()
	if ok := <-done; ok {
		t.Fatal("Sleep returned true after context cancellation")
	}

	done2 := make(chan bool, 1)
	go func() { done2 <- Sleep(context.Background(), sim, 50*time.Millisecond) }()
	for sim.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	sim.Advance(50 * time.Millisecond)
	if ok := <-done2; !ok {
		t.Fatal("Sleep returned false without cancellation")
	}
}

func TestAttemptContextSimTimeout(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	m := testManager(t, &Config{AttemptTimeoutMS: 100}, sim)
	actx, cancel := m.AttemptContext(context.Background())
	defer cancel()
	for sim.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	sim.Advance(100 * time.Millisecond)
	select {
	case <-actx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("attempt context did not expire on sim timeout")
	}
}

func TestAttemptContextDisabledIsFree(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	m := testManager(t, &Config{}, sim)
	ctx := context.Background()
	avg := testing.AllocsPerRun(100, func() {
		actx, cancel := m.AttemptContext(ctx)
		if actx != ctx {
			t.Fatal("expected pass-through context")
		}
		cancel()
	})
	if avg != 0 {
		t.Fatalf("AttemptContext without timeout allocates %v/op, want 0", avg)
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	m := testManager(t, &Config{Breaker: &BreakerConfig{
		FailureThreshold: 3, WindowMS: 1000, CooldownMS: 500, HalfOpenProbes: 2,
	}}, sim)
	b := m.Breaker("dst")
	if b == nil {
		t.Fatal("breaker disabled despite config")
	}
	if !b.Allow() || b.State() != Closed {
		t.Fatal("new breaker must be closed")
	}
	// Two failures inside the window: still closed.
	b.Record(true)
	sim.Advance(100 * time.Millisecond)
	b.Record(true)
	if b.State() != Closed {
		t.Fatal("tripped below threshold")
	}
	// Third failure trips it.
	st, changed := b.Record(true)
	if st != Open || !changed {
		t.Fatalf("Record = (%v, %v), want (Open, true)", st, changed)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request")
	}
	if m.BreakerState("dst") != Open {
		t.Fatalf("manager reports %v, want Open", m.BreakerState("dst"))
	}
	// Cooldown lapses: half-open, probes admitted.
	sim.Advance(500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open breaker rejected a probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen", b.State())
	}
	// One success is not enough (HalfOpenProbes = 2)...
	b.Record(false)
	if b.State() != HalfOpen {
		t.Fatal("closed after a single probe success")
	}
	// ...the second closes it.
	st, changed = b.Record(false)
	if st != Closed || !changed {
		t.Fatalf("Record = (%v, %v), want (Closed, true)", st, changed)
	}
	// And the failure window restarted: two failures do not re-trip.
	b.Record(true)
	b.Record(true)
	if b.State() != Closed {
		t.Fatal("failure window not cleared on close")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	m := testManager(t, &Config{Breaker: &BreakerConfig{
		FailureThreshold: 1, CooldownMS: 500,
	}}, sim)
	b := m.Breaker("dst")
	b.Record(true)
	if b.State() != Open {
		t.Fatal("threshold-1 breaker did not trip on first failure")
	}
	sim.Advance(500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe rejected after cooldown")
	}
	st, changed := b.Record(true)
	if st != Open || !changed {
		t.Fatalf("probe failure: Record = (%v, %v), want (Open, true)", st, changed)
	}
	if b.Allow() {
		t.Fatal("reopened breaker admitted a request before second cooldown")
	}
	sim.Advance(500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second cooldown did not readmit probes")
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	m := testManager(t, &Config{Breaker: &BreakerConfig{
		FailureThreshold: 3, WindowMS: 1000,
	}}, sim)
	b := m.Breaker("dst")
	// Failures spread wider than the window never trip the breaker.
	for i := 0; i < 6; i++ {
		b.Record(true)
		sim.Advance(600 * time.Millisecond)
	}
	if b.State() != Closed {
		t.Fatal("breaker tripped on failures outside the sliding window")
	}
	// Dense failures do.
	for i := 0; i < 3; i++ {
		b.Record(true)
	}
	if b.State() != Open {
		t.Fatal("breaker did not trip on dense failures")
	}
}

func TestBreakerPerDestination(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	m := testManager(t, &Config{Breaker: &BreakerConfig{FailureThreshold: 1}}, sim)
	m.Breaker("a").Record(true)
	if m.BreakerState("a") != Open {
		t.Fatal("a's breaker should be open")
	}
	if m.BreakerState("b") != Closed {
		t.Fatal("b's breaker must be independent of a's")
	}
	if m.Breaker("a") != m.Breaker("a") {
		t.Fatal("breaker identity not stable per destination")
	}
}

func TestManagerDisabledBreaker(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	m := testManager(t, &Config{}, sim)
	if m.Breaker("anything") != nil {
		t.Fatal("breaker created without a breaker config")
	}
	if m.BreakerState("anything") != Closed {
		t.Fatal("disabled breaking must report Closed")
	}
}

func TestManagerUpdateKeepsClassifier(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	m := testManager(t, &Config{MaxAttempts: 2}, sim)
	m.Update(&Config{MaxAttempts: 7})
	p := m.Policy()
	if p.MaxAttempts != 7 {
		t.Fatalf("MaxAttempts = %d after update, want 7", p.MaxAttempts)
	}
	if !p.IsRetryable(errTransient) {
		t.Fatal("classifier lost across Update")
	}
}

func TestOpenErrorMentionsDestination(t *testing.T) {
	err := OpenError("tcp://n1:1234", errTransient)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("OpenError must wrap ErrCircuitOpen")
	}
	for _, want := range []string{"tcp://n1:1234", "transient"} {
		if !contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
