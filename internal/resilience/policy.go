// Package resilience implements client-side failure handling for the
// RPC path: bounded retries with jittered exponential backoff and
// per-attempt timeouts (a Policy), and per-destination circuit
// breaking (a Breaker). The margo runtime consults a Manager on every
// forward, so components above it — yokan, warabi, remi, bedrock
// service handles — get resilience transparently, from configuration
// alone.
//
// The package depends only on clock.Clock: policies back off and
// breakers cool down on simulated time in tests, exactly as the SWIM
// and Raft layers do.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/clock"
)

// ErrCircuitOpen is returned (wrapped, with the destination address)
// when a forward is rejected without an attempt because the
// destination's breaker is open.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// Config is the JSON "resilience" block of a margo or bedrock process
// configuration.
type Config struct {
	// MaxAttempts is the total number of attempts per forward
	// (1 = no retries). 0 selects the default of 3.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BaseBackoffMS is the delay before the first retry, in
	// milliseconds (default 10). Subsequent retries double it.
	BaseBackoffMS int `json:"base_backoff_ms,omitempty"`
	// MaxBackoffMS caps the exponential backoff (default 1000).
	MaxBackoffMS int `json:"max_backoff_ms,omitempty"`
	// Jitter is the fraction of each backoff randomized, in [0, 1]
	// (default 0.2): a delay d becomes d ± d*Jitter. Negative
	// disables jitter explicitly.
	Jitter float64 `json:"jitter,omitempty"`
	// AttemptTimeoutMS bounds each individual attempt, in
	// milliseconds. 0 (the default) leaves attempts bounded only by
	// the caller's context. Without it a dropped message stalls the
	// whole forward until the caller's deadline, so retries never get
	// a chance to run; set it whenever retries are expected to mask
	// lossy links rather than only dead ones.
	AttemptTimeoutMS int `json:"attempt_timeout_ms,omitempty"`
	// Breaker configures per-destination circuit breaking; nil
	// disables it.
	Breaker *BreakerConfig `json:"breaker,omitempty"`
}

// Policy is the resolved retry policy derived from a Config.
type Policy struct {
	MaxAttempts    int
	BaseBackoff    time.Duration
	MaxBackoff     time.Duration
	Jitter         float64
	AttemptTimeout time.Duration

	// Retryable classifies errors; only errors it accepts are
	// retried (and counted against breakers). Nil retries nothing.
	Retryable func(error) bool
}

// IsRetryable reports whether err should be retried under p.
func (p *Policy) IsRetryable(err error) bool {
	return err != nil && p.Retryable != nil && p.Retryable(err)
}

func (c *Config) policy(retryable func(error) bool) *Policy {
	p := &Policy{
		MaxAttempts:    c.MaxAttempts,
		BaseBackoff:    time.Duration(c.BaseBackoffMS) * time.Millisecond,
		MaxBackoff:     time.Duration(c.MaxBackoffMS) * time.Millisecond,
		Jitter:         c.Jitter,
		AttemptTimeout: time.Duration(c.AttemptTimeoutMS) * time.Millisecond,
		Retryable:      retryable,
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	switch {
	case c.Jitter == 0:
		p.Jitter = 0.2
	case c.Jitter < 0:
		p.Jitter = 0
	case c.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// Manager holds the live policy and the per-destination breakers for
// one margo instance. All methods are safe for concurrent use, and the
// happy path (policy load, breaker lookup, closed-breaker bookkeeping)
// performs no allocation.
type Manager struct {
	clk clock.Clock
	pol atomic.Pointer[Policy]

	bcfg *breakerSettings // nil when breaking is disabled

	mu       sync.RWMutex
	breakers map[string]*Breaker

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewManager builds a Manager from a config block. retryable
// classifies which errors count as transient (margo passes its
// transport-error classifier); seed makes backoff jitter and any
// future stochastic choices reproducible.
func NewManager(cfg *Config, clk clock.Clock, retryable func(error) bool, seed int64) *Manager {
	if clk == nil {
		clk = clock.New()
	}
	m := &Manager{
		clk:      clk,
		breakers: map[string]*Breaker{},
		rng:      rand.New(rand.NewSource(seed)),
	}
	m.pol.Store(cfg.policy(retryable))
	if cfg.Breaker != nil {
		m.bcfg = cfg.Breaker.resolve()
	}
	return m
}

// Policy returns the current policy (atomically swappable via Update).
func (m *Manager) Policy() *Policy { return m.pol.Load() }

// Update replaces the retry policy at run time, preserving the error
// classifier and breaker states.
func (m *Manager) Update(cfg *Config) {
	old := m.pol.Load()
	m.pol.Store(cfg.policy(old.Retryable))
}

// Breaker returns the breaker guarding dst, creating it on first use.
// It returns nil when circuit breaking is disabled.
func (m *Manager) Breaker(dst string) *Breaker {
	if m.bcfg == nil {
		return nil
	}
	m.mu.RLock()
	b := m.breakers[dst]
	m.mu.RUnlock()
	if b != nil {
		return b
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b = m.breakers[dst]; b == nil {
		b = newBreaker(m.clk, m.bcfg)
		m.breakers[dst] = b
	}
	return b
}

// BreakerState reports the state of dst's breaker without creating
// one; destinations never seen (or with breaking disabled) are Closed.
func (m *Manager) BreakerState(dst string) State {
	m.mu.RLock()
	b := m.breakers[dst]
	m.mu.RUnlock()
	if b == nil {
		return Closed
	}
	return b.State()
}

// Backoff returns the jittered delay to wait before the retry that
// follows the attempt-th failed attempt (1-based).
func (m *Manager) Backoff(attempt int) time.Duration {
	p := m.pol.Load()
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		m.rngMu.Lock()
		f := m.rng.Float64()
		m.rngMu.Unlock()
		// d ± d*Jitter, uniformly.
		d += time.Duration((2*f - 1) * p.Jitter * float64(d))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Sleep waits for d on clk, returning false if ctx is canceled first.
// It is the one timer wait transport retries (margo), protocol retries
// (the shard router's flip window) and the raft client's leader search
// share; how long each waits, and why, is its own.
func Sleep(ctx context.Context, clk clock.Clock, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-ctx.Done():
		return false
	}
}

var nopCancel context.CancelFunc = func() {}

// AttemptContext derives the context for one attempt. With no
// per-attempt timeout configured it returns ctx unchanged and a no-op
// cancel, costing nothing; otherwise the attempt is bounded by the
// policy's AttemptTimeout on the manager's clock.
func (m *Manager) AttemptContext(ctx context.Context) (context.Context, context.CancelFunc) {
	p := m.pol.Load()
	if p.AttemptTimeout <= 0 {
		return ctx, nopCancel
	}
	if _, real := m.clk.(clock.Real); real {
		return context.WithTimeout(ctx, p.AttemptTimeout)
	}
	// Simulated clock: context deadlines run on the wall clock, so
	// bound the attempt with a clock timer instead.
	actx, cancel := context.WithCancel(ctx)
	t := m.clk.NewTimer(p.AttemptTimeout)
	go func() {
		defer t.Stop()
		select {
		case <-t.C():
			cancel()
		case <-actx.Done():
		}
	}()
	return actx, cancel
}

// OpenError wraps ErrCircuitOpen with the destination and the failure
// that most recently tripped the breaker, so callers see why traffic
// is being shed.
func OpenError(dst string, last error) error {
	if last != nil {
		return fmt.Errorf("%w: %s (last failure: %v)", ErrCircuitOpen, dst, last)
	}
	return fmt.Errorf("%w: %s", ErrCircuitOpen, dst)
}
