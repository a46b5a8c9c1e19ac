package margo

import (
	"context"
	"errors"

	"mochi/internal/mercury"
	"mochi/internal/resilience"
	"mochi/internal/trace"
)

// RetryableError is margo's transport-error classification for the
// resilience layer: connection-level failures (unreachable peers,
// reset connections, timed-out attempts) are transient and safe to
// retry; anything the destination actually answered — handler errors,
// missing handlers, authentication failures — is not.
func RetryableError(err error) bool {
	return errors.Is(err, mercury.ErrUnreachable) ||
		errors.Is(err, mercury.ErrConnReset) ||
		errors.Is(err, mercury.ErrTimeout)
}

// SetResilience installs (or, with nil, removes) the retry and
// circuit-breaker policy applied to every forward from this instance.
// It can be called on a live instance; in-flight forwards keep the
// policy they started with.
func (m *Instance) SetResilience(cfg *resilience.Config) {
	if cfg == nil {
		m.res.Store(nil)
		return
	}
	// Jitter is seeded from the instance address so a process's backoff
	// sequence is reproducible in simulation yet distinct per node.
	seed := int64(mercury.NameToID(m.class.Addr()))
	m.res.Store(resilience.NewManager(cfg, m.clk, RetryableError, seed))
}

// Resilience returns the active resilience manager, or nil when
// forwards are single-attempt.
func (m *Instance) Resilience() *resilience.Manager { return m.res.Load() }

// forwardResilient runs the attempt loop for one logical forward:
// breaker gate, per-attempt timeout, retry classification, jittered
// backoff. Failed retryable attempts are annotated on the trace as
// retry spans under the client span, and counted in
// mochi_rpc_retries_total. When no retry occurs this path allocates
// nothing beyond the single-attempt one (the per-attempt timeout, when
// configured, is the documented exception).
func (m *Instance) forwardResilient(ctx context.Context, mgr *resilience.Manager, dst string, provider uint16, input []byte, info RPCInfo, tc trace.SpanContext) ([]byte, error) {
	pol := mgr.Policy()
	br := mgr.Breaker(dst)
	var lastErr error
	for attempt := 1; ; attempt++ {
		if br != nil && !br.Allow() {
			m.metrics.breakerRejected(dst)
			return nil, resilience.OpenError(dst, lastErr)
		}
		try := m.tracer.Start(tc, info.Name, trace.KindRetry, m.clk.Now())
		try.Peer = dst
		actx, cancel := mgr.AttemptContext(ctx)
		out, err := m.class.ForwardProviderTrace(actx, dst, info.ID, provider, input, tc)
		cancel()
		retryable := pol.IsRetryable(err)
		if br != nil {
			// Only destination-health failures count against the
			// breaker; errors the peer answered with are successes
			// as far as reachability is concerned.
			if st, changed := br.Record(retryable); changed {
				m.metrics.breakerState(dst, st)
			}
		}
		if err == nil {
			return out, nil
		}
		lastErr = err
		if !retryable || attempt >= pol.MaxAttempts || ctx.Err() != nil {
			return nil, err
		}
		m.metrics.retried(info.Name)
		try.End(m.clk.Now(), true)
		if !resilience.Sleep(ctx, m.clk, mgr.Backoff(attempt)) {
			return nil, err
		}
	}
}
