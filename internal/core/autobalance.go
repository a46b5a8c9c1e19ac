package core

import (
	"context"
	"sync"
	"time"

	"mochi/internal/pufferscale"
)

// AutoBalanceConfig tunes the introspection-driven rebalancing loop.
type AutoBalanceConfig struct {
	// Interval between evaluations (default 1s).
	Interval time.Duration
	// Objectives for the Pufferscale plans.
	Objectives pufferscale.Objectives
	// DataImbalanceThreshold triggers a rebalance when max/mean node
	// data exceeds it (default 1.5).
	DataImbalanceThreshold float64
	// LoadImbalanceThreshold triggers on max/mean node load
	// (default 1.5; set very high to balance on data only).
	LoadImbalanceThreshold float64
}

func (c AutoBalanceConfig) withDefaults() AutoBalanceConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.DataImbalanceThreshold <= 0 {
		c.DataImbalanceThreshold = 1.5
	}
	if c.LoadImbalanceThreshold <= 0 {
		c.LoadImbalanceThreshold = 1.5
	}
	return c
}

// AutoBalancer is the paper's dynamic-service feedback loop closed:
// §2.3 names performance introspection "the empirical data necessary
// for informed decisions", and §6 (Observation 6) plans to use "the
// performance introspection tools presented in Section 4 to guide
// load rebalancing". The balancer periodically inventories the
// service (monitored load per provider, bytes on disk), evaluates the
// placement, and executes a Pufferscale plan when imbalance crosses
// the configured thresholds.
type AutoBalancer struct {
	svc *Service
	cfg AutoBalanceConfig

	mu       sync.Mutex
	evals    int
	triggers int
	lastPlan *pufferscale.Plan
	lastErr  error

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// StartAutoBalance begins the loop; call Stop to end it.
func (s *Service) StartAutoBalance(cfg AutoBalanceConfig) *AutoBalancer {
	ab := &AutoBalancer{
		svc:  s,
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go ab.loop()
	return ab
}

// Stats reports (evaluations, triggered rebalances).
func (ab *AutoBalancer) Stats() (evals, triggers int) {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	return ab.evals, ab.triggers
}

// LastPlan returns the most recent executed plan and its error.
func (ab *AutoBalancer) LastPlan() (*pufferscale.Plan, error) {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	return ab.lastPlan, ab.lastErr
}

// Stop terminates the loop and waits for an in-flight rebalance.
func (ab *AutoBalancer) Stop() {
	ab.stopOnce.Do(func() { close(ab.stop) })
	<-ab.done
}

func (ab *AutoBalancer) loop() {
	defer close(ab.done)
	ticker := time.NewTicker(ab.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ab.stop:
			return
		case <-ticker.C:
			ab.evaluate()
		}
	}
}

// evaluate measures the standing placement and executes a plan if a
// threshold is crossed.
func (ab *AutoBalancer) evaluate() {
	ab.mu.Lock()
	ab.evals++
	ab.mu.Unlock()

	_, resources, nodes, err := ab.svc.inventory()
	if err != nil {
		return
	}
	load, data := pufferscale.Imbalance(resources, nodes)
	if data < ab.cfg.DataImbalanceThreshold && load < ab.cfg.LoadImbalanceThreshold {
		return
	}
	// Counted before the plan runs: whoever sees its moves sees the
	// trigger.
	ab.mu.Lock()
	ab.triggers++
	ab.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	plan, err := ab.svc.Rebalance(ctx, ab.cfg.Objectives)
	cancel()
	ab.mu.Lock()
	ab.lastPlan, ab.lastErr = plan, err
	ab.mu.Unlock()
}
