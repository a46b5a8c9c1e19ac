package mercury

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mochi/internal/codec"
)

// Fabric is the in-process "sm" network: a set of named endpoints that
// exchange messages through channels, subject to a cost model and to
// injected faults. One Fabric stands in for one cluster; each endpoint
// stands in for one process.
type Fabric struct {
	mu        sync.RWMutex
	endpoints map[string]*smTransport
	model     NetModel
	killed    map[string]bool
	dropRate  float64
	rng       *rand.Rand
	rngMu     sync.Mutex
	// partition maps endpoint -> partition group; endpoints in
	// different groups cannot communicate. Empty means no partition.
	partition map[string]int
}

// NewFabric creates an empty fabric with zero-cost delivery.
func NewFabric() *Fabric {
	return &Fabric{
		endpoints: map[string]*smTransport{},
		model:     ZeroModel{},
		killed:    map[string]bool{},
		partition: map[string]int{},
		rng:       rand.New(rand.NewSource(1)),
	}
}

// SetModel installs the delivery cost model (nil restores ZeroModel).
func (f *Fabric) SetModel(m NetModel) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m == nil {
		m = ZeroModel{}
	}
	f.model = m
}

// NewClass attaches a new endpoint named name (address "sm://<name>")
// and returns its RPC class.
func (f *Fabric) NewClass(name string) (*Class, error) {
	addr := "sm://" + name
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.endpoints[addr]; ok {
		return nil, fmt.Errorf("mercury: endpoint %q already exists", addr)
	}
	tr := &smTransport{
		fabric:  f,
		address: addr,
		done:    make(chan struct{}),
	}
	cls := newClass(tr)
	tr.class = cls
	f.endpoints[addr] = tr
	delete(f.killed, addr)
	return cls, nil
}

// Lookup reports whether an address is attached (alive or killed).
func (f *Fabric) Lookup(addr string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, ok := f.endpoints[addr]
	return ok
}

// Addrs returns all attached addresses.
func (f *Fabric) Addrs() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.endpoints))
	for a := range f.endpoints {
		out = append(out, a)
	}
	return out
}

// Kill crashes the endpoint: its inbox is abandoned and subsequent
// sends to it fail fast with ErrUnreachable (like connection refused
// to a dead process). The endpoint's class is left unusable.
func (f *Fabric) Kill(addr string) {
	f.mu.Lock()
	tr, ok := f.endpoints[addr]
	if ok {
		f.killed[addr] = true
	}
	f.mu.Unlock()
	if ok {
		tr.stop()
	}
}

// Killed reports whether addr has been killed.
func (f *Fabric) Killed(addr string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.killed[addr]
}

// Remove detaches an endpoint entirely (after Close/Kill), freeing its
// name for reuse.
func (f *Fabric) Remove(addr string) {
	f.mu.Lock()
	tr, ok := f.endpoints[addr]
	delete(f.endpoints, addr)
	delete(f.killed, addr)
	delete(f.partition, addr)
	f.mu.Unlock()
	if ok {
		tr.stop()
	}
}

// SetDropRate makes the fabric silently drop the given fraction of
// messages (0 disables). Dropped messages cause caller timeouts,
// exercising the loss paths of SWIM and Raft.
func (f *Fabric) SetDropRate(rate float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropRate = rate
}

// Partition splits the fabric: endpoints within one group communicate
// normally; messages across groups are silently dropped.
func (f *Fabric) Partition(groups ...[]string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partition = map[string]int{}
	for i, g := range groups {
		for _, a := range g {
			f.partition[a] = i + 1
		}
	}
}

// Heal removes any partition.
func (f *Fabric) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partition = map[string]int{}
}

// route decides what happens to a message from src to dst:
// returns (target transport, drop, err).
func (f *Fabric) route(src, dst string) (*smTransport, bool, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	tr, ok := f.endpoints[dst]
	if !ok || f.killed[dst] {
		return nil, false, fmt.Errorf("%w: %s", ErrUnreachable, dst)
	}
	if len(f.partition) > 0 {
		gs, gd := f.partition[src], f.partition[dst]
		if gs != gd {
			return nil, true, nil
		}
	}
	if f.dropRate > 0 {
		f.rngMu.Lock()
		drop := f.rng.Float64() < f.dropRate
		f.rngMu.Unlock()
		if drop {
			return nil, true, nil
		}
	}
	return tr, false, nil
}

func (f *Fabric) delay(src, dst string, class OpClass, bytes int) time.Duration {
	f.mu.RLock()
	m := f.model
	f.mu.RUnlock()
	return m.Delay(src, dst, class, bytes)
}

// preciseDelay waits for d with microsecond fidelity. Go timers have
// roughly millisecond granularity, which would inflate the cost
// model's few-microsecond message overheads a thousandfold; short
// delays therefore spin (cheap at µs scale), while long ones use a
// timer.
func preciseDelay(ctx context.Context, d time.Duration) error {
	const spinLimit = 500 * time.Microsecond
	if d >= spinLimit {
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
		}
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return nil
}

// smTransport is one endpoint's attachment to a Fabric. Delivery is
// direct: send hands the duplicated message straight to the receiving
// class's dispatch, so the sender's goroutine is the receiver's
// progress context — it posts a response to its waiter and runs a
// request's handler (see Handler), exactly as the TCP transport's read
// loop does. The earlier inbox-plus-progress-goroutine design cost two
// extra park/wake handoffs per RPC for no added semantics.
type smTransport struct {
	fabric   *Fabric
	address  string
	class    *Class
	done     chan struct{}
	stopOnce sync.Once
}

func (t *smTransport) addr() string { return t.address }

func (t *smTransport) send(ctx context.Context, dst string, m *message) error {
	target, drop, err := t.fabric.route(t.address, dst)
	if err != nil {
		return err
	}
	if drop {
		return nil // silently lost; the caller's ctx will time out
	}
	class := OpRPC
	if m.kind == msgBulkRead || m.kind == msgBulkWrite || m.kind == msgBulkAck {
		class = OpBulk
	}
	if d := t.fabric.delay(t.address, dst, class, len(m.payload)); d > 0 {
		if err := preciseDelay(ctx, d); err != nil {
			return err
		}
	}
	// Payloads are copied at the delivery boundary so sender and
	// receiver never alias memory, as on a real network. The copy goes
	// into pooled scratch whenever the receive path has a recycle
	// point (requests: Handle.release; bulk writes and acks: the bulk
	// handlers); response payloads become caller-owned memory on the
	// forwarding side, so they get a plain allocation.
	dup := getMessage()
	*dup = *m
	dup.payloadPooled = false
	if m.payload != nil {
		if m.kind == msgResponse {
			dup.payload = append([]byte(nil), m.payload...)
		} else {
			dup.payload = codec.AppendBuffer(m.payload)
			dup.payloadPooled = true
		}
	}
	select {
	case <-target.done:
		// Lost the race with Kill/Close: the endpoint is gone.
		dup.releasePayload()
		putMessage(dup)
		return fmt.Errorf("%w: %s", ErrUnreachable, dst)
	default:
	}
	target.class.dispatch(dup)
	return nil
}

func (t *smTransport) stop() {
	t.stopOnce.Do(func() { close(t.done) })
}

func (t *smTransport) close() error {
	t.stop()
	return nil
}
