package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mochi/internal/bedrock"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/pufferscale"
	"mochi/internal/remi"
	"mochi/internal/ssg"
)

// Errors returned by services.
var (
	ErrNoSuchNode = errors.New("core: no such node")
	ErrLastNode   = errors.New("core: cannot shrink below one node")
	ErrNotStarted = errors.New("core: service not started")
	ErrAlreadyUp  = errors.New("core: service already started")
)

// RecoveryPolicy selects how a service reacts to member death (§7).
type RecoveryPolicy int

const (
	// RecoverNone only observes failures.
	RecoverNone RecoveryPolicy = iota
	// RecoverRestartFromCheckpoint provisions a replacement node,
	// restarts the dead node's configuration there, and restores
	// provider checkpoints from the shared directory (Observation 9).
	RecoverRestartFromCheckpoint
)

// Spec describes a dynamic service.
type Spec struct {
	// GroupName is the SSG group tracking the service's location.
	GroupName string
	// SSG tunes failure detection.
	SSG ssg.Config
	// NodeConfig produces the bedrock configuration for a node. It
	// should set remi_root (under a node-private directory) for
	// migratability.
	NodeConfig func(node string) []byte
	// CheckpointDir is the shared ("parallel file system") directory
	// used by checkpoint/restore-based recovery.
	CheckpointDir string
	// Recovery selects the failure reaction.
	Recovery RecoveryPolicy
}

// Process is one service member.
type Process struct {
	Node   string
	Server *bedrock.Server
	Group  *ssg.Group
}

// Addr returns the process's network address.
func (p *Process) Addr() string { return p.Server.Addr() }

// FailureEvent records an observed member failure and the recovery
// outcome.
type FailureEvent struct {
	DeadNode   string
	DeadAddr   string
	ReplacedBy string
	RecoverErr error
}

// Service is a running dynamic data service: a set of
// bedrock-managed processes tracked by an SSG group, with elasticity
// and resilience built from the substrate components.
type Service struct {
	fabric  *mercury.Fabric
	cluster *ClusterSim
	spec    Spec

	mu        sync.Mutex
	procs     map[string]*Process // node -> process
	addr2node map[string]string
	started   bool
	handling  map[string]bool // addrs with in-flight recovery
	failures  []FailureEvent

	// admin is the instance used for service-side client operations.
	admin *margo.Instance

	failureWG sync.WaitGroup
}

// NewService prepares (but does not start) a service.
func NewService(fabric *mercury.Fabric, cluster *ClusterSim, spec Spec) *Service {
	if spec.GroupName == "" {
		spec.GroupName = "mochi-service"
	}
	if spec.NodeConfig == nil {
		spec.NodeConfig = func(string) []byte { return []byte("{}") }
	}
	return &Service{
		fabric:    fabric,
		cluster:   cluster,
		spec:      spec,
		procs:     map[string]*Process{},
		addr2node: map[string]string{},
		handling:  map[string]bool{},
	}
}

// Start brings up n processes and bootstraps the SSG group.
func (s *Service) Start(ctx context.Context, n int) error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return ErrAlreadyUp
	}
	s.started = true
	s.mu.Unlock()

	adminCls, err := s.fabric.NewClass("svc-admin-" + s.spec.GroupName)
	if err != nil {
		return err
	}
	s.admin, err = margo.New(adminCls, nil)
	if err != nil {
		return err
	}

	var servers []*bedrock.Server
	var nodes []string
	var addrs []string
	for i := 0; i < n; i++ {
		node, err := s.cluster.Allocate()
		if err != nil {
			return err
		}
		srv, err := s.startServer(node)
		if err != nil {
			return err
		}
		servers = append(servers, srv)
		nodes = append(nodes, node)
		addrs = append(addrs, srv.Addr())
	}
	// Bootstrap SSG across all initial members (the static-list
	// bootstrap mode).
	for i, srv := range servers {
		g, err := ssg.Create(srv.Instance(), s.spec.GroupName, addrs, s.spec.SSG)
		if err != nil {
			return err
		}
		s.installFailureWatch(g)
		s.mu.Lock()
		s.procs[nodes[i]] = &Process{Node: nodes[i], Server: srv, Group: g}
		s.addr2node[srv.Addr()] = nodes[i]
		s.mu.Unlock()
	}
	return nil
}

func (s *Service) startServer(node string) (*bedrock.Server, error) {
	cls, err := s.fabric.NewClass(node)
	if err != nil {
		return nil, err
	}
	srv, err := bedrock.NewServer(cls, s.spec.NodeConfig(node))
	if err != nil {
		return nil, err
	}
	return srv, nil
}

// Nodes returns the current node names, sorted.
func (s *Service) Nodes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.procs))
	for n := range s.procs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Process returns the process running on a node.
func (s *Service) Process(node string) (*Process, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.procs[node]
	return p, ok
}

// Admin returns the service's administrative margo instance (useful
// for building clients in tests and examples).
func (s *Service) Admin() *margo.Instance { return s.admin }

// Addresses returns the current member addresses, sorted by node.
func (s *Service) Addresses() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	nodes := make([]string, 0, len(s.procs))
	for n := range s.procs {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, s.procs[n].Addr())
	}
	return out
}

// View returns the group view as seen by any live member.
func (s *Service) View() (ssg.View, error) {
	s.mu.Lock()
	var any *Process
	for _, p := range s.procs {
		any = p
		break
	}
	s.mu.Unlock()
	if any == nil {
		return ssg.View{}, ErrNotStarted
	}
	return any.Group.View(), nil
}

// Expand allocates a node and grows the service by one process
// (elasticity, §6). The new member joins the SSG group through an
// existing member.
func (s *Service) Expand(ctx context.Context) (*Process, error) {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil, ErrNotStarted
	}
	var seed *Process
	for _, p := range s.procs {
		seed = p
		break
	}
	s.mu.Unlock()
	if seed == nil {
		return nil, ErrNotStarted
	}
	node, err := s.cluster.Allocate()
	if err != nil {
		return nil, err
	}
	srv, err := s.startServer(node)
	if err != nil {
		s.cluster.Release(node)
		return nil, err
	}
	g, err := ssg.Join(ctx, srv.Instance(), s.spec.GroupName, seed.Addr(), s.spec.SSG)
	if err != nil {
		srv.Shutdown()
		s.cluster.Release(node)
		return nil, err
	}
	s.installFailureWatch(g)
	proc := &Process{Node: node, Server: srv, Group: g}
	s.mu.Lock()
	s.procs[node] = proc
	s.addr2node[srv.Addr()] = node
	s.mu.Unlock()
	return proc, nil
}

// drainObjectives plan a drain: what is on the leaving node has to move
// whatever the weights say, and it goes where load and data are
// lightest; nothing on a survivor is worth the time of moving it.
var drainObjectives = pufferscale.Objectives{WLoad: 1, WData: 1, WTime: 10}

// Shrink drains a node — a Pufferscale plan over the remaining members
// moves its providers to them — then removes it from the group and
// releases it to the cluster (§6: "Removing nodes first requires their
// data to be sent to remaining nodes").
func (s *Service) Shrink(ctx context.Context, node string) error {
	victim, ok := s.Process(node)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchNode, node)
	}
	var survivors []string
	for _, n := range s.Nodes() {
		if n != node {
			survivors = append(survivors, n)
		}
	}
	if len(survivors) == 0 {
		return ErrLastNode
	}
	if _, err := s.Controller(drainObjectives).Apply(ctx, survivors); err != nil {
		return fmt.Errorf("core: draining %s: %w", node, err)
	}
	_ = victim.Group.Leave(ctx)
	victim.Server.Shutdown()
	s.mu.Lock()
	delete(s.procs, node)
	delete(s.addr2node, victim.Addr())
	s.mu.Unlock()
	s.fabric.Remove(victim.Addr())
	s.cluster.Release(node)
	return nil
}

// CollectStats gathers every member's Listing-1 statistics (§4 made
// service-wide).
func (s *Service) CollectStats() map[string]*margo.StatsSnapshot {
	s.mu.Lock()
	procs := make([]*Process, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	out := map[string]*margo.StatsSnapshot{}
	for _, p := range procs {
		out[p.Node] = p.Server.Instance().Stats()
	}
	return out
}

// providerLoad extracts a provider's cumulative request count from a
// member's always-on Listing-1 record (target-side ULT executions).
func providerLoad(st *margo.StatsSnapshot, providerID uint16) float64 {
	var load float64
	for _, rs := range st.RPCs {
		if rs.ProviderID != providerID {
			continue
		}
		for _, t := range rs.Target {
			load += float64(t.ULT.Duration.Num)
		}
	}
	return load
}

// inventory is the service as a pufferscale.Controller sees it: every
// migratable provider (its node, bytes on disk, monitored request
// count so far) and the sorted node names.
func (s *Service) inventory(context.Context) ([]pufferscale.Resource, []string, error) {
	nodes := s.Nodes()
	if len(nodes) == 0 {
		return nil, nil, ErrNotStarted
	}
	var resources []pufferscale.Resource
	for _, node := range nodes {
		p, ok := s.Process(node)
		if !ok {
			continue // left since Nodes was read
		}
		stats := p.Server.Instance().Stats()
		for _, info := range p.Server.ResourceInventory() {
			if !info.Migratable {
				continue
			}
			resources = append(resources, pufferscale.Resource{
				ID:   info.Name,
				Node: node,
				Load: providerLoad(stats, info.ProviderID),
				Size: float64(info.Bytes),
			})
		}
	}
	return resources, nodes, nil
}

// migrate moves one provider between members with a REMI-backed
// Bedrock migration.
func (s *Service) migrate(ctx context.Context, m pufferscale.Move) error {
	src, ok := s.Process(m.From)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchNode, m.From)
	}
	dst, ok := s.Process(m.To)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchNode, m.To)
	}
	return src.Server.MigrateProvider(ctx, m.ResourceID, dst.Addr(), dst.Server.RemiProviderID(), remi.MethodAuto, true)
}

// Controller returns the service's feedback loop (§2.3, §6
// Observation 6): monitored per-provider load (§4) and on-disk sizes
// are its inventory, REMI-backed migrations its mover. Step it on a
// timer for introspection-driven rebalancing with no operator in the
// loop, or Apply a plan by hand.
func (s *Service) Controller(obj pufferscale.Objectives) *pufferscale.Controller {
	return &pufferscale.Controller{Inventory: s.inventory, Migrate: s.migrate, Objectives: obj}
}

// Rebalance plans a placement of the service's migratable providers
// over all its nodes and executes it, whatever the current imbalance.
func (s *Service) Rebalance(ctx context.Context, obj pufferscale.Objectives) (*pufferscale.Plan, error) {
	return s.Controller(obj).Apply(ctx, s.Nodes())
}

// CheckpointAll saves every checkpointable provider of every member
// into the shared checkpoint directory.
func (s *Service) CheckpointAll() error {
	if s.spec.CheckpointDir == "" {
		return errors.New("core: no checkpoint dir configured")
	}
	s.mu.Lock()
	procs := make([]*Process, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	for _, p := range procs {
		for _, name := range p.Server.Providers() {
			err := p.Server.CheckpointProvider(name, s.spec.CheckpointDir)
			if err != nil && !errors.Is(err, bedrock.ErrNotCheckpointable) {
				return err
			}
		}
	}
	return nil
}

// Failures returns the recorded failure events.
func (s *Service) Failures() []FailureEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]FailureEvent(nil), s.failures...)
}

// WaitRecoveries blocks until in-flight failure handling finishes.
func (s *Service) WaitRecoveries() { s.failureWG.Wait() }

// installFailureWatch hooks SSG's failure notification (§7 Obs. 12)
// into the recovery policy.
func (s *Service) installFailureWatch(g *ssg.Group) {
	g.OnChange(func(m ssg.Member, old, new ssg.State) {
		if new != ssg.StateDead {
			return
		}
		// Disregard testimony from an observer that is itself dead: a
		// crashed process has no detector, but in the in-process
		// simulation its goroutines keep running after the fabric
		// kills its endpoint — and, unable to reach anyone, they would
		// "detect" every healthy member as failed.
		if s.fabric.Killed(g.Self()) {
			return
		}
		s.mu.Lock()
		node, known := s.addr2node[m.Addr]
		if !known || s.handling[m.Addr] {
			s.mu.Unlock()
			return
		}
		s.handling[m.Addr] = true
		s.mu.Unlock()
		s.failureWG.Add(1)
		go func() {
			defer s.failureWG.Done()
			s.handleFailure(node, m.Addr)
		}()
	})
}

func (s *Service) handleFailure(node, addr string) {
	ev := FailureEvent{DeadNode: node, DeadAddr: addr}
	s.mu.Lock()
	victim := s.procs[node]
	delete(s.procs, node)
	delete(s.addr2node, addr)
	s.mu.Unlock()
	if victim != nil {
		victim.Group.Stop()
		victim.Server.Shutdown()
	}
	s.cluster.Release(node)

	if s.spec.Recovery == RecoverRestartFromCheckpoint {
		ev.RecoverErr = s.recoverFromCheckpoint(&ev)
	}
	s.mu.Lock()
	s.failures = append(s.failures, ev)
	s.mu.Unlock()
}

// recoverFromCheckpoint provisions a replacement running the dead
// node's configuration and restores provider state from the shared
// checkpoint directory (§7 Observation 9: "another node can be
// provisioned and restarted with the same components restoring their
// respective checkpoint").
func (s *Service) recoverFromCheckpoint(ev *FailureEvent) error {
	// Bounded: a partitioned seed must not wedge recovery forever.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.mu.Lock()
	var seed *Process
	for _, p := range s.procs {
		seed = p
		break
	}
	s.mu.Unlock()
	if seed == nil {
		return errors.New("core: no survivors to rejoin through")
	}
	node, err := s.cluster.Allocate()
	if err != nil {
		return err
	}
	// The replacement runs the dead node's configuration so the same
	// providers exist (the paper's "same components").
	cls, err := s.fabric.NewClass(node + "-r")
	if err != nil {
		s.cluster.Release(node)
		return err
	}
	srv, err := bedrock.NewServer(cls, s.spec.NodeConfig(ev.DeadNode))
	if err != nil {
		s.cluster.Release(node)
		return err
	}
	if s.spec.CheckpointDir != "" {
		for _, name := range srv.Providers() {
			err := srv.RestoreProvider(name, s.spec.CheckpointDir)
			if err != nil && !errors.Is(err, bedrock.ErrNotCheckpointable) {
				srv.Shutdown()
				s.cluster.Release(node)
				return err
			}
		}
	}
	g, err := ssg.Join(ctx, srv.Instance(), s.spec.GroupName, seed.Addr(), s.spec.SSG)
	if err != nil {
		srv.Shutdown()
		s.cluster.Release(node)
		return err
	}
	s.installFailureWatch(g)
	proc := &Process{Node: node, Server: srv, Group: g}
	s.mu.Lock()
	s.procs[node] = proc
	s.addr2node[srv.Addr()] = node
	s.mu.Unlock()
	ev.ReplacedBy = node
	return nil
}

// Stop shuts the whole service down.
func (s *Service) Stop() {
	s.failureWG.Wait()
	s.mu.Lock()
	procs := make([]*Process, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.procs = map[string]*Process{}
	s.addr2node = map[string]string{}
	admin := s.admin
	s.mu.Unlock()
	for _, p := range procs {
		p.Group.Stop()
		p.Server.Shutdown()
		s.cluster.Release(p.Node)
	}
	if admin != nil {
		admin.Finalize()
	}
}
