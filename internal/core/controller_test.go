package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"mochi/internal/clock"
	"mochi/internal/pufferscale"
	"mochi/internal/yokan"
)

// skewedSpec puts dbs log-backed databases on node-0 and none on any
// other node.
func skewedSpec(t *testing.T, group string, dbs int) Spec {
	base := t.TempDir()
	return Spec{
		GroupName: group,
		SSG:       fastSSG(),
		NodeConfig: func(node string) []byte {
			dir := filepath.Join(base, node)
			if node != "node-0" {
				return []byte(fmt.Sprintf(`{
				  "libraries": {"yokan": "x"},
				  "remi_root": %q
				}`, filepath.Join(dir, "remi")))
			}
			providers := ""
			for i := 1; i <= dbs; i++ {
				if i > 1 {
					providers += ","
				}
				providers += fmt.Sprintf(`
				  {"name": "db-%d", "type": "yokan", "provider_id": %d,
				   "config": {"type": "log", "path": %q, "no_sync": true}}`,
					i, i, filepath.Join(dir, fmt.Sprintf("db-%d.log", i)))
			}
			return []byte(fmt.Sprintf(`{
			  "libraries": {"yokan": "x"},
			  "remi_root": %q,
			  "providers": [%s]
			}`, filepath.Join(dir, "remi"), providers))
		},
	}
}

// fill puts perDB 1 KiB values into each of node-0's databases.
func fill(t *testing.T, svc *Service, dbs, perDB int) {
	t.Helper()
	p0, _ := svc.Process("node-0")
	cli := yokan.NewClient(svc.Admin())
	for id := uint16(1); id <= uint16(dbs); id++ {
		var pairs []yokan.KeyValue
		for i := 0; i < perDB; i++ {
			pairs = append(pairs, yokan.KeyValue{
				Key:   []byte(fmt.Sprintf("k-%d-%03d", id, i)),
				Value: make([]byte, 1024),
			})
		}
		if err := cli.Handle(p0.Addr(), id).PutMulti(sctx(t), pairs); err != nil {
			t.Fatal(err)
		}
	}
}

// placement reports how many databases each node holds and how many
// keys the service holds in all.
func placement(t *testing.T, svc *Service) (perNode map[string]int, keys int) {
	t.Helper()
	cli := yokan.NewClient(svc.Admin())
	perNode = map[string]int{}
	for _, node := range svc.Nodes() {
		p, _ := svc.Process(node)
		for _, info := range p.Server.ResourceInventory() {
			perNode[node]++
			n, err := cli.Handle(p.Addr(), info.ProviderID).Count(sctx(t))
			if err != nil {
				t.Fatal(err)
			}
			keys += n
		}
	}
	return perNode, keys
}

// TestServiceControllerReactsToSkew: the service's controller, run on
// a simulated clock, detects a data-skewed placement from the service's
// own inventory and migrates databases with real REMI migrations until
// every node holds one, without any operator action — and then leaves
// the balanced service alone.
func TestServiceControllerReactsToSkew(t *testing.T) {
	svc, _ := startService(t, skewedSpec(t, "ctl-service", 4), 4, 6)
	fill(t, svc, 4, 30)

	c := svc.Controller(pufferscale.Objectives{WData: 1, WTime: 0.1})
	sampled := make(chan struct{})
	inventory := c.Inventory
	c.Inventory = func(ctx context.Context) ([]pufferscale.Resource, []string, error) {
		sampled <- struct{}{}
		return inventory(ctx)
	}
	var moves []pufferscale.Move // written by Run's goroutine between two samples
	migrate := c.Migrate
	c.Migrate = func(ctx context.Context, m pufferscale.Move) error {
		moves = append(moves, m)
		return migrate(ctx, m)
	}
	clk := clock.NewSim(time.Time{})
	ctx, cancel := context.WithCancel(sctx(t))
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx, clk, time.Second) }()
	tick := func() {
		t.Helper()
		if !clk.WaitForWaiters(1, 5*time.Second) {
			t.Fatal("Run never armed its ticker")
		}
		clk.Advance(time.Second)
		<-sampled
	}
	tick() // primes
	tick() // measures the skew and rebalances
	tick() // the step before has ended
	if len(moves) != 3 {
		t.Fatalf("moves after the rebalancing step: %+v", moves)
	}
	tick()
	tick()
	cancel()
	<-done
	if len(moves) != 3 {
		t.Fatalf("controller kept rebalancing a balanced service: %+v", moves)
	}
	perNode, keys := placement(t, svc)
	for _, node := range svc.Nodes() {
		if perNode[node] != 1 {
			t.Fatalf("databases not spread 1-per-node: %v", perNode)
		}
	}
	if keys != 120 {
		t.Fatalf("data lost during rebalancing: %d keys", keys)
	}
}

// TestServiceControllerIdleOnBalancedService: no spurious migrations.
func TestServiceControllerIdleOnBalancedService(t *testing.T) {
	svc, _ := startService(t, kvSpec(t, RecoverNone), 3, 5)
	c := svc.Controller(pufferscale.Objectives{})
	for i := 0; i < 4; i++ {
		if plan, err := c.Step(sctx(t)); plan != nil || err != nil {
			t.Fatalf("step %d on a balanced service: plan %+v, err %v", i, plan, err)
		}
	}
}

// TestShrinkDrainsThroughPufferscale: Shrink's drain is a Pufferscale
// plan over the survivors. Every database of the leaving node lands on
// a survivor, spread over them; under the drain's time-dominant
// objectives nothing moves from one survivor to another; and the data
// is readable where it landed.
func TestShrinkDrainsThroughPufferscale(t *testing.T) {
	svc, _ := startService(t, skewedSpec(t, "drain-service", 6), 3, 5)
	fill(t, svc, 6, 10)
	ctx := sctx(t)
	// Give each survivor one database of its own, then drain node-0 of
	// the four it has left.
	ctl := svc.Controller(pufferscale.Objectives{})
	for i, dst := range []string{"node-1", "node-2"} {
		if err := ctl.Migrate(ctx, pufferscale.Move{ResourceID: fmt.Sprintf("db-%d", i+1), From: "node-0", To: dst}); err != nil {
			t.Fatal(err)
		}
	}
	before := map[string]string{} // survivor's database -> node
	for _, node := range []string{"node-1", "node-2"} {
		p, _ := svc.Process(node)
		for _, info := range p.Server.ResourceInventory() {
			before[info.Name] = node
		}
	}
	if len(before) != 2 {
		t.Fatalf("setup: survivors hold %v", before)
	}

	if err := svc.Shrink(ctx, "node-0"); err != nil {
		t.Fatal(err)
	}
	perNode, keys := placement(t, svc)
	if perNode["node-1"] != 3 || perNode["node-2"] != 3 {
		t.Fatalf("drained databases not spread over the survivors: %v", perNode)
	}
	if keys != 60 {
		t.Fatalf("data lost during the drain: %d keys", keys)
	}
	for name, node := range before {
		p, _ := svc.Process(node)
		if _, ok := p.Server.LookupProvider(name); !ok {
			t.Fatalf("%s moved off survivor %s during a drain", name, node)
		}
	}
}
