// Reshard-demo: one logical keyspace horizontally sharded across
// three Bedrock processes, resharded online under live traffic
// (DESIGN.md §9). Two processes own the shards at bootstrap; the
// third is a spare. A writer keeps appending while every shard on
// node 0 migrates to the spare (snapshot, then the move's log), then
// the demo verifies that not a single acked write went missing.
//
// Run with: go run ./examples/reshard-demo
package main

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"sync"
	"time"

	"mochi/internal/bedrock"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/modules"
	"mochi/internal/pufferscale"
	"mochi/internal/yokan/router"
)

const providerID = 40

func main() {
	modules.RegisterBuiltins()
	fabric := mercury.NewFabric()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Three bedrock processes share one keyspace: the identical
	// bootstrap block makes each derive the same map, every shard at
	// version 0, so no coordination service is needed. node-2 is not
	// listed as an owner — it starts as a routing spare and gains
	// shards only by migration.
	owners := `["sm://node-0", "sm://node-1"]`
	cfg := fmt.Sprintf(`{
	  "libraries": {"xkv": "libxkv.so"},
	  "providers": [
	    {"name": "keyspace", "type": "xkv", "provider_id": %d,
	     "config": {"backend": {"type": "map"},
	                "bootstrap": {"shards": 8, "owners": %s}}}
	  ]
	}`, providerID, owners)
	var servers []*bedrock.Server
	for i := 0; i < 3; i++ {
		cls, err := fabric.NewClass(fmt.Sprintf("node-%d", i))
		if err != nil {
			log.Fatal(err)
		}
		srv, err := bedrock.NewServer(cls, []byte(cfg))
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Shutdown()
		servers = append(servers, srv)
	}

	ccls, err := fabric.NewClass("client")
	if err != nil {
		log.Fatal(err)
	}
	client, err := margo.New(ccls, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Finalize()

	r, err := router.Bootstrap(ctx, client, []string{"sm://node-0", "sm://node-1"}, providerID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrap: epoch %d, %d shards over 2 owners + 1 spare\n",
		r.Map().Epoch(), len(r.Map().Owners))

	// Live traffic: one writer appends versioned values while the
	// reshard runs; the ledger records what was acked.
	ledger := map[string]string{}
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("key-%d", i%500)
			v := fmt.Sprintf("v%d", i)
			if err := r.Put(ctx, []byte(k), []byte(v)); err != nil {
				log.Fatalf("put %s: %v", k, err)
			}
			mu.Lock()
			ledger[k] = v
			mu.Unlock()
		}
	}()

	// Move every shard node-0 owns to the spare, one migration at
	// a time, while the writer keeps going.
	time.Sleep(100 * time.Millisecond)
	spare := router.Owner{Addr: "sm://node-2", Provider: providerID}
	reshard := router.Migrator(client)
	moved := 0
	for s, o := range r.Map().Owners {
		if o.Addr != "sm://node-0" {
			continue
		}
		mv := pufferscale.Move{ResourceID: strconv.Itoa(s), From: o.String(), To: spare.String()}
		if err := reshard(ctx, mv); err != nil {
			log.Fatalf("reshard shard %d: %v", s, err)
		}
		moved++
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every acked write must be readable at its last acked value.
	if err := r.Refresh(ctx); err != nil {
		log.Fatal(err)
	}
	for k, want := range ledger {
		v, err := r.Get(ctx, []byte(k))
		if err != nil {
			log.Fatalf("lost acked write %q: %v", k, err)
		}
		if string(v) != want {
			log.Fatalf("key %q: got %q want %q", k, v, want)
		}
	}
	fmt.Printf("moved %d shards to the spare at epoch %d; %d acked writes verified, 0 lost\n",
		moved, r.Map().Epoch(), len(ledger))
	fmt.Printf("shard 0 now owned by %s\n", r.Map().Owners[0].Addr)
}
