package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// TestStatsAndMetricsReadOneRecord: margo's Listing 1, its mochi_rpc_*
// families and the controller's provider load are renderings of one
// per-RPC record, so under concurrent traffic — two clients of four
// goroutines each against two providers, with an RPC that errors and a
// bulk pull — each of them counts exactly the RPCs issued.
func TestStatsAndMetricsReadOneRecord(t *testing.T) {
	const goroutines, perProvider = 4, 10
	f := mercury.NewFabric()
	inst := func(name string) *margo.Instance {
		cls, err := f.NewClass(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Finalize)
		return m
	}
	srv := inst("rec-srv")
	clients := []*margo.Instance{inst("rec-cli-0"), inst("rec-cli-1")}
	for _, p := range []uint16{1, 2} {
		if _, err := srv.RegisterProvider("work", p, nil, func(_ context.Context, h *mercury.Handle) {
			_ = h.Respond(h.Input())
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.RegisterProvider("fail", 1, nil, func(_ context.Context, h *mercury.Handle) {
		_ = h.RespondError(errors.New("fail"))
	}); err != nil {
		t.Fatal(err)
	}
	region := srv.Class().CreateBulk(make([]byte, 4096), mercury.BulkReadOnly)
	defer region.Free()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errc := make(chan error, 2*goroutines+1)
	for _, cli := range clients {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perProvider; i++ {
					for _, p := range []uint16{1, 2} {
						if _, err := cli.ForwardProvider(ctx, srv.Addr(), "work", p, []byte("x")); err != nil {
							errc <- err
							return
						}
					}
				}
				if _, err := cli.ForwardProvider(ctx, srv.Addr(), "fail", 1, nil); err == nil {
					errc <- errors.New("fail succeeded")
				}
			}()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		local := clients[0].Class().CreateBulk(make([]byte, 4096), mercury.BulkReadWrite)
		defer local.Free()
		if err := clients[0].Class().BulkTransfer(ctx, mercury.BulkPull, region.Descriptor(), 0, local, 0, 4096); err != nil {
			errc <- err
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	const work, fails = goroutines * perProvider, goroutines // per client and provider
	want := func(what string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %g, want %g", what, got, want)
		}
	}
	row := func(st *margo.StatsSnapshot, rpc string, p uint16) *margo.RPCStats {
		t.Helper()
		for _, r := range st.RPCs {
			if r.Name == rpc && r.ProviderID == p {
				return r
			}
		}
		t.Fatalf("no Listing-1 row for %s/%d in %v", rpc, p, st.Keys())
		return nil
	}

	for _, cli := range clients {
		st, m := cli.Stats(), seriesValues(cli)
		for _, c := range []struct {
			rpc string
			p   uint16
			n   float64
		}{{"work", 1, work}, {"work", 2, work}, {"fail", 1, fails}} {
			o := row(st, c.rpc, c.p).Origin["sent to "+srv.Addr()]
			key := fmt.Sprintf("%s{%s,%d}", "mochi_rpc_forward_latency_seconds", c.rpc, c.p)
			want("origin num "+key, float64(o.Duration.Num), c.n)
			want(key, m[key], c.n)
		}
		want("origin errors", float64(row(st, "fail", 1).Origin["sent to "+srv.Addr()].Errors), fails)
		want("mochi_rpc_forward_errors_total{fail}", m["mochi_rpc_forward_errors_total{fail}"], fails)
		want("mochi_rpc_forward_latency_seconds{_all,_all}", m["mochi_rpc_forward_latency_seconds{_all,_all}"], 2*work+fails)
	}

	// The target records a handler's end after its reply leaves: wait
	// for the last of them before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for seriesValues(srv)["mochi_rpc_handler_runtime_seconds{_all,_all}"] < 2*(2*work+fails) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st, m := srv.Stats(), seriesValues(srv)
	for _, c := range []struct {
		rpc string
		p   uint16
		n   float64
	}{{"work", 1, work}, {"work", 2, work}, {"fail", 1, fails}} {
		for _, cli := range clients {
			tg := row(st, c.rpc, c.p).Target["received from "+cli.Addr()]
			want(fmt.Sprintf("target queued num %s/%d", c.rpc, c.p), float64(tg.ULT.Queued.Num), c.n)
			want(fmt.Sprintf("target duration num %s/%d", c.rpc, c.p), float64(tg.ULT.Duration.Num), c.n)
		}
		for _, fam := range []string{"mochi_rpc_handler_queue_seconds", "mochi_rpc_handler_runtime_seconds"} {
			key := fmt.Sprintf("%s{%s,%d}", fam, c.rpc, c.p)
			want(key, m[key], 2*c.n)
		}
	}
	for _, fam := range []string{"mochi_rpc_handler_queue_seconds", "mochi_rpc_handler_runtime_seconds"} {
		want(fam+"{_all,_all}", m[fam+"{_all,_all}"], 2*(2*work+fails))
	}
	want("providerLoad(1)", providerLoad(st, 1), 2*(work+fails))
	want("providerLoad(2)", providerLoad(st, 2), 2*work)

	bulk := clients[0].Stats().Bulk[srv.Addr()]
	if bulk == nil {
		t.Fatal("no bulk statistics for the pull")
	}
	want("Bulk pulls", float64(bulk.Pulls), 1)
	want(`mochi_bulk_transfer_bytes{pull}`, seriesValues(clients[0])["mochi_bulk_transfer_bytes{pull}"], 1)
}

// seriesValues flattens an instance's metrics to family{labels} keys:
// a histogram's observation count, or a counter's value.
func seriesValues(inst *margo.Instance) map[string]float64 {
	out := map[string]float64{}
	for _, f := range inst.Metrics().Snapshot() {
		for _, s := range f.Series {
			key := f.Name + "{" + strings.Join(s.LabelValues, ",") + "}"
			if s.Hist != nil {
				out[key] = float64(s.Hist.Count)
			} else {
				out[key] = s.Value
			}
		}
	}
	return out
}
