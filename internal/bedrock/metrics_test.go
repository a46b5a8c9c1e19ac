package bedrock_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mochi/internal/bedrock"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/yokan"
)

// monitoredConfig is listing3JSON plus the new monitoring block.
const monitoredConfig = `{
  "margo": {
    "argobots": {
      "pools": [ { "name": "MyPoolX", "type": "fifo_wait", "access": "mpmc" } ],
      "xstreams": [ { "name": "MyES0",
                      "scheduler": { "type": "basic_wait", "pools": ["MyPoolX"] } } ]
    },
    "progress_pool": "MyPoolX",
    "rpc_pool": "MyPoolX"
  },
  "monitoring": { "http_address": "127.0.0.1:0" },
  "libraries": { "yokan": "libyokan.so" },
  "providers": [
    { "name": "db", "type": "yokan", "provider_id": 1,
      "pool": "MyPoolX", "config": {"type": "map"} }
  ]
}`

func TestMetricsHTTPEndpoint(t *testing.T) {
	f := mercury.NewFabric()
	srv := newServer(t, f, "mhttp", monitoredConfig)
	addr := srv.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty with monitoring configured")
	}

	// Drive some traffic so per-RPC series appear.
	cls, err := f.NewClass("mhttp-cli")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Finalize()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	db := yokan.NewClient(cli).Handle(srv.Addr(), 1)
	for i := 0; i < 3; i++ {
		if err := db.Put(ctx, []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A handler's end is recorded after its reply has left. MyPoolX has
	// one xstream, so once a ULT pushed behind the three puts has run,
	// their handlers have finished and been recorded.
	pool, ok := srv.Instance().FindPoolByName("MyPoolX")
	if !ok {
		t.Fatal("MyPoolX not found")
	}
	th, err := pool.Push(func() {})
	if err != nil {
		t.Fatal(err)
	}
	th.Join()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`# TYPE mochi_rpc_handler_runtime_seconds histogram`,
		`mochi_rpc_handler_queue_seconds_count{rpc="_all",provider="_all"} `,
		`mochi_pool_depth{pool="MyPoolX"}`,
		`mochi_pool_ults_executed_total{pool="MyPoolX"}`,
		`mochi_xstream_ults_executed_total{xstream="MyES0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	// The server handled 3 puts: the aggregate target-side count says so.
	if !strings.Contains(text, `mochi_rpc_handler_runtime_seconds_count{rpc="_all",provider="_all"} 3`) {
		t.Errorf("expected 3 handled RPCs in aggregate series:\n%s", text)
	}

	// /healthz reports ok plus the provider inventory.
	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status    string   `json:"status"`
		Address   string   `json:"address"`
		Providers []string `json:"providers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Address != srv.Addr() || len(health.Providers) != 1 {
		t.Errorf("healthz = %+v", health)
	}

	// Shutdown closes the listener.
	srv.Shutdown()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("/metrics should be unreachable after Shutdown")
	}
}

func TestGetMetricsRPC(t *testing.T) {
	f := mercury.NewFabric()
	// No monitoring block: the RPC path must work without HTTP.
	srv := newServer(t, f, "mrpc", listing3JSON)
	if srv.MetricsAddr() != "" {
		t.Fatal("no HTTP listener expected without a monitoring block")
	}

	cls, err := f.NewClass("mrpc-cli")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Finalize()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sh := bedrock.NewClient(cli).MakeServiceHandle(srv.Addr())
	text, err := sh.GetMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`# TYPE mochi_rpc_forward_latency_seconds histogram`,
		`mochi_pool_depth{pool="MyPoolX"}`,
		// The GetMetrics RPC itself ran on the server by the time the
		// reply was built... its handler runtime is recorded on the
		// *next* scrape; here we only require the families to exist.
		`# TYPE mochi_rpc_handler_runtime_seconds histogram`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("GetMetrics missing %q:\n%s", want, text)
		}
	}
}

func TestMonitoringHTTPBindFailure(t *testing.T) {
	f := mercury.NewFabric()
	cls, err := f.NewClass("bindfail")
	if err != nil {
		t.Fatal(err)
	}
	_, err = bedrock.NewServer(cls, []byte(`{
	  "monitoring": { "http_address": "256.0.0.1:1" }
	}`))
	if err == nil {
		t.Fatal("unbindable monitoring address should fail server startup")
	}
	if !strings.Contains(err.Error(), "monitoring listener") {
		t.Errorf("error should name the monitoring listener: %v", err)
	}
}
