package bedrock_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"mochi/internal/bedrock"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/testutil"
	"mochi/internal/trace"
	"mochi/internal/yokan"
)

// collectTrace polls the given tracers until the spans belonging to
// traceID satisfy ok (span commits race the client observing the RPC
// reply, so a fixed snapshot would be flaky).
func collectTrace(t *testing.T, traceID trace.ID, ok func([]trace.Span) bool, tracers ...*trace.Tracer) []trace.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var spans []trace.Span
	for {
		spans = spans[:0]
		for _, tr := range tracers {
			for _, s := range tr.Spans() {
				if s.TraceID == traceID {
					spans = append(spans, s)
				}
			}
		}
		if ok(spans) {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %v incomplete after 5s: %d spans: %+v", traceID, len(spans), spans)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func hasSpan(spans []trace.Span, kind trace.Kind, name string) bool {
	for _, s := range spans {
		if s.Kind == kind && (name == "" || s.Name == name) {
			return true
		}
	}
	return false
}

// TestMigrateTraceTree drives a full provider migration — bedrock RPC
// into REMI bulk transfer pulling yokan's backing file — and checks
// that every hop's spans land under one trace ID forming one tree.
func TestMigrateTraceTree(t *testing.T) {
	f := mercury.NewFabric()
	srcRoot := t.TempDir()
	dstRoot := t.TempDir()
	srcCfg := fmt.Sprintf(`{
	  "libraries": {"yokan": "x"},
	  "remi_root": %q,
	  "providers": [
	    { "name": "db", "type": "yokan", "provider_id": 3,
	      "config": {"type":"log", "path": %q, "no_sync": true} }
	  ]
	}`, srcRoot+"/remi", filepath.Join(srcRoot, "db.log"))
	dstCfg := fmt.Sprintf(`{"libraries": {"yokan": "x"}, "remi_root": %q}`, dstRoot)

	src := newServer(t, f, "trace-mig-src", srcCfg)
	dst := newServer(t, f, "trace-mig-dst", dstCfg)
	cli := newClientInst(t, f, "trace-mig-cli")
	ctx := bctx(t)

	h := yokan.NewClient(cli).Handle(src.Addr(), 3)
	for i := 0; i < 20; i++ {
		if err := h.Put(ctx, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Sample only the migration itself, not the fill traffic above.
	cli.Tracer().SetSampleRate(1)
	sh := bedrock.NewClient(cli).MakeServiceHandle(src.Addr())
	if err := sh.MigrateProvider(ctx, "db", dst.Addr(), dst.RemiProviderID(), "bulk"); err != nil {
		t.Fatal(err)
	}
	cli.Tracer().SetSampleRate(0)

	// The migration's root span is the client-side bedrock_migrate_provider.
	var root trace.Span
	found := false
	for _, s := range cli.Tracer().Spans() {
		if s.Kind == trace.KindClient && s.Name == "bedrock_migrate_provider" {
			root, found = s, true
		}
	}
	if !found {
		t.Fatalf("no client span for bedrock_migrate_provider in %+v", cli.Tracer().Spans())
	}
	if root.Parent != 0 {
		t.Fatalf("migrate client span should be a root, parent = %v", root.Parent)
	}

	complete := func(spans []trace.Span) bool {
		return hasSpan(spans, trace.KindServer, "bedrock_migrate_provider") &&
			hasSpan(spans, trace.KindClient, "remi_begin") &&
			hasSpan(spans, trace.KindServer, "remi_begin") &&
			hasSpan(spans, trace.KindBulk, "bulk_pull") &&
			hasSpan(spans, trace.KindQueue, "") &&
			hasSpan(spans, trace.KindHandler, "")
	}
	spans := collectTrace(t, root.TraceID, complete,
		cli.Tracer(), src.Instance().Tracer(), dst.Instance().Tracer())

	// One tree: every parent resolves within the trace, exactly one root.
	ids := map[trace.ID]bool{}
	for _, s := range spans {
		if s.SpanID == 0 {
			t.Fatalf("span with zero ID: %+v", s)
		}
		if ids[s.SpanID] {
			t.Fatalf("duplicate span ID %v", s.SpanID)
		}
		ids[s.SpanID] = true
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == 0 {
			roots++
			continue
		}
		if !ids[s.Parent] {
			t.Fatalf("span %s (%s) has unresolvable parent %v", s.Name, s.Kind, s.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("want exactly 1 root span, got %d in %+v", roots, spans)
	}
	for _, s := range spans {
		if s.Tail {
			t.Fatalf("head-sampled trace should not carry tail flags: %+v", s)
		}
	}

	// The merged multi-process trace renders as one Chrome document.
	doc, err := trace.ChromeJSON(spans)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("chrome doc does not parse: %v", err)
	}
	if len(parsed.TraceEvents) < len(spans) {
		t.Fatalf("chrome doc has %d events for %d spans", len(parsed.TraceEvents), len(spans))
	}
}

// TestTraceExportEndpoints checks the monitoring block applies trace
// settings and that buffered spans are reachable over both export
// paths (bedrock_get_traces RPC and the /traces HTTP endpoint), and
// that the exporters do not leak goroutines across server shutdown.
func TestTraceExportEndpoints(t *testing.T) {
	before := testutil.GoroutineCount()

	f := mercury.NewFabric()
	cls, err := f.NewClass("trace-export-srv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := `{
	  "monitoring": {
	    "http_address": "127.0.0.1:0",
	    "trace_sample_rate": 1,
	    "trace_slow_ms": 250,
	    "trace_buffer_size": 128
	  }
	}`
	srv, err := bedrock.NewServer(cls, []byte(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() // idempotent; the explicit call below is the one under test

	tr := srv.Instance().Tracer()
	if got := tr.SampleRate(); got != 1 {
		t.Fatalf("trace_sample_rate not applied: %v", got)
	}
	if got := tr.SlowThreshold(); got != 250*time.Millisecond {
		t.Fatalf("trace_slow_ms not applied: %v", got)
	}
	if got := tr.Capacity(); got != 128 {
		t.Fatalf("trace_buffer_size not applied: %v", got)
	}

	ccls, err := f.NewClass("trace-export-cli")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(ccls, nil)
	if err != nil {
		t.Fatal(err)
	}
	cli.Tracer().SetSampleRate(1)
	ctx := bctx(t)
	sh := bedrock.NewClient(cli).MakeServiceHandle(srv.Addr())
	for i := 0; i < 3; i++ {
		if _, _, err := sh.GetConfig(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// RPC export: the server's buffer holds spans for the sampled calls.
	spans, raw, err := sh.GetTraces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || !hasSpan(spans, trace.KindServer, "bedrock_get_config") {
		t.Fatalf("GetTraces missing server spans: %+v", spans)
	}

	// HTTP export: /traces serves a Chrome trace-event document.
	resp, err := http.Get("http://" + srv.MetricsAddr() + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/traces is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/traces returned no events")
	}

	// Tear everything down and check the goroutine count settles back:
	// neither the HTTP exporter nor the tracing paths may leak.
	cli.Finalize()
	srv.Shutdown()
	testutil.WaitGoroutinesSettle(t, before, 2)
}
