package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// perLayerNames are the metrics of a traced run that BENCHMARK.json
// lists under per_layer, in print order. Everything else a traced run
// measures is diagnostic: counters that are zero on some workloads,
// the ladder's deltas, and kinds no span has on this workload.
var perLayerNames = []string{
	"codec.roundtrip_ns",
	"mercury.tcp_rtt_us", "mercury.bulk_mb_per_s",
	"argobots.dispatch_us", "argobots.pool_wait_us",
	"margo.forward_us", "margo.overhead_us", "margo.queue_us", "margo.handler_us",
	"yokan.db_put_ns", "yokan.db_get_ns", "yokan.rpc_get_us",
	"router.lookup_ns", "router.get_us", "router.flip_ms", "router.reshard_mb_per_s",
	"raft.store_append_us", "raft.apply_us", "raft.read_us",
	"raft.fsyncs_per_op", "raft.entries_per_batch", "raft.commit_us", "raft.readindex_rounds_per_read",
	"core.raftkv_put_us", "core.raftkv_get_us",
	"remi.migrate_mb_per_s",
	"trace.client_self_frac", "trace.queue_self_frac", "trace.handler_self_frac", "trace.uncovered_frac",
	"trace_overhead_frac", "ladder_residual_frac",
}

// traceFileTrees and traceFileFlips bound the newest request and
// Reshard trees written to the trace file, so that it stays loadable.
const (
	traceFileTrees = 2000
	traceFileFlips = 50
)

func tail(ids []uint64, n int) []uint64 {
	if len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	return ids
}

// runTraced is the per-layer run. Half of the time goes to legs on the
// workload's own cluster — tracing off and on in turn, then tracing
// off with a single client — and half to the latency ladder.
func runTraced(ctx context.Context, s spec, seed int64, seconds float64, benchDir string) (*report, error) {
	r := &report{Workload: s.name, Why: s.why, Seed: seed, Seconds: int(seconds), Traced: true, Correct: true}
	in := newInputs(seed, s)
	d, err := setUp(ctx, s, seed, in)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()

	total := time.Duration(seconds * float64(time.Second))
	window := total / 10
	// Untraced and traced legs alternate, so that drift of the box
	// falls on both sides of trace_overhead_frac alike. The spans of
	// the last traced leg are the ones analysed.
	var plainOps, tracedOps float64
	var traced *leg
	for i := 0; i < 2; i++ {
		plain := d.runLoad(ctx, s.clients, window/5, window, false)
		d.c.setTracing(true)
		traced = d.runLoad(ctx, s.clients, window/5, window, true)
		d.c.setTracing(false)
		plainOps += float64(plain.succeeded())
		tracedOps += float64(traced.succeeded())
		r.account(s, plain)
		r.account(s, traced)
	}
	spans, from := d.c.spans()
	spans = append(spans, traced.spans...)
	single := d.runLoad(ctx, 1, window/5, window, false)
	r.account(s, single)
	checked, lost, err := d.verify(ctx)
	if err != nil {
		r.problem("ledger read-back: %v", err)
	}
	if lost > 0 {
		r.problem("%d of %d acked writes lost", lost, checked)
	}
	if r.Attempted > 0 {
		r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	}

	rows, medians, err := runLadder(ctx, s, in, total/2)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	// Where the client-observed latency of the traced leg went.
	ops := analyse(spans, from, func(root span) bool { return root.Name != "reshard" })
	for _, kind := range spanKinds {
		rows = append(rows, row{Name: "trace." + kind + "_self_frac", Value: ops.share(kind), Unit: "frac",
			Note: fmt.Sprintf("self time of %s spans / client latency, %d request trees", kind, ops.roots)})
	}
	rows = append(rows,
		row{Name: "trace.uncovered_frac", Value: ops.share(kindOp), Unit: "frac",
			Note: "client latency under no span: client-side router, raft client, codec"},
		row{Name: "trace_overhead_frac", Value: 1 - tracedOps/plainOps, Unit: "frac",
			Note: fmt.Sprintf("1 - %.0f traced / %.0f untraced ops in equal, alternating windows", tracedOps, plainOps)},
		row{Name: "ladder_residual_frac", Value: residual(medians[topRung(s)], single.quantile(0.5)), Unit: "frac",
			Note: fmt.Sprintf("|%s %.1f - one-client p50 %.1f| / p50", topRung(s), medians[topRung(s)], single.quantile(0.5))},
	)
	keep := tail(ops.traceIDs, traceFileTrees)
	if s.churn {
		flips := analyse(spans, from, func(root span) bool { return root.Name == "reshard" })
		for _, kind := range append([]string{kindOp}, spanKinds...) {
			rows = append(rows, row{Name: "trace.reshard." + kind + "_self_frac", Value: flips.share(kind), Unit: "frac",
				Note: fmt.Sprintf("share of Reshard latency, %d flips", flips.roots)})
		}
		keep = append(keep, tail(flips.traceIDs, traceFileFlips)...)
	}
	rows = append(rows, workloadCounters(s, traced)...)

	listed := map[string]bool{}
	for _, name := range perLayerNames {
		listed[name] = true
	}
	for _, row := range rows {
		if listed[row.Name] {
			r.PerLayer = append(r.PerLayer, row)
		} else {
			r.Diagnostic = append(r.Diagnostic, row)
		}
	}

	out := filepath.Join(benchDir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	r.TraceFile = filepath.Join(out, "trace-"+s.name+".json")
	if err := writeChromeTrace(r.TraceFile, spansOf(spans, keep)); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	return r, nil
}
