package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The latency ladder times one public call of each layer from outside,
// one call in flight, with the workload's key and value sizes. Each
// rung of a chain adds one layer to the rung before it, so the
// difference between neighbours is what that layer costs.
var ladderChains = [][]string{
	{"mercury.tcp_rtt_us", "margo.forward_us", "yokan.rpc_get_us", "router.get_us"},
	{"raft.store_append_us", "raft.apply_us", "core.raftkv_put_us"},
	{"raft.read_us", "core.raftkv_get_us"},
}

// ladderDeltas returns, for each rung of a chain, its median minus the
// median of the rung below it; the first rung's delta is its median.
func ladderDeltas(chain []string, medians map[string]float64) []float64 {
	out := make([]float64, len(chain))
	prev := 0.0
	for i, name := range chain {
		out[i] = medians[name] - prev
		prev = medians[name]
	}
	return out
}

// residual is how far the ladder's top rung is from what the workload
// itself measured with one client, as a share of the latter.
func residual(topRung, workloadP50 float64) float64 {
	if workloadP50 == 0 {
		return 0
	}
	return math.Abs(topRung-workloadP50) / workloadP50
}

const (
	bulkBytes = 4 << 20
	// ladderRungs is how many timed loops runLadder makes; its time
	// budget is split evenly between them.
	ladderRungs = 17
	// ladderKeys bounds the keys a rung preloads, so that the rungs'
	// own set-up stays short next to their timed loops.
	ladderKeys = 4096
)

// ladder collects the rungs' rows.
type ladder struct {
	per     time.Duration
	rows    []row
	medians map[string]float64
}

// time runs p.op for the rung's share of the budget and records
// median, p99 and count. A sample is one call, or the mean of `batch`
// back-to-back calls where one call is too short to time alone. With
// bytes > 0 the value is a rate in MB/s and unit says so. It returns
// the number of calls and the difference of p.counters over the loop.
func (l *ladder) time(name, unit string, p *probe, batch int, bytes int) (calls float64, delta map[string]float64, err error) {
	var before map[string]float64
	if p.counters != nil {
		before = p.counters()
	}
	var ns []float64
	for start := time.Now(); time.Since(start) < l.per || len(ns) == 0; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := p.op(); err != nil {
				return 0, nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		ns = append(ns, float64(time.Since(t0))/float64(batch))
	}
	sort.Float64s(ns)
	conv := func(v float64) float64 { // ns per call -> the rung's unit
		switch {
		case bytes > 0:
			return float64(bytes) / 1e6 / (v / 1e9)
		case unit == "us":
			return v / 1e3
		case unit == "ms":
			return v / 1e6
		}
		return v
	}
	med, p99 := conv(percentile(ns, 0.5)), conv(percentile(ns, 0.99))
	l.rows = append(l.rows, row{Name: name, Value: med, Unit: unit,
		Note: fmt.Sprintf("median; p99 %.4g; %d samples of %d calls", p99, len(ns), batch)})
	l.medians[name] = med
	calls = float64(len(ns) * batch)
	if p.counters != nil {
		delta = p.counters()
		for k := range delta {
			delta[k] -= before[k]
		}
	}
	return calls, delta, nil
}

func (l *ladder) derived(name string, value float64, unit, note string) {
	l.rows = append(l.rows, row{Name: name, Value: value, Unit: unit, Note: note})
	l.medians[name] = value
}

func mean(sum, count float64) float64 {
	if count == 0 {
		return 0
	}
	return sum / count
}

// runLadder times every rung, `total` of timed loops in all.
func runLadder(ctx context.Context, s spec, in *inputs, total time.Duration) (rows []row, medians map[string]float64, err error) {
	l := &ladder{per: total / ladderRungs, medians: map[string]float64{}}
	// The rungs' own set-up waits for elections; bound the wait.
	ctx, cancel := context.WithTimeout(ctx, total+time.Minute)
	defer cancel()
	dir, err := os.MkdirTemp("", "mochi-bench-ladder-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	keys := in.keys
	if len(keys) > ladderKeys {
		keys = keys[:ladderKeys]
	}
	value := in.value(make([]byte, s.valLen), preloadWriter, 0)
	payload := append(append([]byte(nil), keys[0]...), value...)
	small := *in
	small.keys = keys

	// run times one probe and closes it.
	run := func(name, unit string, p *probe, perr error, batch, bytes int) (float64, map[string]float64, error) {
		if perr != nil {
			return 0, nil, fmt.Errorf("%s: %w", name, perr)
		}
		if p.close != nil {
			defer p.close()
		}
		return l.time(name, unit, p, batch, bytes)
	}

	// codec
	calls, d, err := run("codec.roundtrip_ns", "ns", probeCodec(keys[0], value), nil, 256, 0)
	if err != nil {
		return nil, nil, err
	}
	l.derived("codec.allocs_per_op", d["mallocs"]/calls, "count", "heap allocations per round trip, whole process")

	// mercury
	p, perr := probeMercuryRTT(payload)
	if _, _, err = run("mercury.tcp_rtt_us", "us", p, perr, 1, 0); err != nil {
		return nil, nil, err
	}
	p, perr = probeMercuryBulk(bulkBytes)
	if _, _, err = run("mercury.bulk_mb_per_s", "MB/s", p, perr, 1, bulkBytes); err != nil {
		return nil, nil, err
	}

	// argobots
	p, perr = probeArgobots()
	if _, d, err = run("argobots.dispatch_us", "us", p, perr, 1, 0); err != nil {
		return nil, nil, err
	}
	l.derived("argobots.pool_wait_us", mean(d["wait_sum"], d["wait_count"])*1e6, "us", "mean mochi_pool_wait_seconds")

	// margo
	p, perr = probeMargo(payload)
	if _, d, err = run("margo.forward_us", "us", p, perr, 1, 0); err != nil {
		return nil, nil, err
	}
	l.derived("margo.overhead_us", l.medians["margo.forward_us"]-l.medians["mercury.tcp_rtt_us"], "us", "margo.forward_us - mercury.tcp_rtt_us")
	l.derived("margo.queue_us", mean(d["queue_sum"], d["queue_count"])*1e6, "us", "mean mochi_rpc_handler_queue_seconds")
	l.derived("margo.handler_us", mean(d["handler_sum"], d["handler_count"])*1e6, "us", "mean mochi_rpc_handler_runtime_seconds")

	// yokan
	put, get, perr := probeYokanDB(keys, value)
	if _, _, err = run("yokan.db_put_ns", "ns", put, perr, 64, 0); err != nil {
		return nil, nil, err
	}
	if _, _, err = run("yokan.db_get_ns", "ns", get, nil, 64, 0); err != nil {
		return nil, nil, err
	}
	p, perr = probeYokanRPC(keys, value)
	if _, _, err = run("yokan.rpc_get_us", "us", p, perr, 1, 0); err != nil {
		return nil, nil, err
	}

	// yokan/router: two owners and a spare, so that a shard can move.
	p, perr = probeRouterLookup(keys)
	if _, _, err = run("router.lookup_ns", "ns", p, perr, 256, 0); err != nil {
		return nil, nil, err
	}
	sharded := spec{name: "ladder-router", owners: 2, keys: len(keys), valLen: s.valLen, clients: 1}
	dep, err := setUp(ctx, sharded, 0, &small)
	if err != nil {
		return nil, nil, fmt.Errorf("router rung: %w", err)
	}
	i := 0
	getRung := &probe{op: func() error { i++; _, err := dep.c.clients[0].Get(ctx, keys[i%len(keys)]); return err }}
	var moved int64
	flipRung := &probe{op: func() error {
		shard, err := dep.c.flip(ctx)
		moved += dep.shardBytes[shard]
		return err
	}, close: dep.close}
	if _, _, err = run("router.get_us", "us", getRung, nil, 1, 0); err != nil {
		dep.close()
		return nil, nil, err
	}
	if calls, _, err = run("router.flip_ms", "ms", flipRung, nil, 1, 0); err != nil {
		return nil, nil, err
	}
	l.derived("router.reshard_mb_per_s", float64(moved)/calls/1e6/(l.medians["router.flip_ms"]/1e3), "MB/s",
		fmt.Sprintf("mean shard payload %.0f B over the median flip, no client load", float64(moved)/calls))

	// raft
	p, perr = probeRaftAppend(filepath.Join(dir, "append"), value)
	if _, _, err = run("raft.store_append_us", "us", p, perr, 1, 0); err != nil {
		return nil, nil, err
	}
	apply, read, perr := probeRaftNode(ctx, filepath.Join(dir, "raft"), value)
	if _, _, err = run("raft.apply_us", "us", apply, perr, 1, 0); err != nil {
		return nil, nil, err
	}
	if _, _, err = run("raft.read_us", "us", read, nil, 1, 0); err != nil {
		return nil, nil, err
	}

	// core: one RaftKV session on the workloads' own cluster shape.
	replicated := spec{name: "ladder-raftkv", raft: true, keys: min(len(keys), 256), valLen: s.valLen, clients: 1}
	small.keys = keys[:replicated.keys]
	if dep, err = setUp(ctx, replicated, 0, &small); err != nil {
		return nil, nil, fmt.Errorf("core rung: %w", err)
	}
	kv, rk := dep.c.clients[0], small.keys
	putRung := &probe{op: func() error { i++; return kv.Put(ctx, rk[i%len(rk)], value) }, counters: dep.c.counters}
	getKV := &probe{op: func() error { i++; _, err := kv.Get(ctx, rk[i%len(rk)]); return err }, counters: dep.c.counters, close: dep.close}
	if calls, d, err = run("core.raftkv_put_us", "us", putRung, nil, 1, 0); err != nil {
		dep.close()
		return nil, nil, err
	}
	l.derived("raft.fsyncs_per_op", d["fsyncs"]/calls, "count", "leader fsyncs per Put, one session")
	l.derived("raft.entries_per_batch", mean(d["batch_sum"], d["batch_count"]), "count", "mean mochi_raft_batch_entries, one session")
	l.derived("raft.commit_us", mean(d["commit_sum"], d["commit_count"])*1e6, "us", "mean mochi_raft_commit_latency_seconds, one session")
	if calls, d, err = run("core.raftkv_get_us", "us", getKV, nil, 1, 0); err != nil {
		return nil, nil, err
	}
	l.derived("raft.readindex_rounds_per_read", d["read_rounds"]/calls, "count", "ReadIndex quorum rounds per Get, one session")

	// remi
	p, perr = probeRemi(filepath.Join(dir, "remi"), bulkBytes)
	if _, _, err = run("remi.migrate_mb_per_s", "MB/s", p, perr, 1, bulkBytes); err != nil {
		return nil, nil, err
	}

	for _, chain := range ladderChains {
		for i, delta := range ladderDeltas(chain, l.medians) {
			if i > 0 {
				l.rows = append(l.rows, row{Name: "delta." + chain[i], Value: delta, Unit: "us",
					Note: fmt.Sprintf("%s - %s: what the layer adds", chain[i], chain[i-1])})
			}
		}
	}
	return l.rows, l.medians, nil
}

// topRung is the ladder rung that is the workload's own call with one
// client.
func topRung(s spec) string {
	switch {
	case !s.raft:
		return "router.get_us"
	case s.getFrac >= 0.5:
		return "core.raftkv_get_us"
	}
	return "core.raftkv_put_us"
}
