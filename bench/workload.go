package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"
)

// spec is one workload. Load is closed loop: every load goroutine
// blocks on each call, as an HPC rank does, and the count is fixed at
// two per workload for this two-core box rather than derived from the
// machine.
type spec struct {
	name, why string
	raft      bool // 3-member RaftKV group; otherwise 3 sharded router nodes
	owners    int  // sharded: nodes that own shards at start (the rest are spares)
	keys      int  // preloaded keys
	valLen    int
	getFrac   float64
	clients   int  // goroutines issuing Get/Put
	churn     bool // one more goroutine ping-pongs node 0's shards to the spare
	// ungated keeps the workload out of BENCHMARK.json, and so out of
	// the driver's runs: it runs here by name or with all the others.
	ungated bool
}

const (
	keyLen      = 20
	shardCount  = 8
	routerNodes = 3
	// setupReps is how many clusters a gated run sets up, one after the
	// other. setup_s is the median of the set-up times, and each cluster
	// carries a fifth of the measured seconds, so that a run samples
	// the box over half a minute and more than one election, port
	// assignment and heap layout.
	setupReps = 5
	// slices is how many equal parts each measured window is cut into.
	// The box is shared: neighbours slow some parts of every run down,
	// for a fraction of a second or for many seconds, and speed none
	// up. Each end-to-end metric is therefore the better quartile of the
	// parts' own values over all windows of the run (see
	// betterQuartile), which repeats from run to run where the
	// whole-run value does not.
	slices = 10
)

var workloads = []spec{
	{
		name:   "kv-small-tcp",
		why:    "50/50 Get/Put of 64 B values on 3 sharded nodes: all per-op overhead (codec, mercury TCP, margo, argobots, router), no fsync, no bulk",
		owners: 3, keys: 100000, valLen: 64, getFrac: 0.5, clients: 2,
	},
	{
		name: "raft-put-fsync",
		why:  "100% Put to a 3-member RaftKV group on fsync-ing file stores: propose, fsync, replicate, apply dominate and the per-op RPC layers do not",
		raft: true, keys: 1024, valLen: 128, getFrac: 0, clients: 2,
		// Its latency is four fsyncs deep and the sandbox's disk changes
		// pace for minutes at a time: CALIBRATION.md has a set of ten
		// runs whose quartiles are 25 % apart, which no bound the driver
		// allows can hold.
		ungated: true,
	},
	{
		name: "raft-read-heavy",
		why:  "95% ReadIndex Get / 5% Put on the same group: no log entry per read, one heartbeat quorum round, so a write-path change that taxes reads shows here",
		raft: true, keys: 1024, valLen: 128, getFrac: 0.95, clients: 2,
	},
	{
		name:   "reshard-churn",
		why:    "1 client on 1 KiB values while node 0's ~4 MiB shards ping-pong to a spare: dual writes, redirects, REMI bulk and snapshot merge, so per-byte cost dominates",
		owners: 2, keys: 32768, valLen: 1024, getFrac: 0.5, clients: 1, churn: true,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// preloadWriter marks a value written by the preload, not by a client.
const preloadWriter = 0xFF

// inputs is everything the program under test sees, all derived from
// the seed.
type inputs struct {
	keys   [][]byte
	filler []byte
	valLen int
}

func newInputs(seed int64, s spec) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{valLen: s.valLen, filler: make([]byte, s.valLen+256)}
	rng.Read(in.filler)
	seen := make(map[uint64]bool, s.keys)
	for len(in.keys) < s.keys {
		v := rng.Uint64() % 1e19
		if seen[v] {
			continue
		}
		seen[v] = true
		in.keys = append(in.keys, []byte(fmt.Sprintf("k%0*d", keyLen-1, v)))
	}
	return in
}

// value fills dst with the value `writer` wrote as its seq-th write:
// an 8-byte header naming both, then seeded filler.
func (in *inputs) value(dst []byte, writer byte, seq uint64) []byte {
	dst = dst[:in.valLen]
	binary.LittleEndian.PutUint64(dst, seq<<8|uint64(writer))
	off := int(seq % 256)
	copy(dst[8:], in.filler[off:off+in.valLen-8])
	return dst
}

// deployment is a cluster with its inputs and the state the load
// goroutines carry from one leg of a run to the next.
type deployment struct {
	spec spec
	in   *inputs
	c    *cluster
	dir  string

	rngs    []*rand.Rand
	seqs    []uint64
	ledgers []map[int]uint64 // per client: key index -> seq of its last acked write
	ids     []uint64         // per goroutine: span id generator state
	// shardBytes is the payload a flip of each shard moves.
	shardBytes map[uint32]int64
}

// setUp starts the workload's cluster in a fresh directory and
// preloads every key. It is the work setup_s times.
func setUp(ctx context.Context, s spec, seed int64, in *inputs) (*deployment, error) {
	dir, err := os.MkdirTemp("", "mochi-bench-")
	if err != nil {
		return nil, err
	}
	var c *cluster
	if s.raft {
		c, err = newRaftCluster(dir, s.clients)
	} else {
		c, err = newShardedCluster(dir, routerNodes, s.owners, shardCount, s.clients)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &deployment{spec: s, in: in, c: c, dir: dir}
	for w := 0; w < s.clients; w++ {
		d.rngs = append(d.rngs, rand.New(rand.NewSource(seed*1000003+int64(w))))
		d.ledgers = append(d.ledgers, map[int]uint64{})
	}
	d.seqs = make([]uint64, s.clients)
	for g := 0; g <= s.clients; g++ { // one more for the reshard driver
		d.ids = append(d.ids, uint64(seed)<<20|uint64(g+1)<<56)
	}
	if c.shardOf != nil {
		d.shardBytes = map[uint32]int64{}
		for _, k := range in.keys {
			d.shardBytes[c.shardOf(k)] += int64(len(k) + s.valLen)
		}
	}
	errs := make([]error, s.clients)
	var wg sync.WaitGroup
	for w := 0; w < s.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, s.valLen)
			for ki := w; ki < len(in.keys); ki += s.clients {
				if err := c.clients[w].Put(ctx, in.keys[ki], in.value(buf, preloadWriter, uint64(ki))); err != nil {
					errs[w] = fmt.Errorf("preload key %d: %w", ki, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *deployment) close() {
	d.c.close()
	os.RemoveAll(d.dir)
}

// nextID steps goroutine g's splitmix64 generator: span and trace ids
// that collide neither with each other nor, in practice, with the
// tracers' own.
func (d *deployment) nextID(g int) uint64 {
	d.ids[g] += 0x9E3779B97F4A7C15
	x := d.ids[g]
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x | 1
}

// tally is what a load goroutine counts besides latencies; a leg sums
// its goroutines' tallies and a run sums its legs'.
type tally struct {
	failed   int
	misses   int // Gets of a preloaded key that did not return a well-formed value
	gets     int
	puts     int
	flips    int
	flipErrs int
	migBytes int64
	firstErr error
}

func (t *tally) add(o tally) {
	t.failed += o.failed
	t.misses += o.misses
	t.gets += o.gets
	t.puts += o.puts
	t.flips += o.flips
	t.flipErrs += o.flipErrs
	t.migBytes += o.migBytes
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// leg is what one timed stretch of load produced.
type leg struct {
	tally
	window   time.Duration
	slices   [][]float64        // per slice of the window: ascending latencies in µs of the calls that completed in it
	counters map[string]float64 // layer counters, difference over the window
	spans    []span             // the benchmark's own spans (traced legs)
}

// succeeded is the number of calls that returned a latency sample.
func (l *leg) succeeded() int {
	n := 0
	for _, s := range l.slices {
		n += len(s)
	}
	return n
}

// merge pools the windows of a run: slices side by side, counts summed.
func merge(legs []*leg) *leg {
	m := &leg{counters: map[string]float64{}}
	for _, l := range legs {
		m.tally.add(l.tally)
		m.window += l.window
		m.slices = append(m.slices, l.slices...)
		for k, v := range l.counters {
			m.counters[k] += v
		}
	}
	return m
}

// all returns every latency of the window, ascending.
func (l *leg) all() []float64 {
	var out []float64
	for _, s := range l.slices {
		out = append(out, s...)
	}
	sort.Float64s(out)
	return out
}

// opsPerSec is the better quartile of the slices' throughputs.
func (l *leg) opsPerSec() float64 {
	per := l.window.Seconds() / float64(len(l.slices))
	return l.betterQuartile(true, func(s []float64) float64 { return float64(len(s)) / per })
}

// quantile is the better quartile of the slices' q-quantiles.
func (l *leg) quantile(q float64) float64 {
	return l.betterQuartile(false, func(s []float64) float64 { return percentile(s, q) })
}

// betterQuartile computes f on every slice of the window and returns
// the value a quarter of the way in from the better end: the upper
// quartile where higher is better, else the lower.
func (l *leg) betterQuartile(higherIsBetter bool, f func(sorted []float64) float64) float64 {
	var v []float64
	for _, s := range l.slices {
		if len(s) > 0 {
			v = append(v, f(s))
		}
	}
	sort.Float64s(v)
	if higherIsBetter {
		return percentile(v, 0.75)
	}
	return percentile(v, 0.25)
}

// worker is what one load goroutine hands back.
type worker struct {
	tally
	slices [slices][]float64
	spans  []span
}

// runLoad drives `clients` of the deployment's clients (and the
// reshard driver, if the workload has one) for warm+window and reports
// the window. With traced set, every call runs under a span of the
// benchmark's own.
func (d *deployment) runLoad(ctx context.Context, clients int, warm, window time.Duration, traced bool) *leg {
	begin := time.Now().Add(warm)
	end := begin.Add(window)
	// One deadline for every call of the leg: a call that hangs is cut
	// there and counted as failed, and no per-call timer distorts the
	// short calls.
	ctx, cancel := context.WithDeadline(ctx, end.Add(30*time.Second))
	defer cancel()

	slot := func(done time.Time) int {
		if done.Before(begin) {
			return -1
		}
		return int(done.Sub(begin) * slices / window)
	}
	workers := make([]*worker, clients+1)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wk := &worker{}
		workers[w] = wk
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d.client(ctx, w, wk, end, slot, traced)
		}(w)
	}
	if d.spec.churn {
		wk := &worker{}
		workers[clients] = wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.driver(ctx, wk, end, slot, traced)
		}()
	}
	time.Sleep(time.Until(begin))
	before := d.c.counters()
	time.Sleep(time.Until(end))
	after := d.c.counters()
	wg.Wait()

	l := &leg{window: window, slices: make([][]float64, slices), counters: map[string]float64{}}
	for k, v := range after {
		l.counters[k] = v - before[k]
	}
	for _, wk := range workers {
		if wk == nil {
			continue
		}
		l.tally.add(wk.tally)
		for i := range wk.slices {
			l.slices[i] = append(l.slices[i], wk.slices[i]...)
		}
		l.spans = append(l.spans, wk.spans...)
	}
	for _, sl := range l.slices {
		sort.Float64s(sl)
	}
	return l
}

// client is one closed-loop load goroutine. Reads roam the whole
// keyspace; writes stay on the keys whose index is w modulo the client
// count, so each key has one writer and the ledger is exact.
func (d *deployment) client(ctx context.Context, w int, wk *worker, end time.Time, slot func(time.Time) int, traced bool) {
	s, in, kv, rng := d.spec, d.in, d.c.clients[w], d.rngs[w]
	buf := make([]byte, s.valLen)
	for {
		ki := rng.Intn(len(in.keys))
		isGet := rng.Float64() < s.getFrac
		if !isGet {
			ki -= ki % s.clients
			ki += w
			if ki >= len(in.keys) {
				ki -= s.clients
			}
		}
		octx := ctx
		var sp span
		if traced {
			sp = span{TraceID: d.nextID(w), ID: d.nextID(w), Kind: kindOp, Process: fmt.Sprintf("bench-client-%d", w), Name: "put"}
			if isGet {
				sp.Name = "get"
			}
			octx = withSpan(ctx, sp.TraceID, sp.ID)
		}
		// The value is built before the clock starts and the ledger is
		// written after it stops: neither is the system's work.
		var seq uint64
		if !isGet {
			seq = d.seqs[w] + 1
			in.value(buf, byte(w), seq)
		}
		start := time.Now()
		if !start.Before(end) {
			return
		}
		var err error
		miss := false
		if isGet {
			var v []byte
			v, err = kv.Get(octx, in.keys[ki])
			if isNotFound(err) {
				miss, err = true, nil
			} else if err == nil {
				// Well-formed: full length, written by the preload or
				// by the one client that may write this key.
				miss = len(v) != s.valLen || (v[0] != preloadWriter && int(v[0]) != ki%s.clients)
			}
		} else {
			err = kv.Put(octx, in.keys[ki], buf)
		}
		done := time.Now()
		if !isGet && err == nil {
			d.seqs[w] = seq
			d.ledgers[w][ki] = seq
		}
		i := slot(done)
		if i < 0 || i >= slices {
			continue // warm-up, or completed after the window closed
		}
		if traced {
			sp.Start, sp.Dur = start.UnixNano(), int64(done.Sub(start))
			wk.spans = append(wk.spans, sp)
		}
		switch {
		case err != nil:
			wk.failed++
			if wk.firstErr == nil {
				wk.firstErr = err
			}
		case miss:
			wk.misses++
		default:
			wk.slices[i] = append(wk.slices[i], float64(done.Sub(start))/1e3)
			if isGet {
				wk.gets++
			} else {
				wk.puts++
			}
		}
	}
}

// driver flips node 0's shards to the spare and back for the whole leg.
func (d *deployment) driver(ctx context.Context, wk *worker, end time.Time, slot func(time.Time) int, traced bool) {
	g := len(d.ids) - 1
	for {
		octx := ctx
		var sp span
		if traced {
			sp = span{TraceID: d.nextID(g), ID: d.nextID(g), Kind: kindOp, Process: "bench-driver", Name: "reshard"}
			octx = withSpan(ctx, sp.TraceID, sp.ID)
		}
		start := time.Now()
		if !start.Before(end) {
			return
		}
		shard, err := d.c.flip(octx)
		done := time.Now()
		if i := slot(done); i < 0 || i >= slices {
			continue
		}
		if traced {
			sp.Start, sp.Dur = start.UnixNano(), int64(done.Sub(start))
			wk.spans = append(wk.spans, sp)
		}
		if err != nil {
			wk.flipErrs++
			if wk.firstErr == nil {
				wk.firstErr = fmt.Errorf("reshard shard %d: %w", shard, err)
			}
			continue
		}
		wk.flips++
		wk.migBytes += d.shardBytes[shard]
	}
}

// verify reads every client's ledger back through fresh clients and
// returns how many acked writes are not there.
func (d *deployment) verify(ctx context.Context) (checked, lost int, err error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	type tally struct {
		checked, lost int
		err           error
	}
	out := make([]tally, len(d.ledgers))
	var wg sync.WaitGroup
	for w, ledger := range d.ledgers {
		kv, err := d.c.fresh(ctx)
		if err != nil {
			return 0, 0, fmt.Errorf("fresh client: %w", err)
		}
		wg.Add(1)
		go func(w int, ledger map[int]uint64) {
			defer wg.Done()
			want := make([]byte, d.spec.valLen)
			for ki, seq := range ledger {
				got, err := kv.Get(ctx, d.in.keys[ki])
				out[w].checked++
				if err != nil && !isNotFound(err) {
					out[w].err = err
					return
				}
				if err != nil || !bytes.Equal(got, d.in.value(want, byte(w), seq)) {
					out[w].lost++
				}
			}
		}(w, ledger)
	}
	wg.Wait()
	for _, t := range out {
		checked += t.checked
		lost += t.lost
		if err == nil {
			err = t.err
		}
	}
	return checked, lost, err
}

// row is one printed metric.
type row struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// report is the outcome of one run of one workload.
type report struct {
	Workload   string   `json:"workload"`
	Why        string   `json:"why"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Traced     bool     `json:"traced"`
	Correct    bool     `json:"correct"`
	Problems   []string `json:"problems,omitempty"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	FailedFrac float64  `json:"failed_frac"`
	// EndToEnd (tracing off) or PerLayer (traced run) hold exactly the
	// metrics BENCHMARK.json names; Diagnostic holds everything else.
	EndToEnd   []row  `json:"end_to_end,omitempty"`
	PerLayer   []row  `json:"per_layer,omitempty"`
	Diagnostic []row  `json:"diagnostic,omitempty"`
	TraceFile  string `json:"trace_file,omitempty"`
}

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// account folds a leg's failures into the report's correctness.
func (r *report) account(s spec, l *leg) {
	r.Attempted += l.succeeded() + l.failed
	r.Failed += l.failed
	if l.failed > 0 {
		r.problem("%d of %d ops failed, first: %v", l.failed, l.succeeded()+l.failed, l.firstErr)
	}
	if l.misses > 0 {
		r.problem("%d Gets of a preloaded key missed or returned a malformed value", l.misses)
	}
	if l.flipErrs > 0 {
		r.problem("%d reshards failed, first: %v", l.flipErrs, l.firstErr)
	}
	if s.churn && l.flips == 0 {
		r.problem("no shard flipped during the window")
	}
}

// workloadCounters turns a leg's raw counter differences into the
// per-operation figures the layers are judged by. They are named
// window.* because the ladder has one-session rungs of the same names.
func workloadCounters(s spec, l *leg) []row {
	c := l.counters
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if s.raft {
		return []row{
			{Name: "window.raft.fsyncs_per_op", Value: ratio(c["fsyncs"], float64(l.puts)), Unit: "count", Note: "leader fsyncs per Put over the window"},
			{Name: "window.raft.entries_per_batch", Value: ratio(c["batch_sum"], c["batch_count"]), Unit: "count"},
			{Name: "window.raft.commit_us", Value: ratio(c["commit_sum"], c["commit_count"]) * 1e6, Unit: "us", Note: "mean mochi_raft_commit_latency_seconds"},
			{Name: "window.raft.readindex_rounds_per_read", Value: ratio(c["read_rounds"], float64(l.gets)), Unit: "count"},
		}
	}
	rows := []row{
		{Name: "window.router.redirects", Value: c["router.redirects"], Unit: "count", Note: "stale-epoch redirects served by the nodes"},
		{Name: "window.router.client_redirects", Value: c["router.client_redirects"], Unit: "count"},
		{Name: "window.router.dual_writes", Value: c["router.dual_writes"], Unit: "count"},
		{Name: "window.router.flips", Value: c["router.flips"], Unit: "count"},
	}
	if s.churn {
		rows = append(rows,
			row{Name: "mig_mb_per_s", Value: float64(l.migBytes) / 1e6 / l.window.Seconds(), Unit: "MB/s", Note: "shard payload bytes moved by completed flips"},
			row{Name: "flips_per_s", Value: float64(l.flips) / l.window.Seconds(), Unit: "1/s"},
		)
	}
	return rows
}

// runEndToEnd is the gated run: tracing off, setupReps clusters one
// after the other, each timed while it is set up, loaded for its share
// of the measured seconds, and read back.
func runEndToEnd(ctx context.Context, s spec, seed int64, seconds float64) (*report, error) {
	r := &report{Workload: s.name, Why: s.why, Seed: seed, Seconds: int(seconds), Correct: true}
	in := newInputs(seed, s)
	window := time.Duration(seconds * float64(time.Second) / setupReps)
	var setups []float64
	var legs []*leg
	checked := 0
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		d, err := setUp(ctx, s, seed, in)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		legs = append(legs, d.runLoad(ctx, s.clients, window/5, window, false))
		n, lost, err := d.verify(ctx)
		d.close()
		checked += n
		if err != nil {
			r.problem("ledger read-back: %v", err)
		}
		if lost > 0 {
			r.problem("%d of %d acked writes lost", lost, n)
		}
	}
	l := merge(legs)
	r.account(s, l)
	if r.Attempted > 0 {
		r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	}

	all := l.all()
	n := len(all)
	_, setupMedian, _ := quartiles(setups)
	r.EndToEnd = []row{
		{Name: "ops_per_s", Value: l.opsPerSec(), Unit: "1/s", Note: fmt.Sprintf("upper quartile of %d slices over %d clusters; %d ops in all", len(l.slices), setupReps, n)},
		{Name: "p50_us", Value: l.quantile(0.50), Unit: "us", Note: fmt.Sprintf("lower quartile of the slices' p50; %d samples", n)},
		{Name: "setup_s", Value: setupMedian, Unit: "s", Note: fmt.Sprintf("median of %d set-ups: start, election, preload of %d keys", setupReps, s.keys)},
	}
	// p99_us is printed and not gated: CALIBRATION.md shows it does not
	// repeat within a bound on reshard-churn, where the share of calls a
	// flip stalls is about one in a hundred, so p99 sits on the knee
	// between the two regimes.
	r.Diagnostic = append(r.Diagnostic,
		row{Name: "p99_us", Value: l.quantile(0.99), Unit: "us", Note: fmt.Sprintf("lower quartile of the slices' p99; %d samples, %d beyond; demoted, not gated", n, n/100)},
		row{Name: "whole_run_ops_per_s", Value: float64(n) / l.window.Seconds(), Unit: "1/s", Note: "all windows together"},
		row{Name: "whole_run_p50_us", Value: percentile(all, 0.50), Unit: "us"},
		row{Name: "whole_run_p99_us", Value: percentile(all, 0.99), Unit: "us"},
	)
	// Further out the tail is printed at p999 and at the highest
	// percentile the sample supports.
	label, top := highestPercentile(n)
	for _, p := range tailPercentiles {
		if p.q > 0.99 && p.q <= top && (p.label == "p999" || p.q == top) {
			r.Diagnostic = append(r.Diagnostic, row{Name: p.label + "_us", Value: percentile(all, p.q), Unit: "us",
				Note: fmt.Sprintf("all windows, %d samples beyond; informational (highest reportable: %s)", int(float64(n)*(1-p.q)), label)})
		}
	}
	r.Diagnostic = append(r.Diagnostic, row{Name: "ledger_checked", Value: float64(checked), Unit: "count", Note: "acked writes read back through fresh clients"})
	r.Diagnostic = append(r.Diagnostic, workloadCounters(s, l)...)
	return r, nil
}
