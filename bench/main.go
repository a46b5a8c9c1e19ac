// Command bench is the repository's standing benchmark: four
// closed-loop workloads over real TCP loopback, a per-layer latency
// ladder, and a traced run. See README.md.
//
//	go run . [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-out file] [-repeat N]
//
// The last line of standard output is one JSON object for the last
// workload run: {"correct","attempted","failed","metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostFacts says where the numbers were taken.
type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
	Fsync      string `json:"fsync"`
}

func host(benchDir string) hostFacts {
	h := hostFacts{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Transport: transportDesc, Fsync: fsyncDesc,
	}
	root := filepath.Join(benchDir, "..")
	// Ask git only inside a repository, so that a plain checkout is
	// not searched upwards for one.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// contractLine is what the driver reads from the last line.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) contract() contractLine {
	c := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	for _, m := range append(append([]row(nil), r.EndToEnd...), r.PerLayer...) {
		c.Metrics[m.Name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return c
}

func (r *report) print() {
	fmt.Printf("\n== %s (seed %d, %d s, tracing %v; closed loop; %s; fsync on %s)\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, transportDesc, fsyncDesc)
	fmt.Printf("   why: %s\n", r.Why)
	section := func(title string, rows []row) {
		if len(rows) == 0 {
			return
		}
		fmt.Printf("-- %s\n", title)
		for _, m := range rows {
			fmt.Printf("   %-36s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
	}
	section("end to end", r.EndToEnd)
	section("per layer", r.PerLayer)
	section("diagnostic", r.Diagnostic)
	fmt.Printf("-- outcome\n   attempted %d  failed %d  failed_frac %.6f  correct %v\n", r.Attempted, r.Failed, r.FailedFrac, r.Correct)
	for _, p := range r.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	if r.TraceFile != "" {
		fmt.Printf("   trace written to %s\n", r.TraceFile)
	}
}

func main() {
	var (
		dir      = flag.String("dir", ".", "the benchmark's own directory (out/ goes here, BENCHMARK.json is one level up)")
		names    = flag.String("workload", "", "comma-separated workloads (default all)")
		seed     = flag.Int64("seed", 1, "seed of every generated key, value and choice")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		traceArg = flag.Int("trace", 0, "0: end-to-end run, tracing off; 1: traced run with the latency ladder")
		out      = flag.String("out", "", "also write the results as JSON to this file")
		repeat   = flag.Int("repeat", 0, "calibration: run every workload this many times, each with another seed, and print the spreads")
	)
	flag.Parse()
	if err := run(*dir, *names, *seed, *seconds, *traceArg != 0, *out, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(dir, names string, seed int64, seconds float64, traced bool, out string, repeat int) error {
	var specs []spec
	if names == "" {
		specs = workloads
	}
	for _, name := range strings.Split(names, ",") {
		if name == "" {
			continue
		}
		s, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		specs = append(specs, s)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if repeat > 0 {
		return calibrate(dir, specs, seed, seconds, repeat)
	}

	facts := host(dir)
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s, commit %s; transport: %s; fsync: %s\n",
		facts.NumCPU, facts.GOMAXPROCS, facts.GoVersion, facts.Commit, facts.Transport, facts.Fsync)
	ctx := context.Background()
	var reports []*report
	correct := true
	for _, s := range specs {
		var r *report
		var err error
		if traced {
			r, err = runTraced(ctx, s, seed, seconds, dir)
		} else {
			r, err = runEndToEnd(ctx, s, seed, seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		r.print()
		reports = append(reports, r)
		correct = correct && r.Correct
	}
	if out != "" {
		doc, err := json.MarshalIndent(struct {
			Host      hostFacts `json:"host"`
			Workloads []*report `json:"workloads"`
		}{facts, reports}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(reports[len(reports)-1].contract())
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n", line)
	if !correct {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}
