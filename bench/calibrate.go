package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the calibration needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile(benchDir string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// calibrate does what the driver does to judge steadiness: it runs
// this program `repeat` times per workload as a process of its own,
// tracing off, each time with another seed, and prints for every
// end-to-end metric the median, the quartiles, their distance as a
// share of the median, and (max-min)/median, in Markdown. A spread
// beyond the metric's bound in BENCHMARK.json is flagged.
func calibrate(benchDir string, specs []spec, seed int64, seconds float64, repeat int) error {
	bf, err := readBenchmarkFile(benchDir)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	outFile, err := os.CreateTemp("", "mochi-bench-calibrate-*.json")
	if err != nil {
		return err
	}
	outFile.Close()
	defer os.Remove(outFile.Name())
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	for rep := 0; rep < repeat; rep++ {
		for _, s := range specs { // interleaved, so that drift of the box hits every workload alike
			cmd := exec.Command(self, "-dir", benchDir, "-workload", s.name,
				"-seed", strconv.FormatInt(seed+int64(rep), 10),
				"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0", "-out", outFile.Name())
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s, seed %d: %w", s.name, seed+int64(rep), err)
			}
			raw, err := os.ReadFile(outFile.Name())
			if err != nil {
				return err
			}
			var doc struct {
				Workloads []*report `json:"workloads"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Workloads) != 1 {
				return fmt.Errorf("%s: result file: %d workloads, %v", s.name, len(doc.Workloads), err)
			}
			r := doc.Workloads[0]
			if !r.Correct || r.Failed > 0 {
				return fmt.Errorf("%s, seed %d: correct=%v failed=%d", s.name, seed+int64(rep), r.Correct, r.Failed)
			}
			if values[s.name] == nil {
				values[s.name] = map[string][]float64{}
			}
			for _, m := range append(r.EndToEnd, r.Diagnostic...) {
				values[s.name][m.Name] = append(values[s.name][m.Name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "calibrate: run %d/%d of %s done\n", rep+1, repeat, s.name)
		}
	}

	facts := host(benchDir)
	fmt.Printf("%d runs per workload, seeds %d..%d, %.0f s measured per run, tracing off, each run a process of its own.\n",
		repeat, seed, seed+int64(repeat)-1, seconds)
	fmt.Printf("Host: %d CPUs, GOMAXPROCS %d, %s, commit %s; %s; fsync on %s.\n\n",
		facts.NumCPU, facts.GOMAXPROCS, facts.GoVersion, facts.Commit, facts.Transport, facts.Fsync)
	fmt.Println("| workload | metric | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	// The gated metrics, then the ones printed next to them: p99_us is
	// here so that its demotion rests on numbers.
	type tracked struct {
		name, unit string
		bound      float64 // 0: not gated
	}
	var metrics []tracked
	for _, m := range bf.EndToEnd {
		metrics = append(metrics, tracked{m.Name, m.Unit, m.Bound})
	}
	metrics = append(metrics, tracked{"p99_us", "us", 0}, tracked{"mig_mb_per_s", "MB/s", 0})
	for _, s := range specs {
		for _, m := range metrics {
			v := values[s.name][m.name]
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			iqr, rng := spread(v), (sorted[len(sorted)-1]-sorted[0])/q2
			bound, verdict := fmt.Sprintf("%.2f", m.bound), "steady (below a third of the bound)"
			switch {
			case s.ungated:
				verdict = fmt.Sprintf("workload not gated; spread %.2f against the bound", iqr)
			case m.bound == 0:
				bound, verdict = "-", "diagnostic, not gated"
			case m.name == "setup_s":
				verdict = "spread not gated"
			case iqr > m.bound:
				verdict = "UNSTEADY: spread exceeds the bound"
			case iqr > m.bound/3:
				verdict = "within the bound, above a third of it"
			}
			fmt.Printf("| %s | %s (%s) | %.4g | %.4g | %.4g | %.4f | %.4f | %s | %s |\n",
				s.name, m.name, m.unit, q2, q1, q3, iqr, rng, bound, verdict)
		}
	}
	fmt.Print("\nEvery run, in order:\n\n")
	for _, s := range specs {
		for _, m := range metrics {
			if v := values[s.name][m.name]; len(v) > 0 {
				fmt.Printf("- %s %s:", s.name, m.name)
				for _, x := range v {
					fmt.Printf(" %.4g", x)
				}
				fmt.Println()
			}
		}
	}
	return nil
}
