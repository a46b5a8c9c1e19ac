// Command mochi-bench runs the evaluation suite (EXPERIMENTS.md) and
// prints one table per experiment. The standing, gated benchmark is
// bench/ (BENCHMARK.json); this tool reproduces the shapes the paper
// predicts.
//
// Usage:
//
//	mochi-bench [-quick] [-only E3,E12]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mochi/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, stdio, exit code) made
// explicit so tests can drive the tool in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mochi-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run reduced sweeps (CI mode)")
	only := fs.String("only", "", "comma-separated experiment IDs to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mochi-bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	all := experiments.All()
	want := map[string]bool{}
	if *only != "" {
		valid := make([]string, len(all))
		known := make(map[string]bool, len(all))
		for i, r := range all {
			valid[i], known[r.ID] = r.ID, true
		}
		for _, id := range strings.Split(*only, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !known[id] {
				fmt.Fprintf(stderr, "mochi-bench: unknown experiment %q (valid: %s)\n", id, strings.Join(valid, ", "))
				return 2
			}
			want[id] = true
		}
	}

	failed := 0
	for _, r := range all {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		fmt.Fprintf(stdout, "running %s: %s ...\n", r.ID, r.Name)
		start := time.Now()
		table, err := r.Run(*quick)
		if err != nil {
			fmt.Fprintf(stderr, "%s FAILED: %v\n\n", r.ID, err)
			failed++
			continue
		}
		table.Render(stdout)
		fmt.Fprintf(stdout, "(%s completed in %s)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		return 1
	}
	return 0
}
