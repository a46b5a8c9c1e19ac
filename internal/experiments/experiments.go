// Package experiments implements the quantitative evaluation the
// paper defers to future work (§9: "Our immediate next step will be
// to provide quantifiable evidence of these performance
// improvements"). Each experiment exercises one of the four dynamic
// properties (or a substrate design decision the paper argues for)
// and prints a table; EXPERIMENTS.md records the expected shapes and
// measured results. The same harnesses back the root-level
// testing.B benchmarks and the cmd/mochi-bench tool.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form note printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// fmtDur renders a duration with sensible precision.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// fmtRate renders an operations-per-second rate.
func fmtRate(ops int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	r := float64(ops) / d.Seconds()
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2fM/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk/s", r/1e3)
	default:
		return fmt.Sprintf("%.1f/s", r)
	}
}

// fmtBytesRate renders a bandwidth.
func fmtBytesRate(bytes int64, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	r := float64(bytes) / d.Seconds()
	switch {
	case r >= 1e9:
		return fmt.Sprintf("%.2fGB/s", r/1e9)
	case r >= 1e6:
		return fmt.Sprintf("%.1fMB/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fkB/s", r/1e3)
	default:
		return fmt.Sprintf("%.0fB/s", r)
	}
}

// fmtBytes renders a byte count.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Runner is one experiment. Quick mode shrinks the sweep so the whole
// suite runs in CI time; full mode is for cmd/mochi-bench.
type Runner struct {
	ID   string
	Name string
	Run  func(quick bool) (*Table, error)
}

// All returns every experiment in order.
func All() []Runner {
	return []Runner{
		{"E1", "RPC latency/throughput and monitoring overhead", E1Monitoring},
		{"E2", "Online reconfiguration latency", E2Reconfiguration},
		{"E3", "REMI migration: bulk vs pipelined chunks", E3RemiCrossover},
		{"E4", "SWIM failure detection vs group size", E4SwimDetection},
		{"E5", "Raft throughput and leader failover", E5Raft},
		{"E6", "Pufferscale objective trade-offs", E6Pufferscale},
		{"E7", "Elastic scale-out/in redistribution", E7Elasticity},
		{"E8", "Virtual-resource replication overhead", E8VirtualKV},
		{"E9", "Yokan backend comparison", E9Backends},
		{"E10", "Dynamic vs static HEPnOS workflow", E10Hepnos},
		{"E12", "Transport scaling at high connection counts", E12Transport},
		{"E14", "SWIM at scale on the deterministic simulator", E14SwimSim},
	}
}
