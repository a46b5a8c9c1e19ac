package experiments

import (
	"strings"
	"testing"
	"time"
)

// Each experiment must run in quick mode, produce a well-formed
// table, and exhibit the qualitative shape DESIGN.md promises where
// that shape is robust enough to assert in CI.

func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	for _, r := range All() {
		if r.ID == id {
			tb, err := r.Run(true)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if tb.ID != id || len(tb.Rows) == 0 || len(tb.Columns) == 0 {
				t.Fatalf("%s: malformed table %+v", id, tb)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Fatalf("%s: row width %d != %d cols", id, len(row), len(tb.Columns))
				}
			}
			var sb strings.Builder
			tb.Render(&sb)
			if !strings.Contains(sb.String(), id) {
				t.Fatalf("%s: render missing id", id)
			}
			return tb
		}
	}
	t.Fatalf("no experiment %s", id)
	return nil
}

func TestE1Quick(t *testing.T)  { runQuick(t, "E1") }
func TestE2Quick(t *testing.T)  { runQuick(t, "E2") }
func TestE3Quick(t *testing.T)  { runQuick(t, "E3") }
func TestE5Quick(t *testing.T)  { runQuick(t, "E5") }
func TestE6Quick(t *testing.T)  { runQuick(t, "E6") }
func TestE7Quick(t *testing.T)  { runQuick(t, "E7") }
func TestE8Quick(t *testing.T)  { runQuick(t, "E8") }
func TestE9Quick(t *testing.T)  { runQuick(t, "E9") }
func TestE10Quick(t *testing.T) { runQuick(t, "E10") }

func TestE12Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("opens ~300 real TCP sockets")
	}
	runQuick(t, "E12")
}

func TestE4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("SWIM timing experiment")
	}
	runQuick(t, "E4")
}

// TestE14Quick runs a reduced single-cell sweep directly (the Runner's
// quick mode still covers 1k and 4k nodes — that is sim-smoke
// territory, not unit-test territory) and asserts replay identity:
// the same seed must produce the same trace hash.
func TestE14Quick(t *testing.T) {
	opts := SwimSimOptions{Nodes: []int{256}, DropRate: []float64{0.02}, Duration: time.Minute}
	a, err := RunSwimSim(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 || len(a.Rows[0]) != len(a.Columns) {
		t.Fatalf("malformed table %+v", a)
	}
	b, err := RunSwimSim(opts)
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := a.Rows[0][len(a.Columns)-1], b.Rows[0][len(b.Columns)-1]
	if ha != hb {
		t.Fatalf("same-seed sweep produced different traces: %s vs %s", ha, hb)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
	}
	tb.AddRow("1", "2")
	tb.Note("hello %d", 42)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"EX — demo", "long-column", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[string]string{
		fmtDur(500 * time.Nanosecond):  "500ns",
		fmtDur(5 * time.Microsecond):   "5.0µs",
		fmtDur(5 * time.Millisecond):   "5.00ms",
		fmtDur(2 * time.Second):        "2.00s",
		fmtBytes(512):                  "512B",
		fmtBytes(64 << 10):             "64KB",
		fmtBytes(3 << 20):              "3MB",
		fmtRate(1000, time.Second):     "1.0k/s",
		fmtBytesRate(1e9, time.Second): "1.00GB/s",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
}
