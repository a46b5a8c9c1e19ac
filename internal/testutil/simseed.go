package testutil

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// SimSeeds returns the seed matrix of a deterministic-simulation test:
// SIM_SEED pins a single seed (the replay path printed on failures),
// SIM_SEEDS sets the count, def is the count when neither is set.
func SimSeeds(t failer, def int) []int64 {
	t.Helper()
	if v := os.Getenv("SIM_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad SIM_SEED %q: %v", v, err)
		}
		return []int64{s}
	}
	n := def
	if v := os.Getenv("SIM_SEEDS"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad SIM_SEEDS %q: %v", v, err)
		}
		n = p
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// ReplayLine is the reproduction line every failing sim run prints:
// the command that re-runs the calling test in pkg (a directory, like
// "./internal/sim/") at exactly this seed.
func ReplayLine(t interface{ Name() string }, seed int64, pkg string) string {
	return fmt.Sprintf("replay: SIM_SEED=%d go test -run %s %s", seed, t.Name(), pkg)
}

// twin is what CatchTwin needs of a *testing.T.
type twin interface {
	failer
	Logf(format string, args ...any)
	Name() string
}

// CatchTwin proves a simulator's checks have teeth. run plays a
// deliberately broken rule at one seed and returns the run's trace hash
// and the violation it ended with, nil if none. Over the seed matrix one
// seed must fail, with one of the violations in want, a replay line (for
// the test in pkg) that pins the seed, and the same violation and trace
// hash when it is run again.
func CatchTwin(t twin, pkg string, run func(seed int64) (uint64, error), want ...string) {
	t.Helper()
	for _, seed := range SimSeeds(t, 8) {
		trace, err := run(seed)
		if err == nil {
			continue
		}
		expected := false
		for _, w := range want {
			expected = expected || strings.Contains(err.Error(), w)
		}
		if !expected {
			t.Fatalf("seed %d: the broken rule surfaced as %v, want one of %q", seed, err, want)
		}
		line := ReplayLine(t, seed, pkg)
		t.Logf("caught: %v\n%s", err, line)
		if !strings.Contains(line, fmt.Sprintf("SIM_SEED=%d go test", seed)) {
			t.Fatalf("replay line %q does not pin the seed", line)
		}
		// The line is only worth printing if the seed reproduces.
		if again, err2 := run(seed); err2 == nil || err2.Error() != err.Error() || again != trace {
			t.Fatalf("seed %d did not replay: %v (trace %016x) then %v (trace %016x)", seed, err, trace, err2, again)
		}
		return
	}
	t.Fatalf("the broken rule went unnoticed on every seed")
}
