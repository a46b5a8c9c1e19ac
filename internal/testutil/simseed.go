package testutil

import (
	"fmt"
	"os"
	"strconv"
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
