//go:build !race

package testutil

// RaceEnabled reports whether the race detector is compiled in:
// allocation pins are meaningless under its instrumentation.
const RaceEnabled = false
