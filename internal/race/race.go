//go:build race

// Package race reports whether the Go race detector is compiled into
// the binary, so tests can adjust to its side effects in one place
// instead of each package keeping its own race_on/race_off file pair.
//
// Allocation-count assertions (testing.AllocsPerRun) care: the
// detector instruments sync.Pool and channel operations and allocates
// behind the scenes, so zero-alloc contracts are unverifiable under
// -race and must be skipped (the no-race CI lane still enforces them).
package race

// Enabled reports whether the race detector is compiled in.
const Enabled = true
