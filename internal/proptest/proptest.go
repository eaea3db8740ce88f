// Package proptest is a small, stdlib-only property-testing engine in
// the style of pgregory.net/rapid: seed-deterministic generators, a
// property checked over many generated cases, and a minimizing shrinker
// that reduces a failing case to a locally-minimal one and prints a
// re-runnable repro line. It is homegrown because the build runs with
// no module proxy — every dependency must already be in the tree — and
// because the protocol test harnesses need a guarantee rapid does not
// make: the byte stream behind a seed is stable across Go releases (we
// own the PRNG).
//
// Determinism contract: a Gen must derive every choice from the *Rand
// it is handed and nothing else. Under that contract, Run with a fixed
// Config.Seed draws the exact same sequence of cases on every machine
// and every run, and a Failure's (Seed, Case) pair is a complete repro
// key: re-running the generator for that case index reproduces the
// failing value bit for bit.
package proptest

import (
	"fmt"
	"hash/fnv"
)

// Rand is the engine's deterministic PRNG (splitmix64). It is
// deliberately not math/rand: the litmus corpus and the shrink traces
// are compared byte-for-byte across runs and machines, so the stream
// behind a seed must be owned by this package, not by whatever the
// standard library ships this release.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed int64) *Rand {
	r := &Rand{state: uint64(seed)}
	// One warm-up scramble so adjacent seeds do not share prefixes.
	r.Uint64()
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("proptest: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Bool returns a fair coin flip.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Fork derives an independent stream keyed by label from the
// generator's current state, without consuming any of the parent's
// stream: two Forks with the same label from the same state are
// identical, and the parent's subsequent draws are unaffected. This is
// how per-case generators stay replayable — case i's stream depends
// only on (seed, i), never on how much randomness case i-1 consumed.
func (r *Rand) Fork(label string) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	child := &Rand{state: r.state ^ h.Sum64()}
	child.Uint64()
	return child
}

// Gen produces one random value of type V from a deterministic stream.
type Gen[V any] func(*Rand) V

// Property checks one generated value; nil means it holds.
type Property[V any] func(V) error

// Shrinker proposes strictly-smaller candidates for a failing value,
// most aggressive first. Returning nil ends minimisation.
type Shrinker[V any] func(V) []V

// Config parameterises a Run.
type Config struct {
	// Seed fixes the entire case sequence. The zero seed is valid.
	Seed int64
	// Cases is how many generated values to check (default 50).
	Cases int
	// ShrinkEvals bounds property evaluations spent minimising a
	// failure (default 200). The original failure does not count.
	ShrinkEvals int
	// Logf, when set, receives progress lines (shrink steps).
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Cases == 0 {
		c.Cases = 50
	}
	if c.ShrinkEvals == 0 {
		c.ShrinkEvals = 200
	}
}

// Failure describes a property violation: the original failing case
// and the minimised value the shrinker settled on.
type Failure[V any] struct {
	Seed  int64 // Config.Seed of the run
	Case  int   // index of the failing case in the run's sequence
	Value V     // original generated failing value
	Err   error // original property error

	Min     V     // minimised failing value (== Value when unshrinkable)
	MinErr  error // property error of the minimised value
	Shrinks int   // accepted shrink steps
	Evals   int   // property evaluations spent minimising
}

// ReproLine renders the canonical one-line repro recipe for a failure.
func (f *Failure[V]) ReproLine() string {
	return fmt.Sprintf("proptest repro: seed=%d case=%d shrinks=%d — %v", f.Seed, f.Case, f.Shrinks, f.MinErr)
}

// CaseRand returns the generator stream for case idx of a run seeded
// with seed — the replay entry point: gen(CaseRand(seed, idx))
// reproduces the run's idx-th value exactly.
func CaseRand(seed int64, idx int) *Rand {
	return NewRand(seed).Fork(fmt.Sprintf("case-%d", idx))
}

// Run draws cfg.Cases values from gen and checks prop on each. On the
// first failure it minimises the value with shrink (which may be nil)
// and returns the Failure; nil means every case passed.
func Run[V any](cfg Config, gen Gen[V], shrink Shrinker[V], prop Property[V]) *Failure[V] {
	cfg.fill()
	for i := 0; i < cfg.Cases; i++ {
		v := gen(CaseRand(cfg.Seed, i))
		err := prop(v)
		if err == nil {
			continue
		}
		f := &Failure[V]{Seed: cfg.Seed, Case: i, Value: v, Err: err, Min: v, MinErr: err}
		Minimize(cfg, f, shrink, prop)
		return f
	}
	return nil
}

// Minimize greedily reduces f.Min while the property keeps failing:
// each round asks shrink for candidates (most aggressive first) and
// restarts from the first candidate that still fails, until no
// candidate fails or the evaluation budget runs out. The result is
// locally minimal with respect to the shrinker when the budget was not
// exhausted: every proposed reduction of f.Min passes.
func Minimize[V any](cfg Config, f *Failure[V], shrink Shrinker[V], prop Property[V]) {
	cfg.fill()
	if shrink == nil {
		return
	}
	for {
		improved := false
		for _, cand := range shrink(f.Min) {
			if f.Evals >= cfg.ShrinkEvals {
				return
			}
			f.Evals++
			if err := prop(cand); err != nil {
				f.Min, f.MinErr = cand, err
				f.Shrinks++
				if cfg.Logf != nil {
					cfg.Logf("proptest: shrink step %d accepted (%d evals): %v", f.Shrinks, f.Evals, err)
				}
				improved = true
				break
			}
		}
		if !improved {
			return
		}
	}
}
