package litmus

// The litmus scheduler (DESIGN.md §17). An iteration's transactions run
// on goroutines one at a time, and the turn passes at every crash point
// the engine offers, so the interleaving is a function of the seed. A
// goroutine enters before Begin and exits after Commit or Abort returns;
// in between it parks in the crash injector at every point offered with
// its own coordinator id. Other offers — a drain flushed by drainWait or
// FlushDrains, recovery, the observer — pass straight through, so nothing
// parks holding a core mutex.

import (
	"sync/atomic"

	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/proptest"
)

// sched is one iteration's scheduler. Only entered is shared: the rest is
// touched by the goroutine holding the turn, or after the last exit.
type sched struct {
	rng     *proptest.Rand
	coords  []kvlayout.CoordID // goroutine i runs on coordinator coords[i]
	turn    []chan struct{}    // goroutine i resumes on turn[i]
	until   []func() bool      // goroutine i awaits a cue while until[i] reports false
	done    []bool
	entered atomic.Int32
	runner  int // the goroutine holding the turn; -1 before the first pick and after the last exit
}

func newSched(rng *proptest.Rand, coords []kvlayout.CoordID) *sched {
	n := len(coords)
	s := &sched{rng: rng, coords: coords, until: make([]func() bool, n), done: make([]bool, n), runner: -1}
	for range coords {
		s.turn = append(s.turn, make(chan struct{}, 1))
	}
	return s
}

// enter waits for goroutine i's first turn. The first pick is made once
// every goroutine has entered.
func (s *sched) enter(i int) {
	if int(s.entered.Add(1)) == len(s.turn) {
		s.pass()
	}
	<-s.turn[i]
}

// exit retires goroutine i, the runner, and passes the turn on.
func (s *sched) exit(i int) {
	s.done[i] = true
	s.pass()
}

// yield passes the runner's turn to a fresh pick, which may be the runner
// itself, and waits for it to come back. until, unless nil, keeps the
// runner out of the picks while it reports false.
func (s *sched) yield(until func() bool) {
	i := s.runner
	s.until[i] = until
	s.pass()
	<-s.turn[i]
}

// pass picks the next runner, uniformly among the unfinished goroutines
// not awaiting a cue — or among all unfinished ones when every one is: a
// cue nobody can give any more is not waited for — and wakes it.
func (s *sched) pass() {
	var ready, live []int
	for i, done := range s.done {
		if !done {
			live = append(live, i)
			if s.until[i] == nil || s.until[i]() {
				ready = append(ready, i)
			}
		}
	}
	if len(ready) == 0 {
		ready = live
	}
	s.runner = -1
	if len(ready) > 0 {
		s.runner = ready[s.rng.Intn(len(ready))]
		s.until[s.runner] = nil
		s.turn[s.runner] <- struct{}{}
	}
}

// injector is a compute node's crash injector for the iteration: an
// offer from the runner's coordinator yields the turn, and crashAt,
// unless nil, crashes the node at the first offer of that point — for a
// parked runner, decided when it is resumed.
func (s *sched) injector(crashAt *core.CrashPoint) core.CrashInjector {
	fired := false
	return func(coord kvlayout.CoordID, p core.CrashPoint) bool {
		if s.runner >= 0 && s.coords[s.runner] == coord {
			s.yield(nil)
		}
		if crashAt == nil || fired || p != *crashAt {
			return false
		}
		fired = true
		return true
	}
}

// cue is a handshake of a scripted test: one transaction gives it, another
// awaits it while the scheduler runs the others. RunTest resets a test's
// cues every iteration.
type cue struct {
	sch   *sched
	given bool
}

func (c *cue) give() { c.given = true }

// await parks the runner until the cue is given, or until every
// unfinished transaction awaits one.
func (c *cue) await() {
	if !c.given {
		c.sch.yield(func() bool { return c.given })
	}
}
