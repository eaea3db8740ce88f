package litmus

import (
	"errors"

	pandora "pandora"
	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

func u64(v uint64) []byte {
	b := make([]byte, 16)
	kvlayout.PutUint64(b, v)
	return b
}

// write is a Run helper.
func write(tx *pandora.Tx, key func(string) pandora.Key, name string, v uint64) error {
	return tx.Write("litmus", key(name), u64(v))
}

func read(tx *pandora.Tx, key func(string) pandora.Key, name string) (uint64, error) {
	b, err := tx.Read("litmus", key(name))
	if err != nil {
		return 0, err
	}
	return kvlayout.Uint64(b), nil
}

// Litmus1 checks Direct-Write dependency cycles (Figure 5(a)): two
// blind writers over the same two variables; any committed state must
// have X == Y.
func Litmus1() Test {
	writer := func(name string, v uint64) TxSpec {
		return TxSpec{
			Name: name,
			Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
				if err := write(tx, key, "X", v); err != nil {
					return err
				}
				return write(tx, key, "Y", v)
			},
			Apply: func(m Model) { m["X"], m["Y"] = v, v },
		}
	}
	return Test{
		Name:      "litmus1-direct-write",
		Vars:      []string{"X", "Y"},
		Preloaded: true,
		Txs:       []TxSpec{writer("T1", 1), writer("T2", 2)},
	}
}

// Litmus1Contended is Litmus1 with a third writer, which is what makes
// the Complicit Abort bug observable: an aborting transaction that
// releases a lock it never acquired lets the third writer slip between
// another writer's two updates.
func Litmus1Contended() Test {
	t := Litmus1()
	t.Name = "litmus1-contended"
	v := uint64(3)
	t.Txs = append(t.Txs, TxSpec{
		Name: "T3",
		Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
			if err := write(tx, key, "X", v); err != nil {
				return err
			}
			return write(tx, key, "Y", v)
		},
		Apply: func(m Model) { m["X"], m["Y"] = v, v },
	})
	return t
}

// Litmus1Insert replaces the writes with inserts (the paper's insert
// variant, which exposed the Missing Actions bug: inserts omitted from
// undo logs).
func Litmus1Insert() Test {
	inserter := func(name string, v uint64) TxSpec {
		return TxSpec{
			Name: name,
			Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
				if err := tx.Insert("litmus", key("X"), u64(v)); err != nil {
					return err
				}
				return tx.Insert("litmus", key("Y"), u64(v))
			},
			Apply: func(m Model) { m["X"], m["Y"] = v, v },
		}
	}
	return Test{
		Name: "litmus1-insert",
		Vars: []string{"X", "Y"},
		// Not preloaded: the variables start absent.
		Txs: []TxSpec{inserter("T1", 1), inserter("T2", 2)},
	}
}

// Litmus1Delete mixes deletes with writes.
func Litmus1Delete() Test {
	return Test{
		Name:      "litmus1-delete",
		Vars:      []string{"X", "Y"},
		Preloaded: true,
		Txs: []TxSpec{
			{
				Name: "T1",
				Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
					if err := tx.Delete("litmus", key("X")); err != nil {
						return err
					}
					return tx.Delete("litmus", key("Y"))
				},
				Apply: func(m Model) { delete(m, "X"); delete(m, "Y") },
			},
			{
				Name: "T2",
				Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
					if err := write(tx, key, "X", 2); err != nil {
						return err
					}
					return write(tx, key, "Y", 2)
				},
				Apply: func(m Model) {
					// A write of an absent key aborts in the real system,
					// so model it conditionally (only adds permissiveness).
					if _, ok := m["X"]; ok {
						m["X"] = 2
					}
					if _, ok := m["Y"]; ok {
						m["Y"] = 2
					}
				},
			},
		},
	}
}

// Litmus2 checks Read-Write dependency cycles (Figure 5(b)): T1 reads X
// and derives Y; T2 reads Y and derives X. Starting from X=Y=0, no
// serial order ends with X == Y == 1 — only an unserializable overlap
// (both reading 0) does. This is the test that exposed Covert Locks and
// Relaxed Locks.
func Litmus2() Test {
	return Test{
		Name:      "litmus2-read-write",
		Vars:      []string{"X", "Y"},
		Preloaded: true,
		Txs: []TxSpec{
			{
				Name: "T1",
				Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
					x, err := read(tx, key, "X")
					if err != nil {
						return err
					}
					return write(tx, key, "Y", x+1)
				},
				Apply: func(m Model) { m["Y"] = m["X"] + 1 },
			},
			{
				Name: "T2",
				Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
					y, err := read(tx, key, "Y")
					if err != nil {
						return err
					}
					return write(tx, key, "X", y+1)
				},
				Apply: func(m Model) { m["X"] = m["Y"] + 1 },
			},
		},
	}
}

// Litmus3 checks Indirect-Write dependency cycles (Figure 5(c)): both
// transactions increment X, and each copies its incremented value into
// its own variable; Y and Z can never exceed X. This is the test that
// exposed Lost Decision and Logging-without-Locking: recovery of an
// aborted-but-still-logged transaction can roll back another
// transaction's committed increment.
func Litmus3() Test {
	inc := func(name, dst string) TxSpec {
		return TxSpec{
			Name: name,
			Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
				x, err := read(tx, key, "X")
				if err != nil {
					return err
				}
				if err := write(tx, key, "X", x+1); err != nil {
					return err
				}
				return write(tx, key, dst, x+1)
			},
			Apply: func(m Model) { m["X"]++; m[dst] = m["X"] },
		}
	}
	return Test{
		Name:      "litmus3-indirect-write",
		Vars:      []string{"X", "Y", "Z"},
		Preloaded: true,
		Txs:       []TxSpec{inc("T1", "Y"), inc("T2", "Z")},
	}
}

// Compound is a stretched test chaining four read-write dependencies in
// a ring (§5 "Compound Tests": stretching/combining the basic litmus
// tests; the paper found no additional bugs with these, and neither do
// we).
func Compound() Test {
	link := func(name, src, dst string) TxSpec {
		return TxSpec{
			Name: name,
			Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
				v, err := read(tx, key, src)
				if err != nil {
					return err
				}
				return write(tx, key, dst, v+1)
			},
			Apply: func(m Model) { m[dst] = m[src] + 1 },
		}
	}
	return Test{
		Name:      "compound-ring",
		Vars:      []string{"X", "Y", "Z", "W"},
		Preloaded: true,
		Txs: []TxSpec{
			link("T1", "X", "Y"),
			link("T2", "Y", "Z"),
			link("T3", "Z", "W"),
			link("T4", "W", "X"),
		},
	}
}

// All returns the full suite.
func All() []Test {
	return []Test{
		Litmus1(), Litmus1Contended(), Litmus1RMW(), Litmus1Insert(),
		Litmus1Delete(), Litmus2(), Litmus3(), Litmus3LostDecision(),
		Litmus3LogWithoutLock(), Compound(),
	}
}

// RunAll executes the full suite under cfg.
func RunAll(cfg Config) ([]Report, error) {
	var out []Report
	for _, t := range All() {
		rep, err := RunTest(t, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// Litmus3LostDecision reproduces the paper's Lost Decision bug with a
// deterministic handshake schedule: T1 reads X; T2a then commits an
// increment; T1 locks and (in buggy FORD) logs X and Y but fails
// validation and aborts, leaving its logs behind; T2b then moves X to
// exactly T1's logged "new" version. When the victim node subsequently
// crashes, a recovery that trusts the stale log rolls T2b's committed
// increment back.
func Litmus3LostDecision() Test {
	t1Read, t2aDone, t1Done := new(cue), new(cue), new(cue)
	return Test{
		Name:      "litmus3-lost-decision",
		Vars:      []string{"X", "Y"},
		Preloaded: true,
		cues:      []*cue{t1Read, t2aDone, t1Done},
		Txs: []TxSpec{
			{
				Name: "T1",
				Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
					x, err := read(tx, key, "X")
					if err != nil {
						t1Read.give()
						t1Done.give()
						return err
					}
					t1Read.give()
					t2aDone.await()
					if err := write(tx, key, "X", x+1); err == nil {
						err = write(tx, key, "Y", x+1)
						if err == nil {
							err = tx.Commit() // validation must fail here
						}
					}
					t1Done.give()
					if tx.Done() && !tx.CommitAcked() && !tx.AbortAcked() {
						return rdma.ErrCrashed
					}
					return firstErr(nil, tx)
				},
				Apply: func(m Model) { x := m["X"]; m["X"] = x + 1; m["Y"] = x + 1 },
			},
			{
				Name: "T2a",
				Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
					t1Read.await()
					x, err := read(tx, key, "X")
					if err != nil {
						t2aDone.give()
						return err
					}
					err = write(tx, key, "X", x+10)
					if err == nil {
						err = tx.Commit()
					}
					t2aDone.give()
					return firstErr(err, tx)
				},
				Apply: func(m Model) { m["X"] += 10 },
			},
			{
				Name: "T2b",
				Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
					t1Done.await()
					x, err := read(tx, key, "X")
					if err != nil {
						return err
					}
					return write(tx, key, "X", x+100)
				},
				Apply: func(m Model) { m["X"] += 100 },
			},
		},
	}
}

// Litmus3LogWithoutLock deterministically drives T1 into attempting its
// X lock while T2a holds it: with the Logging-without-Locking bug, T1
// has already logged Y (locked, never applied) and X (never locked)
// when it aborts. Recovery of the lingering two-entry log sees Y "not
// updated" and X at the logged new version — T2a's committed write —
// and rolls T2a back.
func Litmus3LogWithoutLock() Test {
	t1Read, t2aLocked, t1Tried := new(cue), new(cue), new(cue)
	return Test{
		Name:      "litmus3-log-without-lock",
		Vars:      []string{"X", "Y"},
		Preloaded: true,
		cues:      []*cue{t1Read, t2aLocked, t1Tried},
		Txs: []TxSpec{
			{
				Name: "T1",
				Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
					x, err := read(tx, key, "X")
					if err != nil {
						t1Read.give()
						t1Tried.give()
						return err
					}
					t1Read.give()
					t2aLocked.await()
					// Y is logged and locked; then X is logged (bug!) but
					// its lock is held by T2a, so the transaction aborts.
					if err := write(tx, key, "Y", x+1); err == nil {
						err = write(tx, key, "X", x+1)
						if err == nil {
							err = tx.Commit()
						}
						t1Tried.give()
						return firstErr(err, tx)
					} else {
						t1Tried.give()
						return err
					}
				},
				Apply: func(m Model) { x := m["X"]; m["X"] = x + 1; m["Y"] = x + 1 },
			},
			{
				Name: "T2a",
				Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
					t1Read.await()
					x, err := read(tx, key, "X")
					if err != nil {
						t2aLocked.give()
						return err
					}
					if err := write(tx, key, "X", x+10); err != nil {
						t2aLocked.give()
						return err
					}
					t2aLocked.give()
					t1Tried.await()
					err = tx.Commit()
					return firstErr(err, tx)
				},
				Apply: func(m Model) { m["X"] += 10 },
			},
		},
	}
}

// firstErr maps an in-Run Commit to the harness convention: the harness
// only commits when Run returns nil, so a Run that committed itself
// reports the commit error (nil on success is replaced by ErrTxDone,
// which the harness treats via the ack flags).
func firstErr(err error, tx *pandora.Tx) error {
	if err != nil {
		return err
	}
	if tx.Done() {
		return errAlreadyFinished
	}
	return nil
}

var errAlreadyFinished = errors.New("litmus: transaction finished inside Run")

// Litmus1RMW has two read-modify-write increments racing a blind
// writer. It is the sharpest detector for the Complicit Abort bug: when
// the blind writer's failed lock is "released" by its abort path, one
// increment slips under the other and a committed update is lost.
func Litmus1RMW() Test {
	inc := func(name string) TxSpec {
		return TxSpec{
			Name: name,
			Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
				x, err := read(tx, key, "X")
				if err != nil {
					return err
				}
				return write(tx, key, "X", x+1)
			},
			Apply: func(m Model) { m["X"]++ },
		}
	}
	return Test{
		Name:      "litmus1-rmw",
		Vars:      []string{"X"},
		Preloaded: true,
		Txs: []TxSpec{
			inc("T1"),
			{
				Name: "T2",
				Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
					return write(tx, key, "X", 99)
				},
				Apply: func(m Model) { m["X"] = 99 },
			},
			inc("T3"),
		},
	}
}

// SeededBug is one bug of Table 1 as litmus catches it: the flags that
// seed it (core.Bugs documents each), the litmus test the paper
// attributes it to, and a run that catches it — every time, with the same
// violations, since a run is a function of its Config.
type SeededBug struct {
	Name     string // the pandora-litmus -bug name
	Category string // C1: online failure-free; C2: online recovery
	Bugs     core.Bugs
	Protocol core.Protocol
	Test     Test
	Edit     func(*Config) // nil: 400 iterations at the default crash rates
	Seed     int64
}

// Config is the run that catches the bug.
func (b SeededBug) Config() Config {
	cfg := Config{Protocol: b.Protocol, Bugs: b.Bugs, Iterations: 400, Seed: b.Seed}
	if b.Edit != nil {
		b.Edit(&cfg)
	}
	return cfg
}

// SeededBugs lists the six bugs of Table 1.
func SeededBugs() []SeededBug {
	noCrashes := func(c *Config) { c.NoCrashes = true }
	crashAfter := func(c *Config) { c.CrashAfterTxs, c.Iterations = 1.0, 100 }
	pan, ford := core.ProtocolPandora, core.ProtocolFORD
	return []SeededBug{ // name, category, bugs, protocol, test, edit, seed
		{"complicit-abort", "C1", core.Bugs{ComplicitAbort: true}, pan, Litmus1RMW(), noCrashes, 1},
		{"missing-insert-log", "C2", core.Bugs{MissingInsertLog: true}, ford, Litmus1Insert(), nil, 1},
		{"covert-locks", "C1", core.Bugs{CovertLocks: true}, pan, Litmus2(), noCrashes, 1},
		{"relaxed-locks", "C1", core.Bugs{RelaxedLocks: true}, pan, Litmus2(), noCrashes, 1},
		{"lost-decision", "C2", core.Bugs{LostDecision: true}, ford, Litmus3LostDecision(), crashAfter, 1},
		{"log-without-lock", "C2", core.Bugs{LostDecision: true, LogWithoutLock: true}, ford, Litmus3LogWithoutLock(), crashAfter, 1},
	}
}
