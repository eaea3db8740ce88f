package litmus

// Random litmus generation, rebuilt on internal/proptest: beyond the
// hand-written tests of §5, the framework explores randomly generated
// multi-transaction histories — transaction shapes, value sizes,
// hot-set skew, knob combinations, and crash points are all generator
// dimensions — checked with the same client-centric oracle, plus two
// cross-checking invariants the fixed family cannot express:
//
//   - bank conservation: transfer-only schedules must preserve the sum
//     of all variables (mod 2^64) under every interleaving;
//   - recovery idempotency: after every crash recovery, a second full
//     recovery pass must find no work and leave the observable state
//     unchanged (§3.2.3).
//
// A Schedule is fully serializable: a failing one is written to
// bin/proptest-repro-*.json by the test harness and can be re-run with
// `go test ./internal/litmus -run TestReplay -replay <file>`.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	pandora "pandora"
	"pandora/internal/core"
	"pandora/internal/proptest"
)

// Op is one operation of a generated transaction program.
//
//	read:     load Var into the next register
//	write:    store Con (+ register Reg when Reg >= 0) into Var
//	transfer: move Con from Var to Dst (uint64 wraparound), reading
//	          both before writing both — the bank-conservation shape
type Op struct {
	Kind string `json:"kind"`
	Var  int    `json:"var"`
	Reg  int    `json:"reg"` // write: register operand, -1 = none
	Con  uint64 `json:"con"` // write: constant addend; transfer: amount
	Dst  int    `json:"dst"` // transfer: destination variable
}

// TxProgram is one straight-line generated transaction.
type TxProgram struct {
	Ops []Op `json:"ops"`
}

// Schedule is one generated litmus history: the concurrent transaction
// programs plus the whole run shape. It is a pure value — generating,
// serializing, and re-running it are all deterministic.
type Schedule struct {
	Name          string      `json:"name"`
	Seed          int64       `json:"seed"` // RunTest execution seed
	Vars          int         `json:"vars"`
	ValueSize     int         `json:"value_size"`
	Transfers     bool        `json:"transfers"`
	Knobs         Knobs       `json:"knobs"`
	Iterations    int         `json:"iterations"`
	CrashMidTx    float64     `json:"crash_mid_tx"`
	CrashAfterTxs float64     `json:"crash_after_txs"`
	CrashPoint    int         `json:"crash_point"` // -1 = random per iteration
	CheckRecovery bool        `json:"check_recovery"`
	Txs           []TxProgram `json:"txs"`
}

func varName(i int) string { return fmt.Sprintf("V%d", i) }

// spec compiles one program into a TxSpec with Run and Apply built in
// lockstep from the same op list, so the model semantics are exact by
// construction.
func (p TxProgram) spec(name string) TxSpec {
	ops := p.Ops
	return TxSpec{
		Name: name,
		Run: func(tx *pandora.Tx, key func(string) pandora.Key) error {
			var regs []uint64
			for _, op := range ops {
				switch op.Kind {
				case "read":
					v, err := read(tx, key, varName(op.Var))
					if err != nil {
						return err
					}
					regs = append(regs, v)
				case "write":
					val := op.Con
					if op.Reg >= 0 && op.Reg < len(regs) {
						val += regs[op.Reg]
					}
					if err := write(tx, key, varName(op.Var), val); err != nil {
						return err
					}
				case "transfer":
					from, err := read(tx, key, varName(op.Var))
					if err != nil {
						return err
					}
					to, err := read(tx, key, varName(op.Dst))
					if err != nil {
						return err
					}
					if err := write(tx, key, varName(op.Var), from-op.Con); err != nil {
						return err
					}
					if err := write(tx, key, varName(op.Dst), to+op.Con); err != nil {
						return err
					}
				default:
					return fmt.Errorf("litmus: unknown op kind %q", op.Kind)
				}
			}
			return nil
		},
		Apply: func(m Model) {
			var regs []uint64
			for _, op := range ops {
				switch op.Kind {
				case "read":
					regs = append(regs, m[varName(op.Var)])
				case "write":
					val := op.Con
					if op.Reg >= 0 && op.Reg < len(regs) {
						val += regs[op.Reg]
					}
					m[varName(op.Var)] = val
				case "transfer":
					from, to := m[varName(op.Var)], m[varName(op.Dst)]
					m[varName(op.Var)] = from - op.Con
					m[varName(op.Dst)] = to + op.Con
				}
			}
		},
	}
}

// Test compiles the schedule into a runnable litmus Test.
func (s Schedule) Test() Test {
	t := Test{Name: s.Name, Preloaded: true, ValueSize: s.ValueSize}
	for i := 0; i < s.Vars; i++ {
		t.Vars = append(t.Vars, varName(i))
	}
	for i, p := range s.Txs {
		t.Txs = append(t.Txs, p.spec(fmt.Sprintf("T%d", i+1)))
	}
	if s.Transfers {
		// Every transaction conserves the total (uint64 wraparound), so
		// any serial execution of any subset keeps the preloaded sum of
		// zero — a lost update does not.
		t.Invariant = func(m Model) error {
			var sum uint64
			for _, v := range m {
				sum += v
			}
			if sum != 0 {
				return fmt.Errorf("bank conservation broken: sum=%d, want 0 (mod 2^64)", sum)
			}
			return nil
		}
	}
	return t
}

// Config renders the schedule's run shape as a litmus Config.
func (s Schedule) Config() Config {
	knobs := s.Knobs
	cfg := Config{
		Protocol:                 core.ProtocolPandora,
		Iterations:               s.Iterations,
		Seed:                     s.Seed,
		Knobs:                    &knobs,
		CrashMidTx:               s.CrashMidTx,
		CrashAfterTxs:            s.CrashAfterTxs,
		CheckRecoveryIdempotency: s.CheckRecovery,
	}
	if s.CrashMidTx == 0 && s.CrashAfterTxs == 0 {
		cfg.NoCrashes = true
	}
	if s.CrashPoint >= 0 {
		p := core.CrashPoint(s.CrashPoint)
		cfg.CrashPoint = &p
	}
	return cfg
}

// RunSchedule executes a generated schedule against the fixed Pandora
// protocol and returns the litmus report.
func RunSchedule(s Schedule) (Report, error) {
	return RunScheduleOn(s, core.ProtocolPandora, core.Bugs{})
}

// RunScheduleOn executes a schedule against an arbitrary protocol
// (the fixed FORD baseline also has to survive generated histories).
func RunScheduleOn(s Schedule, proto core.Protocol, bugs core.Bugs) (Report, error) {
	cfg := s.Config()
	cfg.Protocol = proto
	cfg.Bugs = bugs
	return RunTest(s.Test(), cfg)
}

// GenOpts bounds the schedule generator.
type GenOpts struct {
	// Knobs pins the knob combination every generated schedule runs
	// under (the explorer iterates KnobMatrix externally so coverage
	// per combination is measurable).
	Knobs Knobs
	// MaxTxs bounds concurrent transactions (default 4, min 2).
	MaxTxs int
	// MaxOps bounds ops per transaction (default 5).
	MaxOps int
	// MaxVars bounds the variable set (default 4, min 2).
	MaxVars int
	// Iterations pins iterations per schedule; 0 draws 3..6.
	Iterations int
	// AllowCrash lets schedules arm crash injection.
	AllowCrash bool
	// CheckRecovery arms the §3.2.3 recovery-idempotency probe on
	// crashing schedules.
	CheckRecovery bool
}

func (o *GenOpts) fill() {
	if o.MaxTxs < 2 {
		o.MaxTxs = 4
	}
	if o.MaxOps < 1 {
		o.MaxOps = 5
	}
	if o.MaxVars < 2 {
		o.MaxVars = 4
	}
}

// GenSchedule draws one schedule. Every choice comes from r, so a
// (seed, case-index) pair reproduces the schedule bit for bit.
func GenSchedule(r *proptest.Rand, name string, o GenOpts) Schedule {
	o.fill()
	s := Schedule{
		Name:       name,
		Seed:       r.Int63(),
		Vars:       proptest.IntBetween(r, 2, o.MaxVars),
		ValueSize:  proptest.OneOf(r, 16, 24, 48, 64),
		Transfers:  proptest.Chance(r, 0.3),
		Knobs:      o.Knobs,
		Iterations: o.Iterations,
		CrashPoint: -1,
	}
	if s.Iterations == 0 {
		s.Iterations = proptest.IntBetween(r, 3, 6)
	}
	if o.AllowCrash && proptest.Chance(r, 0.4) {
		s.CrashMidTx, s.CrashAfterTxs = 0.5, 0.3
		if proptest.Chance(r, 0.5) {
			// Pin the crash to one protocol point: the crash point is an
			// explicit test dimension, not only a per-iteration roll.
			// With the async commit-back knob the drain-start point is
			// reachable too.
			maxPoint := int(core.PointAfterTruncate)
			if o.Knobs.AsyncCommitBack {
				maxPoint = int(core.PointDrainStart)
			}
			s.CrashPoint = r.Intn(maxPoint + 1)
		}
		s.CheckRecovery = o.CheckRecovery
	}
	hotSkew := proptest.Chance(r, 0.5)
	pickVar := func() int {
		if hotSkew {
			return proptest.ZipfIndex(r, s.Vars)
		}
		return r.Intn(s.Vars)
	}
	numTxs := proptest.IntBetween(r, 2, o.MaxTxs)
	for i := 0; i < numTxs; i++ {
		var p TxProgram
		if s.Transfers {
			n := proptest.IntBetween(r, 1, (o.MaxOps+1)/2)
			for j := 0; j < n; j++ {
				from := pickVar()
				to := (from + 1 + r.Intn(s.Vars-1)) % s.Vars
				p.Ops = append(p.Ops, Op{
					Kind: "transfer", Var: from, Dst: to, Reg: -1,
					Con: uint64(proptest.IntBetween(r, 1, 99)),
				})
			}
		} else {
			n := proptest.IntBetween(r, 1, o.MaxOps)
			regs := 0
			for j := 0; j < n; j++ {
				if regs == 0 || r.Intn(2) == 0 {
					p.Ops = append(p.Ops, Op{Kind: "read", Var: pickVar(), Reg: -1})
					regs++
				} else {
					p.Ops = append(p.Ops, Op{
						Kind: "write", Var: pickVar(),
						Reg: r.Intn(regs),
						Con: uint64(proptest.IntBetween(r, 1, 90)),
					})
				}
			}
		}
		s.Txs = append(s.Txs, p)
	}
	return s
}

// GenCorpus generates count schedules from a fixed seed — a pure
// function of its arguments, which is what makes the explored history
// set byte-identical across runs and machines.
func GenCorpus(seed int64, count int, o GenOpts) []Schedule {
	root := proptest.NewRand(seed)
	out := make([]Schedule, count)
	for i := range out {
		r := root.Fork(fmt.Sprintf("schedule-%d", i))
		out[i] = GenSchedule(r, fmt.Sprintf("random-%d-%d", seed, i), o)
	}
	return out
}

// CorpusJSON renders a corpus canonically (for byte comparison).
func CorpusJSON(c []Schedule) []byte {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err) // schedules are plain data; marshal cannot fail
	}
	return append(b, '\n')
}

// ScheduleProp is the property a generated schedule must satisfy: the
// litmus run completes and reports zero violations (reachability,
// invariant, and recovery-idempotency oracles all quiet).
func ScheduleProp(bugs core.Bugs) proptest.Property[Schedule] {
	return func(s Schedule) error {
		rep, err := RunScheduleOn(s, core.ProtocolPandora, bugs)
		if err != nil {
			return fmt.Errorf("harness error: %w", err)
		}
		if len(rep.Violations) > 0 {
			return fmt.Errorf("%d violations, e.g. %s", len(rep.Violations), rep.Violations[0])
		}
		return nil
	}
}

// ShrinkSchedule proposes reduced schedules, most aggressive first:
// drop whole transactions, then single ops, then the crash dimension.
// Unreferenced trailing variables are trimmed from every candidate so the
// minimal repro reads as small as it is.
func ShrinkSchedule(s Schedule) []Schedule {
	var out []Schedule
	if len(s.Txs) > 1 {
		for i := range s.Txs {
			c := s
			c.Txs = append(append([]TxProgram{}, s.Txs[:i]...), s.Txs[i+1:]...)
			out = append(out, normalize(c))
		}
	}
	for ti, p := range s.Txs {
		if len(p.Ops) <= 1 {
			continue
		}
		for oi := range p.Ops {
			c := s
			c.Txs = append([]TxProgram{}, s.Txs...)
			c.Txs[ti] = TxProgram{Ops: append(append([]Op{}, p.Ops[:oi]...), p.Ops[oi+1:]...)}
			out = append(out, normalize(c))
		}
	}
	if s.CrashMidTx > 0 || s.CrashAfterTxs > 0 {
		c := s
		c.CrashMidTx, c.CrashAfterTxs, c.CrashPoint, c.CheckRecovery = 0, 0, -1, false
		out = append(out, c)
	}
	return out
}

// normalize trims variables no op references (remapping is not needed:
// only trailing unused variables are dropped).
func normalize(s Schedule) Schedule {
	maxVar := 0
	for _, p := range s.Txs {
		for _, op := range p.Ops {
			if op.Var > maxVar {
				maxVar = op.Var
			}
			if op.Kind == "transfer" && op.Dst > maxVar {
				maxVar = op.Dst
			}
		}
	}
	if n := maxVar + 1; n < s.Vars {
		s.Vars = n
	}
	return s
}

// Repro is the serialized form of a minimised failing schedule — the
// artifact the CI uploads and the -replay flag consumes.
type Repro struct {
	// Engine coordinates: the proptest seed and case index that
	// generated the original failing schedule.
	Seed    int64 `json:"seed"`
	Case    int   `json:"case"`
	Shrinks int   `json:"shrinks"`
	// Violation is the minimised schedule's failure rendered as text.
	Violation string `json:"violation"`
	// Schedule is the minimised failing schedule itself; replay re-runs
	// exactly this.
	Schedule Schedule `json:"schedule"`
}

// WriteRepro writes a repro artifact into dir and returns its path.
func WriteRepro(dir string, rp Repro) (string, error) {
	b, err := json.MarshalIndent(rp, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("proptest-repro-%s.json", rp.Schedule.Name))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadRepro reads a repro artifact back.
func LoadRepro(path string) (Repro, error) {
	var rp Repro
	b, err := os.ReadFile(path)
	if err != nil {
		return rp, err
	}
	if err := json.Unmarshal(b, &rp); err != nil {
		return rp, fmt.Errorf("litmus: bad repro file %s: %w", path, err)
	}
	return rp, nil
}

// ReproDir locates the repository's bin/ directory by walking up from
// the working directory to go.mod, so test binaries running inside
// package directories land artifacts where CI uploads from. Falls back
// to the working directory.
func ReproDir() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			bin := filepath.Join(d, "bin")
			_ = os.MkdirAll(bin, 0o755)
			return bin
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}
