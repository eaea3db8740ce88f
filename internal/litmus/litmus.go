// Package litmus is the paper's end-to-end litmus-testing framework
// (§5): small, carefully constructed concurrent transactions whose
// final application-observable state reveals strict-serializability and
// recovery bugs, validated with a client-centric checker in the style
// of Crooks et al. [19] — no history collection needed.
//
// Each test declares its transactions twice: a real execution against
// the cluster, and a pure model function over an in-memory state. After
// a run (with randomly injected crashes and the subsequent recovery),
// the checker enumerates every serial order of every admissible subset
// of the transactions — commit-acknowledged transactions must be
// included, abort-acknowledged ones must be excluded, unacknowledged
// crashed ones may go either way — and flags a violation when the
// observed state matches none of the reachable states. This is exactly
// the paper's "application-observable state" method, extended to cover
// the recovery protocol (Cor2/Cor3) by construction.
package litmus

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	pandora "pandora"
	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/proptest"
	"pandora/internal/rdma"
)

// Knobs selects the cluster tuning features a litmus run exercises.
// Historically litmus pinned everything to the raw protocol (cache
// off, CAS-spin locks, synchronous commit-back); the knob matrix runs
// the same tests across the tuned paths too, so the read cache, the
// FAA ticket lanes, and the async commit-back drain get the same
// serializability/recovery scrutiny as the base protocol.
type Knobs struct {
	// ReadCacheSize: -1 disables the validated read cache, 0 means the
	// library default, positive values size it explicitly.
	ReadCacheSize int `json:"read_cache_size"`
	// HotlockThreshold: -1 pins the CAS-spin baseline, 0 the adaptive
	// default, positive values override the promotion streak.
	HotlockThreshold int `json:"hotlock_threshold"`
	// AsyncCommitBack hands the truncate+unlock tail to the post-ack
	// drain queue. RunTest flushes all live drains before observing.
	AsyncCommitBack bool `json:"async_commit_back"`
}

// String renders a knob combination as a compact stable tag.
func (k Knobs) String() string {
	return fmt.Sprintf("cache=%d/hot=%d/async=%t", k.ReadCacheSize, k.HotlockThreshold, k.AsyncCommitBack)
}

// DefaultKnobs is the historical litmus pin: raw reads, adaptive lock
// promotion, synchronous commit-back. A nil Config.Knobs means this.
func DefaultKnobs() Knobs { return Knobs{ReadCacheSize: -1, HotlockThreshold: 0} }

// KnobMatrix is the configuration lattice every litmus family
// explores: the raw protocol with CAS-spin locks, the read cache plus
// eager ticket-lane promotion, and the full tuned pipeline with the
// asynchronous commit-back drain on top.
func KnobMatrix() []Knobs {
	return []Knobs{
		{ReadCacheSize: -1, HotlockThreshold: -1, AsyncCommitBack: false},
		{ReadCacheSize: 4096, HotlockThreshold: 1, AsyncCommitBack: false},
		{ReadCacheSize: 4096, HotlockThreshold: 1, AsyncCommitBack: true},
	}
}

// Model is the abstract state a litmus test manipulates: named variables
// with integer values; absent variables are not in the map.
type Model map[string]uint64

// clone copies a model.
func (m Model) clone() Model {
	out := make(Model, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// key renders a model state canonically for set membership.
func (m Model) key() string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	s := ""
	for _, k := range names {
		s += fmt.Sprintf("%s=%d;", k, m[k])
	}
	return s
}

// TxSpec is one litmus transaction: the real execution and its model
// semantics.
type TxSpec struct {
	Name string
	// Run executes the transaction body against real keys; the harness
	// handles Begin/Commit.
	Run func(tx *pandora.Tx, key func(string) pandora.Key) error
	// Apply is the transaction's effect on the model (assuming it
	// commits in isolation at this point of the serial order).
	Apply func(m Model)
}

// Test is one litmus test.
type Test struct {
	Name string
	// Vars are the model variables; Preloaded vars start at 0, the rest
	// start absent (insert variants).
	Vars      []string
	Preloaded bool
	Txs       []TxSpec
	// ValueSize widens the litmus table's values (0 means the 16-byte
	// default). Generated schedules treat it as a test dimension; the
	// model value always lives in the first 8 bytes.
	ValueSize int
	// Invariant, when set, is checked against every iteration's
	// observed state in addition to the reachability oracle — e.g. the
	// bank-conservation invariant of transfer-only generated schedules,
	// which must hold under every interleaving, not just serializable
	// ones.
	Invariant func(m Model) error
	// cues are the handshakes a scripted test orders its transactions
	// with (sched.go).
	cues []*cue
}

// Violation reports one observed serializability/recovery violation.
type Violation struct {
	Test      string
	Iteration int
	// Kind distinguishes the oracle that fired: "" (serializability
	// reachability), "invariant", or "recovery-idempotency".
	Kind      string
	Observed  string
	Reachable []string
	Statuses  string
}

// valueSize resolves the litmus table's value size for this test.
func (t Test) valueSize() int {
	if t.ValueSize >= 16 {
		return t.ValueSize
	}
	return 16
}

func (v Violation) String() string {
	kind := v.Kind
	if kind == "" {
		kind = "serializability"
	}
	return fmt.Sprintf("%s[iter %d] %s: observed {%s} with statuses %s; reachable: %v",
		v.Test, v.Iteration, kind, v.Observed, v.Statuses, v.Reachable)
}

// Config parameterises a validation run.
type Config struct {
	Protocol core.Protocol
	Bugs     core.Bugs
	// Iterations per test (default 400).
	Iterations int
	// Seed draws the crashes and, per iteration, the interleaving of the
	// transactions (sched.go): a run is a function of its Config.
	Seed int64
	// CrashMidTx is the probability of arming a random-point crash
	// injector on the victim node for an iteration (default 0.3 when
	// crashes enabled).
	CrashMidTx float64
	// CrashAfterTxs is the probability of fail-stopping the victim after
	// the workers finish but before recovery (default 0.2).
	CrashAfterTxs float64
	// NoCrashes disables fault injection entirely (pure C1 validation).
	NoCrashes bool
	// Knobs selects the cluster tuning features under test; nil means
	// DefaultKnobs (the historical raw-protocol pin).
	Knobs *Knobs
	// CrashPoint, when non-nil, pins every injected mid-transaction
	// crash to one protocol point instead of drawing one per
	// iteration — generated schedules treat the crash point as an
	// explicit test dimension.
	CrashPoint *core.CrashPoint
	// CheckRecoveryIdempotency re-runs the full recovery pass after
	// every crash recovery and flags a violation if the second pass
	// found work to do or changed the observable state (§3.2.3).
	CheckRecoveryIdempotency bool
}

// knobs resolves the effective knob set.
func (c *Config) knobs() Knobs {
	if c.Knobs == nil {
		return DefaultKnobs()
	}
	return *c.Knobs
}

func (c *Config) fill() {
	if c.Iterations == 0 {
		c.Iterations = 400
	}
	if !c.NoCrashes {
		// Default probabilities apply only when the caller set neither.
		if c.CrashMidTx == 0 && c.CrashAfterTxs == 0 {
			c.CrashMidTx = 0.3
			c.CrashAfterTxs = 0.2
		}
	} else {
		c.CrashMidTx, c.CrashAfterTxs = 0, 0
	}
}

// Report aggregates a run.
type Report struct {
	Test       string
	Iterations int
	Crashes    int
	Recoveries int
	Committed  int
	Aborted    int
	Unknown    int
	// AbortKinds is the run's typed abort taxonomy (metrics delta over
	// the whole run, keyed by reason name). Generated litmus programs
	// only ever read and write preloaded variables, so every abort they
	// provoke must carry a typed reason — "other" staying at zero is
	// the taxonomy-completeness property.
	AbortKinds map[string]uint64
	Violations []Violation
}

// txStatus is the client-visible fate of one transaction.
type txStatus int

const (
	statusAborted txStatus = iota
	statusCommitted
	statusUnknown // crashed without an acknowledgement
)

func (s txStatus) String() string {
	switch s {
	case statusCommitted:
		return "C"
	case statusAborted:
		return "A"
	default:
		return "?"
	}
}

// clusterConfig is the cluster shape one litmus test runs under. Kept
// as a function so tests can pin its invariants — most importantly the
// default knob set: with nil Knobs litmus observes the raw protocol
// (the validated read cache is disabled — a cache hit skips the fabric
// read whose interleavings the tests exist to expose — and the
// asynchronous commit-back stays off). The knob matrix opts specific
// runs into the tuned paths; RunTest then flushes every live drain
// queue before observing, because with AsyncCommitBack a commit ack
// precedes the unlock and the observer would otherwise race pending
// tails.
func clusterConfig(t Test, cfg Config) pandora.Config {
	k := cfg.knobs()
	return pandora.Config{
		ComputeNodes:        2,
		CoordinatorsPerNode: (len(t.Txs)+1)/2 + 1,
		Protocol:            cfg.Protocol,
		SeedBugs:            cfg.Bugs,
		ReadCacheSize:       k.ReadCacheSize,
		HotlockThreshold:    k.HotlockThreshold,
		AsyncCommitBack:     k.AsyncCommitBack,
		Tables: []pandora.TableSpec{
			{Name: "litmus", ValueSize: t.valueSize(), Capacity: cfg.Iterations*len(t.Vars) + 64},
		},
	}
}

// RunTest executes one litmus test under cfg and returns its report.
func RunTest(t Test, cfg Config) (Report, error) {
	cfg.fill()
	knobs := cfg.knobs()
	rep := Report{Test: t.Name, Iterations: cfg.Iterations}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(len(t.Name))))

	varsPerIter := len(t.Vars)
	cluster, err := pandora.New(clusterConfig(t, cfg))
	if err != nil {
		return rep, err
	}
	defer cluster.Close()
	metBefore := cluster.MetricsSnapshot()

	if t.Preloaded {
		n := cfg.Iterations * varsPerIter
		if err := cluster.LoadN("litmus", n, func(pandora.Key) []byte { return make([]byte, 16) }); err != nil {
			return rep, err
		}
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		base := pandora.Key(iter * varsPerIter)
		keyOf := func(name string) pandora.Key {
			for i, v := range t.Vars {
				if v == name {
					return base + pandora.Key(i)
				}
			}
			panic("litmus: unknown variable " + name)
		}

		// Draw the iteration's crash on the victim node (node 0), then
		// install the scheduler as both engines' injector, node 0's
		// carrying the crash. It is installed every iteration: a restarted
		// node is a new engine.
		var crashAt *core.CrashPoint
		if rng.Float64() < cfg.CrashMidTx {
			point := core.CrashPoint(rng.Intn(int(core.PointAfterTruncate) + 1))
			if cfg.CrashPoint != nil {
				point = *cfg.CrashPoint
			}
			crashAt = &point
		}
		coords := make([]kvlayout.CoordID, len(t.Txs))
		for i := range coords {
			coords[i] = cluster.Engine(i % 2).Coordinator(i / 2).ID()
		}
		sch := newSched(proptest.CaseRand(cfg.Seed, iter), coords)
		for _, c := range t.cues {
			*c = cue{sch: sch}
		}
		cluster.Engine(0).SetInjector(sch.injector(crashAt))
		cluster.Engine(1).SetInjector(sch.injector(nil))

		// Run the transactions split across the two compute nodes, one
		// goroutine each, one at a time.
		statuses := make([]txStatus, len(t.Txs))
		var wg sync.WaitGroup
		for i, spec := range t.Txs {
			wg.Add(1)
			go func(i int, spec TxSpec) {
				defer wg.Done()
				sess := cluster.Session(i%2, i/2)
				sch.enter(i)
				defer sch.exit(i)
				tx := sess.Begin()
				err := spec.Run(tx, keyOf)
				if err == nil {
					err = tx.Commit()
				} else if !tx.Done() {
					_ = tx.Abort()
				}
				switch {
				case err == nil || tx.CommitAcked():
					statuses[i] = statusCommitted
				case tx.AbortAcked() || pandora.IsAborted(err) ||
					errors.Is(err, pandora.ErrExists) || errors.Is(err, pandora.ErrNotFound):
					statuses[i] = statusAborted
				case errors.Is(err, rdma.ErrCrashed):
					statuses[i] = statusUnknown
				default:
					statuses[i] = statusAborted
				}
			}(i, spec)
		}
		wg.Wait()

		// With the async commit-back knob a commit ack precedes the
		// truncate+unlock tail; flush every live node's drain queue so
		// the observer below sees unlocked slots instead of racing
		// pending tails. (Cross-node conflicters abort rather than
		// flush, so the observer's retry loop alone would spin.) This
		// runs BEFORE crash detection: an armed injector at a drain
		// point (PointDrainStart, PointAfterTruncate, PointAfterUnlock)
		// fires here, mid-flush, leaving exactly the abandoned-tail
		// crash state the recovery block below must then handle.
		if knobs.AsyncCommitBack {
			for i := 0; i < cluster.ComputeNodes(); i++ {
				if !cluster.Engine(i).Crashed() {
					cluster.Engine(i).FlushDrains()
				}
			}
		}

		// Possibly crash the victim after the transactions ("inject
		// crashes after any operation" includes after completion).
		if !cluster.Engine(0).Crashed() && rng.Float64() < cfg.CrashAfterTxs {
			cluster.CrashCompute(0)
		}

		// Detect + recover + restart if the victim died this iteration.
		if cluster.Engine(0).Crashed() {
			rep.Crashes++
			if _, err := cluster.FailCompute(0); err != nil {
				return rep, fmt.Errorf("recovery failed: %w", err)
			}
			rep.Recoveries++
			if cfg.CheckRecoveryIdempotency {
				if v, err := checkRecoveryIdempotent(cluster, t, keyOf, iter); err != nil {
					return rep, err
				} else if v != nil {
					rep.Violations = append(rep.Violations, *v)
				}
			}
			if err := cluster.RestartCompute(0); err != nil {
				return rep, fmt.Errorf("restart failed: %w", err)
			}
		}

		for _, s := range statuses {
			switch s {
			case statusCommitted:
				rep.Committed++
			case statusAborted:
				rep.Aborted++
			default:
				rep.Unknown++
			}
		}

		// Observe the final state from the survivor node.
		observed, err := observe(cluster, t, keyOf)
		if err != nil {
			return rep, fmt.Errorf("observation failed: %w", err)
		}

		// Client-centric check.
		reachable := reachableStates(t, statuses)
		if _, ok := reachable[observed.key()]; !ok {
			keys := make([]string, 0, len(reachable))
			for k := range reachable {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			statusStr := ""
			for i, s := range statuses {
				statusStr += fmt.Sprintf("%s=%s ", t.Txs[i].Name, s)
			}
			rep.Violations = append(rep.Violations, Violation{
				Test:      t.Name,
				Iteration: iter,
				Observed:  observed.key(),
				Reachable: keys,
				Statuses:  statusStr,
			})
		}

		// Cross-checking oracle: an explicit invariant over the observed
		// state (e.g. bank conservation for transfer-only schedules).
		if t.Invariant != nil {
			if ierr := t.Invariant(observed); ierr != nil {
				rep.Violations = append(rep.Violations, Violation{
					Test:      t.Name,
					Iteration: iter,
					Kind:      "invariant",
					Observed:  observed.key(),
					Statuses:  ierr.Error(),
				})
			}
		}
	}

	d := cluster.MetricsSnapshot().Sub(metBefore)
	rep.AbortKinds = make(map[string]uint64, int(metrics.NumAbortReasons))
	for r := metrics.AbortReason(0); r < metrics.NumAbortReasons; r++ {
		if n := d.AbortCount(r); n > 0 {
			rep.AbortKinds[r.String()] = n
		}
	}
	return rep, nil
}

// checkRecoveryIdempotent re-runs the victim's recovery pass while the
// node is still down and verifies §3.2.3 idempotence: the second pass
// must find no work (no logged transactions, nothing rolled forward or
// back, no stray locks) and must not change the observable state. A
// non-nil Violation means the invariant broke; a non-nil error means
// the probe itself could not run.
func checkRecoveryIdempotent(cluster *pandora.Cluster, t Test, keyOf func(string) pandora.Key, iter int) (*Violation, error) {
	before, err := observe(cluster, t, keyOf)
	if err != nil {
		return nil, fmt.Errorf("idempotency pre-observation failed: %w", err)
	}
	st, err := cluster.ReRecoverCompute(0)
	if err != nil {
		return nil, fmt.Errorf("second recovery pass failed: %w", err)
	}
	after, err := observe(cluster, t, keyOf)
	if err != nil {
		return nil, fmt.Errorf("idempotency post-observation failed: %w", err)
	}
	if st.LoggedTxs != 0 || st.RolledForward != 0 || st.RolledBack != 0 || st.StrayLocksFreed != 0 {
		return &Violation{
			Test: t.Name, Iteration: iter, Kind: "recovery-idempotency",
			Observed: after.key(),
			Statuses: fmt.Sprintf("second pass did work: logged=%d forward=%d back=%d stray=%d",
				st.LoggedTxs, st.RolledForward, st.RolledBack, st.StrayLocksFreed),
		}, nil
	}
	if before.key() != after.key() {
		return &Violation{
			Test: t.Name, Iteration: iter, Kind: "recovery-idempotency",
			Observed: after.key(),
			Statuses: fmt.Sprintf("state changed across second pass: {%s} -> {%s}", before.key(), after.key()),
		}, nil
	}
	return nil, nil
}

// observe reads the test's variables in one read-only transaction from
// the survivor node.
func observe(cluster *pandora.Cluster, t Test, keyOf func(string) pandora.Key) (Model, error) {
	sess := cluster.Session(1, 0)
	var lastErr error
	for attempt := 0; ; attempt++ {
		m := make(Model)
		tx := sess.Begin()
		ok := true
		for _, v := range t.Vars {
			val, err := tx.Read("litmus", keyOf(v))
			switch {
			case err == nil:
				m[v] = kvlayout.Uint64(val)
			case errors.Is(err, pandora.ErrNotFound):
				// absent
			default:
				ok = false
				lastErr = err
			}
			if !ok {
				break
			}
		}
		if ok {
			if err := tx.Commit(); err == nil {
				return m, nil
			} else {
				lastErr = err
			}
		} else if !tx.Done() {
			_ = tx.Abort()
		}
		if attempt > 100 {
			return nil, fmt.Errorf("litmus: observer transaction cannot commit: %v", lastErr)
		}
	}
}

// reachableStates enumerates the final model states consistent with the
// transactions' acknowledgement statuses: committed ones appear in every
// serial order, aborted ones in none, unknown ones in any subset.
func reachableStates(t Test, statuses []txStatus) map[string]Model {
	must := []int{}
	may := []int{}
	for i, s := range statuses {
		switch s {
		case statusCommitted:
			must = append(must, i)
		case statusUnknown:
			may = append(may, i)
		}
	}
	base := make(Model)
	if t.Preloaded {
		for _, v := range t.Vars {
			base[v] = 0
		}
	}
	out := make(map[string]Model)
	for bits := 0; bits < 1<<len(may); bits++ {
		set := append([]int{}, must...)
		for j := range may {
			if bits&(1<<j) != 0 {
				set = append(set, may[j])
			}
		}
		permute(set, func(order []int) {
			m := base.clone()
			for _, i := range order {
				t.Txs[i].Apply(m)
			}
			out[m.key()] = m
		})
	}
	return out
}

// permute calls fn with every permutation of ids.
func permute(ids []int, fn func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(ids) {
			fn(ids)
			return
		}
		for i := k; i < len(ids); i++ {
			ids[k], ids[i] = ids[i], ids[k]
			rec(k + 1)
			ids[k], ids[i] = ids[i], ids[k]
		}
	}
	rec(0)
}
