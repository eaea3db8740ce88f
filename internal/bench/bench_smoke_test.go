package bench

import (
	"fmt"
	"testing"
	"time"

	pandora "pandora"
	"pandora/internal/race"
)

// The smoke tests run every experiment at Quick scale: they assert the
// paper's qualitative shapes, and cmd/pandora-bench runs the same code
// at Full scale for EXPERIMENTS.md.

func TestTable2Quick(t *testing.T) {
	s := Quick()
	r, err := Table2(s, pandora.ProtocolPandora)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	for _, bn := range r.Bench {
		lo := r.Latency[bn][s.CoordSweep[0]]
		hi := r.Latency[bn][s.CoordSweep[len(s.CoordSweep)-1]]
		if hi <= lo {
			t.Errorf("%s: recovery latency did not grow with coordinators: %v -> %v", bn, lo, hi)
		}
		if hi > 100*time.Millisecond {
			t.Errorf("%s: recovery latency %v is out of the paper's millisecond regime", bn, hi)
		}
		if r.LoggedTxs[bn][s.CoordSweep[len(s.CoordSweep)-1]] == 0 {
			t.Errorf("%s: no logged transactions were recovered", bn)
		}
	}
}

func TestTradLogRecoverySlower(t *testing.T) {
	s := Quick()
	s.CoordSweep = []int{16}
	p, err := Table2(s, pandora.ProtocolPandora)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Table2(s, pandora.ProtocolTradLog)
	if err != nil {
		t.Fatal(err)
	}
	slower := 0
	for _, bn := range p.Bench {
		if tr.Latency[bn][16] > p.Latency[bn][16] {
			slower++
		}
	}
	if slower < 3 {
		t.Errorf("traditional-logging recovery should be slower than Pandora on most benchmarks (slower on %d/4)", slower)
	}
}

func TestBaselineScanShape(t *testing.T) {
	r := BaselineScan([]int{250_000, 500_000, 1_000_000})
	t.Log("\n" + r.String())
	if r.Time[2] != 4*r.Time[0] {
		t.Errorf("scan time not linear in keys: %v vs %v", r.Time[0], r.Time[2])
	}
	if r.Time[2] < time.Second || r.Time[2] > 30*time.Second {
		t.Errorf("1M-key scan %v out of the paper's ~5s regime", r.Time[2])
	}
}

func TestFig6Shape(t *testing.T) {
	s := Quick()
	r, err := Fig6(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	a := meanRate(r.Series[0].Points, s.Timeline/4, s.Timeline, s.Bucket)
	b := meanRate(r.Series[1].Points, s.Timeline/4, s.Timeline, s.Bucket)
	if a == 0 || b == 0 {
		t.Fatal("zero steady-state throughput")
	}
	// Two back-to-back wall-clock runs on a shared host do not compare (the
	// ratio has been seen past 2): the throughput ratio is a note.
	t.Logf("note: PILL / noPILL steady-state throughput ratio %.2f", b/a)
	// PILL is free in steady state when it puts no verb on the fabric that
	// the non-recoverable protocol does not: the same verbs per committed
	// transaction, up to what the two runs' aborted attempts add.
	off, on := r.VerbsPerTx[0], r.VerbsPerTx[1]
	if ratio := on / off; ratio < 0.95 || ratio > 1.05 {
		t.Errorf("PILL changed the verbs per committed transaction: %.2f without, %.2f with (ratio %.3f)", off, on, ratio)
	}
}

func TestFailoverShape(t *testing.T) {
	s := Quick()
	r, err := Failover(s, "micro", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	faultAt := s.Timeline / 3
	// Compute fault: survivors keep committing (non-blocking recovery).
	post := meanRate(r.Series[0].Points, faultAt+2*s.Bucket, s.Timeline, s.Bucket)
	if post == 0 {
		t.Error("compute fault blocked the survivors entirely")
	}
	pre := meanRate(r.Series[0].Points, 0, faultAt, s.Bucket)
	if post >= pre {
		t.Logf("note: post-fault throughput %.0f >= pre-fault %.0f (oversubscription effect, §6.4)", post, pre)
	}
	// Memory fault: the dip may be deep, but the system must recover.
	mpost := meanRate(r.Series[2].Points, faultAt+2*s.Bucket, s.Timeline, s.Bucket)
	if mpost == 0 {
		t.Error("memory fault never recovered")
	}
}

func TestStallSensitivityShape(t *testing.T) {
	s := Quick()
	s.Timeline = 1200 * time.Millisecond
	slow := 600 * time.Millisecond
	faultAt := s.Timeline / 3
	// The windows are small and the box has one CPU, so allow a retry
	// before declaring the shape wrong.
	var lastErr string
	for attempt := 0; attempt < 3; attempt++ {
		r, err := StallSensitivity(s, 64, slow)
		if err != nil {
			t.Fatal(err)
		}
		// Slow recovery with a small hot set: stalled writers pile up on
		// the stray locks; throughput during the outage collapses
		// relative to fast recovery.
		slowDuring := meanRate(r.Series[1].Points, faultAt+2*s.Bucket, faultAt+slow, s.Bucket)
		fastDuring := meanRate(r.Series[0].Points, faultAt+2*s.Bucket, faultAt+slow, s.Bucket)
		if fastDuring > 0 && slowDuring < fastDuring/2 {
			t.Log("\n" + r.String())
			return
		}
		lastErr = fmt.Sprintf("attempt %d: slow-during=%.0f fast-during=%.0f", attempt, slowDuring, fastDuring)
		t.Log(lastErr)
	}
	t.Fatalf("stall-sensitivity shape not reproduced: %s", lastErr)
}

func TestSteadyStateOverheadShape(t *testing.T) {
	r, err := SteadyStateOverhead(Quick(), 300)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// TradLog pays an extra round trip per lock: overhead must be
	// positive on the write-heavy benchmarks and larger than on the
	// read-mostly TATP (§6.2.1's ordering).
	over := func(bn string) float64 {
		return 1 - r.TPS[bn][pandora.ProtocolTradLog]/r.TPS[bn][pandora.ProtocolPandora]
	}
	if over("micro100w") <= 0 || over("smallbank") <= 0 {
		t.Errorf("tradlog shows no overhead on write-heavy benchmarks: micro=%.2f smallbank=%.2f", over("micro100w"), over("smallbank"))
	}
	if over("tatp") >= over("micro100w") {
		t.Errorf("overhead should grow with write ratio: tatp=%.2f vs micro100w=%.2f", over("tatp"), over("micro100w"))
	}
}

func TestDistributedFDUnder20ms(t *testing.T) {
	fdTimeout := 5 * time.Millisecond
	if race.Enabled {
		// Under the race detector even live nodes' heartbeats miss a
		// 5 ms deadline, so the FD fences the survivor too and it never
		// unblocks. The shape check only needs *a* working regime.
		fdTimeout = 50 * time.Millisecond
	}
	r, err := DistributedFD(3, fdTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// The paper reports < 20 ms; allow slack for the in-process
	// scheduler.
	if r.DetectRecover > 200*time.Millisecond {
		t.Errorf("end-to-end recovery %v far above the paper's regime", r.DetectRecover)
	}
}

func TestTable1Quick(t *testing.T) {
	r, err := Table1(60)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	for _, rep := range r.FixedReports {
		if len(rep.Violations) != 0 {
			t.Errorf("fixed protocol failed %s", rep.Test)
		}
	}
	for _, row := range r.BugRows {
		if row.Violations == 0 {
			t.Errorf("seeded bug %q not caught", row.Bug)
		}
	}
}
