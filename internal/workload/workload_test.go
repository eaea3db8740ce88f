package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	pandora "pandora"
	"pandora/internal/trace"
)

// newCluster builds a small cluster provisioned for w and loads it.
func newCluster(t testing.TB, w Workload, cfgEdit func(*pandora.Config)) *pandora.Cluster {
	t.Helper()
	cfg := pandora.Config{
		Tables:              w.Tables(),
		CoordinatorsPerNode: 4,
	}
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	c, err := pandora.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := w.Load(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// small variants keep tests fast.
func smallMicro() *Micro    { return &Micro{Keys: 2000, WriteRatio: 0.5} }
func smallBank() *SmallBank { return &SmallBank{Accounts: 500} }
func smallTATP() *TATP      { return &TATP{Subscribers: 500} }
func smallTPCC() *TPCC {
	return &TPCC{Warehouses: 1, CustomersPerDistrict: 20, Items: 100, OrderCapacity: 64}
}

func TestWorkloadsRunAndCommit(t *testing.T) {
	for _, w := range []Workload{smallMicro(), smallBank(), smallTATP(), smallTPCC()} {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			c := newCluster(t, w, nil)
			before := c.MetricsSnapshot()
			res := Run(DriverConfig{
				Cluster:  c,
				Workload: w,
				Duration: 150 * time.Millisecond,
				Seed:     1,
			})
			if res.Committed == 0 {
				t.Fatalf("no transactions committed: %+v", res)
			}
			if res.Crashed != 0 {
				t.Fatalf("unexpected crashes: %+v", res)
			}
			// Aborts happen (OCC conflicts, benchmark races). TPC-C with
			// 16 workers on one warehouse is hotspot-dominated (the
			// warehouse/district YTD rows), so only the low-contention
			// workloads get the strict bound.
			if w.Name() != "tpcc" && res.Aborted > res.Committed {
				// Say which taxonomy bucket dominated: the driver's abort
				// count also holds the workload's own (user) aborts.
				var kinds []string
				for _, a := range c.MetricsSnapshot().Sub(before).Aborts {
					if a.Count > 0 {
						kinds = append(kinds, fmt.Sprintf("%s=%d", a.Reason, a.Count))
					}
				}
				t.Fatalf("abort-dominated run: %+v\naborts by kind: %s", res, strings.Join(kinds, " "))
			}
			t.Logf("%s: %d committed, %d aborted (%.0f tps)", w.Name(), res.Committed, res.Aborted, res.CommitRate())
		})
	}
}

func TestDriverSurvivesComputeCrash(t *testing.T) {
	w := smallMicro()
	c := newCluster(t, w, nil)
	stop := make(chan struct{})
	done := make(chan Result, 1)
	rec := trace.NewRecorder(5*time.Second, 10*time.Millisecond)
	go func() {
		done <- Run(DriverConfig{
			Cluster:  c,
			Workload: w,
			Duration: 5 * time.Second,
			Stop:     stop,
			Recorder: rec,
			Seed:     2,
		})
	}()
	time.Sleep(30 * time.Millisecond)
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	res := <-done
	if res.Crashed == 0 {
		t.Fatalf("no workers observed the crash: %+v", res)
	}
	if res.Committed == 0 {
		t.Fatalf("nothing committed: %+v", res)
	}
	// Survivors kept committing after the crash: the last buckets of the
	// series are non-empty.
	pts := rec.Series()
	tail := int64(0)
	for _, p := range pts[len(pts)/2:] {
		tail += p.Count
	}
	if tail == 0 {
		t.Fatal("no commits after the crash — recovery did not keep the system live")
	}
}

func TestSmallBankInitialBalance(t *testing.T) {
	w := smallBank()
	c := newCluster(t, w, nil)
	total, err := w.TotalBalance(c)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(w.accounts()) * 2 * w.initial()
	if total != want {
		t.Fatalf("initial total = %d, want %d", total, want)
	}
}

func TestMicroHotKeysRestrictAccess(t *testing.T) {
	m := &Micro{Keys: 10000, HotKeys: 10, WriteRatio: 1}
	c := newCluster(t, m, nil)
	res := Run(DriverConfig{Cluster: c, Workload: m, Duration: 50 * time.Millisecond, Seed: 3})
	if res.Committed == 0 {
		t.Fatal("hot-key run did not commit")
	}
	// With 16 workers on 10 hot keys and 100% writes there must be
	// conflicts.
	if res.Aborted == 0 {
		t.Log("warning: no aborts on a contended hot set (possible but unlikely)")
	}
}

func TestTATPMixIsMostlyReadOnly(t *testing.T) {
	// Statistical check of the declared 80/20 mix using the generator
	// itself: count writes by running each TxFunc against a transaction
	// and checking whether it committed without writes... simpler: the
	// mix is decided by Next's internal dice; sample the selector.
	w := smallTATP()
	c := newCluster(t, w, nil)
	s := c.Session(0, 0)
	r := rand.New(rand.NewSource(42))
	readOnly := 0
	const n = 2000
	for i := 0; i < n; i++ {
		fn := w.Next(r)
		tx := s.Begin()
		err := fn(tx, r)
		wrote := tx.WriteSetSize() > 0
		if err == nil {
			err = tx.Commit()
		} else if !tx.Done() {
			_ = tx.Abort()
		}
		_ = err
		if !wrote {
			readOnly++
		}
	}
	frac := float64(readOnly) / n
	if frac < 0.70 || frac > 0.90 {
		t.Fatalf("read-only fraction = %.2f, want ~0.80", frac)
	}
}
