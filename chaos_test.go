package pandora_test

// Chaos test: repeated compute-node crash/recover/restart cycles under a
// concurrent counter workload, with a per-key invariant that bounds the
// final state by the client-visible acknowledgements — the cluster-scale
// version of the litmus framework's Cor2/Cor3 checks.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pandora "pandora"
	"pandora/internal/rdma"
)

func TestChaosCounterInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const keys = 32
	cfg := pandora.Config{
		ComputeNodes:        2,
		CoordinatorsPerNode: 4,
		Tables:              []pandora.TableSpec{{Name: "ctr", ValueSize: 16, Capacity: keys}},
	}
	c, err := pandora.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("ctr", keys, func(pandora.Key) []byte { return make([]byte, 16) }); err != nil {
		t.Fatal(err)
	}

	// Per-key acknowledgement accounting: acked increments MUST be in
	// the final value; unacked crashed increments MAY be.
	var acked, unknown [keys]atomic.Int64

	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(s *pandora.Session, seed uint64) {
		defer wg.Done()
		rng := seed
		for {
			select {
			case <-stop:
				return
			default:
			}
			rng = rng*6364136223846793005 + 1442695040888963407
			k := pandora.Key(rng % keys)
			tx := s.Begin()
			v, err := tx.Read("ctr", k)
			if err == nil {
				buf := make([]byte, 16)
				binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(v)+1)
				err = tx.Write("ctr", k, buf)
			}
			if err == nil {
				err = tx.Commit()
			} else if !tx.Done() {
				_ = tx.Abort()
			}
			switch {
			case err == nil || tx.CommitAcked():
				acked[k].Add(1)
			case errors.Is(err, rdma.ErrCrashed) || errors.Is(err, rdma.ErrRevoked):
				if !tx.AbortAcked() {
					unknown[k].Add(1)
				}
				return // worker dies with its node
			default:
				// aborted: no effect
			}
		}
	}
	// spawn binds each worker's session before the goroutine starts: a
	// worker first scheduled after the node's next restart would
	// otherwise bind the new incarnation's coordinator and share it with
	// that generation's worker.
	spawn := func(node int, gen uint64) {
		for coord := 0; coord < cfg.CoordinatorsPerNode; coord++ {
			wg.Add(1)
			go worker(c.Session(node, coord), gen*1000+uint64(node*10+coord)+1)
		}
	}
	start := time.Now()
	spawn(0, 0)
	spawn(1, 0)

	// Crash / recover / restart node 0 repeatedly while node 1 churns. The
	// times each FailCompute and RestartCompute returned at, since start,
	// go to the log if the audit below fails.
	var cycles [][2]time.Duration
	for cycle := 0; cycle < 5; cycle++ {
		time.Sleep(15 * time.Millisecond)
		if _, err := c.FailCompute(0); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		failed := time.Since(start)
		time.Sleep(5 * time.Millisecond)
		if err := c.RestartCompute(0); err != nil {
			t.Fatalf("cycle %d restart: %v", cycle, err)
		}
		cycles = append(cycles, [2]time.Duration{failed, time.Since(start)})
		spawn(0, uint64(cycle+2))
	}
	time.Sleep(15 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Audit from the survivor. The read-and-commit loop retries
	// validation aborts: stale read-cache entries are rejected (and
	// invalidated) at commit, and only a committed snapshot is judged.
	s := c.Session(1, 0)
	vals := make([]int64, keys)
	for attempt := 0; ; attempt++ {
		tx := s.Begin()
		var rerr error
		for k := pandora.Key(0); k < keys; k++ {
			v, err := tx.Read("ctr", k)
			if err != nil {
				rerr = fmt.Errorf("read %d: %w", k, err)
				break
			}
			vals[k] = int64(binary.LittleEndian.Uint64(v))
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
		cerr := tx.Commit()
		if cerr == nil {
			break
		}
		if !pandora.IsAborted(cerr) || attempt >= 8 {
			t.Fatal(cerr)
		}
	}
	// Structural audit, judged below: no duplicate slots, byte-identical
	// replicas, no stray locks survive the crash/recover/restart cycles.
	// Taken first so that any failed check logs every locked slot and the
	// cycle times.
	rep, err := c.CheckConsistency("ctr")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if !t.Failed() {
			return
		}
		for _, l := range rep.Locks {
			t.Logf("locked: %s", l)
		}
		for i, cy := range cycles {
			t.Logf("cycle %d: FailCompute returned at %v, RestartCompute at %v", i, cy[0], cy[1])
		}
	}()
	var totalAcked, totalVal int64
	for k := pandora.Key(0); k < keys; k++ {
		val := vals[k]
		lo := acked[k].Load()
		hi := lo + unknown[k].Load()
		if val < lo || val > hi {
			t.Errorf("key %d: value %d outside [acked=%d, acked+unknown=%d] — an acked increment was lost or an aborted one applied", k, val, lo, hi)
		}
		totalAcked += lo
		totalVal += val
	}
	if totalAcked == 0 {
		t.Fatal("chaos run committed nothing")
	}
	if len(rep.DuplicateKeys) != 0 || len(rep.DivergentKeys) != 0 || rep.LockedSlots != 0 {
		t.Fatalf("post-chaos structural damage: %+v", rep)
	}
	t.Logf("chaos: %d acked increments, final sum %d, 5 crash/restart cycles survived", totalAcked, totalVal)
}
