package pandora

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// The commit pipeline's contract, pinned from outside the engine: for
// one 1R+2W transaction (read key 1, write keys 2 and 3) the tests
// below fix which crash points an injector is offered and in what
// order, which verbs reach the fabric, how many post-validation
// doorbell rounds the commit spends, and what it costs on the virtual
// clock — across protocol × persistence × fused/split doorbells. The golden rows were recorded before the
// commit path was restructured around a single stage executor and must
// not move with it. A second shape, the transfer (read keys 2 and 3,
// then write them), pins the path on which the write locks cover the
// whole read set and validation posts nothing (DESIGN.md §16).

// pipePointNames names every crash point and pins its integer value:
// the values are part of the chaos CLI surface and proptest repro files
// store crash_point as an integer, so TestCrashPointNumbers fails by
// name when a point is deleted or reordered. 11 is reserved.
var pipePointNames = map[core.CrashPoint]struct {
	name  string
	value int
}{
	core.PointBeforeLock:      {"BeforeLock", 0},
	core.PointAfterLock:       {"AfterLock", 1},
	core.PointAfterExecRead:   {"AfterExecRead", 2},
	core.PointAfterFORDLog:    {"AfterFORDLog", 3},
	core.PointAfterValidation: {"AfterValidation", 4},
	core.PointAfterLog:        {"AfterLog", 5},
	core.PointAfterApplyOne:   {"AfterApplyOne", 6},
	core.PointAfterApplyAll:   {"AfterApplyAll", 7},
	core.PointAfterAck:        {"AfterAck", 8},
	core.PointAfterUnlock:     {"AfterUnlock", 9},
	core.PointAfterTruncate:   {"AfterTruncate", 10},
	core.PointAfterRead:       {"AfterRead", 12},
}

// TestCrashPointNumbers pins every crash point's integer value.
func TestCrashPointNumbers(t *testing.T) {
	for p, e := range pipePointNames {
		if int(p) != e.value {
			t.Errorf("crash point %s = %d, want %d", e.name, int(p), e.value)
		}
	}
}

// pipeShape is a pinned transaction: it reads reads, then writes keys 2
// and 3.
type pipeShape struct {
	// prefix goes before the case in the subtest's name; the first shape's
	// subtests keep the names they had when it was the only one.
	prefix string
	reads  []Key
	// noCache turns the validated read cache off, so that every read is a
	// fabric round trip however warm the coordinator is.
	noCache bool
}

var (
	shape1R2W = pipeShape{reads: []Key{1}}
	// The benchmark's transfer as it runs on a working set far larger than
	// the read cache: two read rounds, one round for both lock doorbells,
	// log, apply, tail.
	shapeTransfer = pipeShape{prefix: "transfer/", reads: []Key{2, 3}, noCache: true}
)

type pipeCase struct {
	proto   Protocol
	persist bool
	split   bool
	shape   pipeShape
}

// String is the case's golden-row key. Its "sync" segment is the tail
// mode of a time when there were two; the rows keep their names.
func (pc pipeCase) String() string {
	pick := func(on bool, yes, no string) string {
		if on {
			return yes
		}
		return no
	}
	return fmt.Sprintf("%s/sync/%s/%s", pc.proto,
		pick(pc.persist, "persist", "volatile"),
		pick(pc.split, "split", "fused"))
}

func pipeCases(shape pipeShape, withSplit bool) []pipeCase {
	var out []pipeCase
	for _, proto := range []Protocol{ProtocolPandora, ProtocolFORD, ProtocolTradLog} {
		for _, persist := range []bool{false, true} {
			out = append(out, pipeCase{proto, persist, false, shape})
			if withSplit {
				out = append(out, pipeCase{proto, persist, true, shape})
			}
		}
	}
	return out
}

const pipeKeys = 8

// pipeCluster builds a two-node cluster in the case's configuration
// and warms node 0's coordinator 0 with one transaction of the measured
// shape, so the measured one finds its addresses resolved.
func pipeCluster(t *testing.T, pc pipeCase) *Cluster {
	t.Helper()
	cfg := Config{
		ComputeNodes:        2,
		CoordinatorsPerNode: 1,
		Protocol:            pc.proto,
		Persistence:         pc.persist,
		ModelLatency:        true,
		Tables:              []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 64}},
	}
	if pc.shape.noCache {
		cfg.ReadCacheSize = -1
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadN("kv", pipeKeys, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}
	if pc.split {
		c.Engine(0).SetUnfusedTail(true)
	}
	if err := pipeTx(c, pc.shape, 100); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	return c
}

// pipeTx runs the shape's transaction on node 0 writing v to keys 2 and
// 3.
func pipeTx(c *Cluster, shape pipeShape, v uint64) error {
	_, err := pipeTxAcked(c, shape, v)
	return err
}

func pipeTxAcked(c *Cluster, shape pipeShape, v uint64) (acked bool, err error) {
	tx := c.Session(0, 0).Begin()
	if err = pipeBody(tx, shape, v); err == nil {
		err = tx.Commit()
	}
	if err != nil && !tx.Done() {
		_ = tx.Abort()
	}
	return tx.CommitAcked(), err
}

// pipeBody is the shape's execution phase.
func pipeBody(tx *Tx, shape pipeShape, v uint64) error {
	for _, k := range shape.reads {
		if _, err := tx.Read("kv", k); err != nil {
			return err
		}
	}
	for _, k := range []Key{2, 3} {
		if err := tx.Write("kv", k, idemValue(v)); err != nil {
			return err
		}
	}
	return nil
}

// settleSession charges, on the caller's goroutine, what s's coordinator
// has posted and not waited for — a synchronous commit's tail, which the
// next doorbell would otherwise pay: an empty transaction's Commit is
// that wait and nothing else.
func settleSession(t *testing.T, s *Session) {
	t.Helper()
	if err := s.Begin().Commit(); err != nil {
		t.Fatal(err)
	}
}

// pipeRow measures one case and renders it as a golden row: ack when
// Commit returns, quiet once the session has waited for its tail.
func pipeRow(t *testing.T, pc pipeCase) string {
	t.Helper()
	c := pipeCluster(t, pc)
	clk := c.AttachClock(0, 0)

	// Without an injector: verbs, rounds, virtual time.
	before := c.MetricsSnapshot()
	start := clk.Now()
	tx := c.Session(0, 0).Begin()
	if err := pipeBody(tx, pc.shape, 200); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ack := clk.Now() - start
	settleSession(t, c.Session(0, 0))
	quiet := clk.Now() - start
	d := c.MetricsSnapshot().Sub(before)
	verbs := map[string]uint64{}
	for _, v := range d.Verbs {
		verbs[v.Verb] += v.Issued
	}

	// With an injector that never fires: the crash points it is offered.
	var seq []string
	c.Engine(0).SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
		seq = append(seq, pipePointNames[p].name)
		return false
	})
	if err := pipeTx(c, pc.shape, 300); err != nil {
		t.Fatalf("injected tx: %v", err)
	}
	c.Engine(0).SetInjector(nil)

	return fmt.Sprintf("read=%d write=%d cas=%d faa=%d flush=%d rounds=%d ack=%d quiet=%d points=%s",
		verbs["READ"], verbs["WRITE"], verbs["CAS"], verbs["FAA"], verbs["FLUSH"],
		d.Drain.CommitRounds, ack.Nanoseconds(), quiet.Nanoseconds(), strings.Join(seq, ","))
}

// pipeGolden holds one row per case, recorded at the commit before the
// stage executor landed; the AfterRead point, one per read, was added
// when the end of a read became a stage. The Pandora and TradLog rows'
// ack and quiet were re-recorded when the two lock doorbells came to
// share one wait at Commit: Pandora's fall by the second doorbell, 2003
// ns (keys 2 and 3 have primaries on different servers, so the union
// charges the larger), TradLog's by 2000 ns (the lock of key 2 now
// pipelines behind the lock-intent write of key 3). FORD settles each
// lock at Write; its rows did not move. The sync fused rows' ack fell
// by the tail round, 2000 ns, when the tail came to be posted at the
// ack and paid by the next doorbell; their quiet, taken once the
// session has waited for it, did not move, and neither did a split
// row.
var pipeGolden = map[string]string{
	"pandora/sync/volatile/fused": "read=3 write=10 cas=2 faa=0 flush=0 rounds=3 ack=8022 quiet=10022 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/volatile/split": "read=3 write=10 cas=2 faa=0 flush=0 rounds=4 ack=12022 quiet=12022 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/persist/fused":  "read=3 write=10 cas=2 faa=0 flush=6 rounds=3 ack=8040 quiet=10040 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/persist/split":  "read=3 write=10 cas=2 faa=0 flush=6 rounds=6 ack=16040 quiet=16040 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/volatile/fused":    "read=3 write=12 cas=2 faa=0 flush=0 rounds=2 ack=12027 quiet=14027 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/volatile/split":    "read=3 write=12 cas=2 faa=0 flush=0 rounds=3 ack=16027 quiet=16027 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/persist/fused":     "read=3 write=12 cas=2 faa=0 flush=8 rounds=2 ack=16047 quiet=18047 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/persist/split":     "read=3 write=12 cas=2 faa=0 flush=8 rounds=4 ack=22047 quiet=22047 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/volatile/fused": "read=3 write=14 cas=2 faa=0 flush=0 rounds=3 ack=12031 quiet=14031 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/volatile/split": "read=3 write=14 cas=2 faa=0 flush=0 rounds=4 ack=16031 quiet=16031 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/persist/fused":  "read=3 write=14 cas=2 faa=0 flush=6 rounds=3 ack=12049 quiet=14049 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/persist/split":  "read=3 write=14 cas=2 faa=0 flush=6 rounds=6 ack=20049 quiet=20049 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
}

// pipeGoldenTransfer holds the transfer shape's rows. Past one AfterRead
// per read, the crash points are pipeGolden's: the write set alone
// decides them. Of
// the four READs two are the reads and two ride the lock doorbells;
// validation posts none, so pandora/sync/volatile/fused acks after five
// round trips — two reads, the two lock doorbells waited for together,
// log, apply — and is quiet after six, the tail's; a lock round each
// made the ack seven rounds with the tail waited for, and a validation
// round eight.
var pipeGoldenTransfer = map[string]string{
	"pandora/sync/volatile/fused": "read=4 write=10 cas=2 faa=0 flush=0 rounds=3 ack=10027 quiet=12027 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/volatile/split": "read=4 write=10 cas=2 faa=0 flush=0 rounds=4 ack=14027 quiet=14027 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/persist/fused":  "read=4 write=10 cas=2 faa=0 flush=6 rounds=3 ack=10045 quiet=12045 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/persist/split":  "read=4 write=10 cas=2 faa=0 flush=6 rounds=6 ack=18045 quiet=18045 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/volatile/fused":    "read=4 write=12 cas=2 faa=0 flush=0 rounds=2 ack=14032 quiet=16032 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/volatile/split":    "read=4 write=12 cas=2 faa=0 flush=0 rounds=3 ack=18032 quiet=18032 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/persist/fused":     "read=4 write=12 cas=2 faa=0 flush=8 rounds=2 ack=18052 quiet=20052 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/persist/split":     "read=4 write=12 cas=2 faa=0 flush=8 rounds=4 ack=24052 quiet=24052 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/volatile/fused": "read=4 write=14 cas=2 faa=0 flush=0 rounds=3 ack=14036 quiet=16036 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/volatile/split": "read=4 write=14 cas=2 faa=0 flush=0 rounds=4 ack=18036 quiet=18036 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/persist/fused":  "read=4 write=14 cas=2 faa=0 flush=6 rounds=3 ack=14054 quiet=16054 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/persist/split":  "read=4 write=14 cas=2 faa=0 flush=6 rounds=6 ack=22054 quiet=22054 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
}

// TestCommitPipelineContract pins the golden row of every case.
func TestCommitPipelineContract(t *testing.T) {
	for _, shape := range []pipeShape{shape1R2W, shapeTransfer} {
		for _, pc := range pipeCases(shape, true) {
			pc := pc
			t.Run(shape.prefix+pc.String(), func(t *testing.T) {
				got, want := pipeRow(t, pc), pipeGolden[pc.String()]
				if shape.prefix == shapeTransfer.prefix {
					want = pipeGoldenTransfer[pc.String()]
				}
				if got != want {
					t.Errorf("pipeline contract moved\n got: %q\nwant: %q", got, want)
				}
			})
		}
	}
}

// TestCommitPipelineCrashSweep crashes node 0 at every crash-point
// offer of the measured transaction in turn (the k-th call of the
// injector, so every after-each-verb position is hit separately), then
// requires that recovery converges: the two written keys agree (both
// old or both new, and new if the commit was acknowledged), a survivor
// can write them again, and a second full recovery pass does no work
// and leaves the store byte-identical (§3.2.3). Doorbell splitting is
// irrelevant under injection, so the sweep covers the fused cases.
func TestCommitPipelineCrashSweep(t *testing.T) {
	cases := append(pipeCases(shape1R2W, false), pipeCases(shapeTransfer, false)...)
	for _, pc := range cases {
		pc := pc
		t.Run(pc.shape.prefix+pc.String(), func(t *testing.T) {
			for k := 0; ; k++ {
				c := pipeCluster(t, pc)
				calls, point := 0, ""
				c.Engine(0).SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
					calls++
					if calls == k+1 {
						point = pipePointNames[p].name
						return true
					}
					return false
				})
				acked, err := pipeTxAcked(c, pc.shape, 200)
				c.Engine(0).SetInjector(nil)
				if calls <= k {
					// The transaction offers fewer than k+1 points: sweep done.
					if err != nil {
						t.Fatalf("uncrashed tx failed: %v", err)
					}
					if k == 0 {
						t.Fatal("no crash point offered")
					}
					c.Close()
					return
				}
				where := fmt.Sprintf("crash at offer %d (%s)", k, point)
				if !c.Engine(0).Crashed() {
					t.Fatalf("%s: node not crashed (err=%v)", where, err)
				}
				if _, err := c.FailCompute(0); err != nil {
					t.Fatalf("%s: recovery: %v", where, err)
				}
				state1 := idemState(t, c, pipeKeys)
				v2 := binary.LittleEndian.Uint64(state1[2])
				v3 := binary.LittleEndian.Uint64(state1[3])
				if v2 != v3 || (v2 != 100 && v2 != 200) {
					t.Fatalf("%s: keys 2,3 = %d,%d after recovery, want both 100 or both 200", where, v2, v3)
				}
				if acked && v2 != 200 {
					t.Fatalf("%s: acknowledged commit rolled back (keys hold %d)", where, v2)
				}
				stats2, err := c.ReRecoverCompute(0)
				if err != nil {
					t.Fatalf("%s: second recovery: %v", where, err)
				}
				if stats2.LoggedTxs != 0 || stats2.RolledForward != 0 || stats2.RolledBack != 0 || stats2.StrayLocksFreed != 0 {
					t.Fatalf("%s: second recovery pass did work: %+v", where, stats2)
				}
				state2 := idemState(t, c, pipeKeys)
				for key, v := range state1 {
					if !bytes.Equal(v, state2[key]) {
						t.Fatalf("%s: key %d changed across the second pass: %x -> %x", where, key, v, state2[key])
					}
				}
				if err := c.Session(1, 0).Update(4, func(tx *Tx) error {
					if err := tx.Write("kv", 2, idemValue(400)); err != nil {
						return err
					}
					return tx.Write("kv", 3, idemValue(400))
				}); err != nil {
					t.Fatalf("%s: survivor cannot rewrite the keys: %v", where, err)
				}
				c.Close()
			}
		})
	}
}

// keyOffLogServers returns a key below n none of whose replicas is a log
// server of eng's coordinator 0, so a fault on a log server's link is
// met by the log stage alone.
func keyOffLogServers(t *testing.T, eng *core.ComputeNode, n Key) Key {
	t.Helper()
	logs := eng.Coordinator(0).LogServers()
	for k := Key(0); k < n; k++ {
		off := true
		for _, rep := range eng.Ring().Replicas(eng.Ring().Partition(k)) {
			off = off && !slices.Contains(logs, rep)
		}
		if off {
			return k
		}
	}
	t.Fatal("no key with replicas off the log servers")
	return 0
}

// TestLogFlushFaultBehindDeadServerAborts: under Persist with split
// doorbells, a link fault that strikes only the write-ahead log FLUSH on
// the live log server — while the other log server is down, so the
// flush round's first completion is a tolerated ErrNodeDown — must
// abort the commit before the acknowledgement (§7: the log must be
// durable before anything is applied). A flush round judged by its
// first error alone lets the dead server mask the fault and acks a
// commit whose log never became durable.
//
// The fault is placed between the two doorbells deterministically: the
// link is stalled so the log WRITE parks on it, the stall is replaced
// by a partition while the write is parked, and a heal of another link
// wakes the write, which was admitted under the stall and lands; the
// flush that follows meets the partition.
func TestLogFlushFaultBehindDeadServerAborts(t *testing.T) {
	c, err := New(Config{
		MemoryNodes:         4,
		ComputeNodes:        1,
		CoordinatorsPerNode: 1,
		Persistence:         true,
		SuspectThreshold:    -1, // the partition must stay a link fault, not escalate to a dead node
		Tables:              []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", 32, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}
	eng := c.Engine(0)
	eng.SetUnfusedTail(true)
	logs := eng.Coordinator(0).LogServers()
	dead, live := c.MemoryIndex(logs[0]), c.MemoryIndex(logs[1])

	// A key whose replicas avoid both log servers: the apply that would
	// follow a masked flush fault then succeeds, so only the flush
	// verdict decides the outcome.
	key := keyOffLogServers(t, eng, 32)
	if err := c.FailMemory(dead); err != nil {
		t.Fatal(err)
	}

	tx := c.Session(0, 0).Begin()
	if err := tx.Write("kv", key, idemValue(999)); err != nil {
		t.Fatal(err)
	}
	c.StallLink(0, live)
	done := make(chan error, 1)
	go func() { done <- tx.Commit() }()
	for c.LinkStats().StalledVerbs == 0 {
		runtime.Gosched()
	}
	c.PartitionLink(0, live)
	c.HealLink(0, dead) // no rule there: only wakes the parked write
	for c.LinkStats().PartitionDrops == 0 {
		select {
		case err := <-done:
			t.Fatalf("commit finished without meeting the partition: err=%v acked=%t", err, tx.CommitAcked())
		default:
			runtime.Gosched()
		}
	}
	c.HealLink(0, live) // let the abort's truncation and unlock through
	err = <-done
	if tx.CommitAcked() {
		t.Fatalf("commit acknowledged with a non-durable log (err=%v)", err)
	}
	if kind, ok := AbortKindOf(err); !ok || kind != metrics.AbortFault {
		t.Fatalf("commit returned %v, want an abort of kind fault", err)
	}
	if !tx.AbortAcked() {
		t.Fatal("abort not acknowledged after the link healed")
	}
}

// TestLogWriteFaultTruncatesLandedCopy: a commit-time log WRITE that
// link-faults on one log server after landing on the other aborts — and
// the abort must truncate the copy that landed. Left behind, a valid
// record of an acked-aborted transaction would be rolled forward by
// recovery if the node crashed before its next commit overwrote it.
func TestLogWriteFaultTruncatesLandedCopy(t *testing.T) {
	c, err := New(Config{
		MemoryNodes:         4,
		ComputeNodes:        1,
		CoordinatorsPerNode: 1,
		SuspectThreshold:    -1, // the partition must stay a link fault, not escalate to a dead node
		Tables:              []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", 32, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}
	eng := c.Engine(0)
	logs := eng.Coordinator(0).LogServers()
	faulted, live := c.MemoryIndex(logs[0]), logs[1]

	// A key whose replicas avoid both log servers, so only the log stage
	// meets the partition.
	key := keyOffLogServers(t, eng, 32)

	tx := c.Session(0, 0).Begin()
	if err := tx.Write("kv", key, idemValue(999)); err != nil {
		t.Fatal(err)
	}
	c.PartitionLink(0, faulted)
	done := make(chan error, 1)
	go func() { done <- tx.Commit() }()
	for c.LinkStats().PartitionDrops == 0 {
		runtime.Gosched()
	}
	c.HealLink(0, faulted) // let the abort's truncation through
	err = <-done
	if kind, ok := AbortKindOf(err); !ok || kind != metrics.AbortFault || tx.CommitAcked() || !tx.AbortAcked() {
		t.Fatalf("commit returned %v (commit acked %t, abort acked %t), want an acked abort of kind fault",
			err, tx.CommitAcked(), tx.AbortAcked())
	}
	area := make([]byte, kvlayout.LogAreaSize)
	addr := rdma.Addr{Node: live, Region: kvlayout.LogRegionID(eng.ID()), Offset: kvlayout.LogAreaOffset(0)}
	if err := c.fab.Endpoint(eng.ID()).Read(addr, area); err != nil {
		t.Fatal(err)
	}
	if rec, ok := kvlayout.DecodeLogRecord(area); ok {
		t.Fatalf("the live log server still holds a valid record of the aborted transaction: %+v", rec)
	}
}

// TestStealBothLocksTransfer pins what a PILL steal costs: node 0 dies
// holding the locks of keys 2 and 3 with nothing logged, and the survivor
// runs the transfer over them. Each read passes over a stray word and
// hands it to the write, whose first doorbell is then the steal — steal
// CAS and slot READ — so a stolen lock costs
// one round trip where a lock CAS failing on the word made it two, and
// the stolen locks cover the reads like any other: six round trips in
// all (two reads, one per lock, log, apply), no validation. The tail is
// posted at the ack and paid by the survivor's next doorbell.
func TestStealBothLocksTransfer(t *testing.T) {
	c, err := New(Config{
		ComputeNodes:        2,
		CoordinatorsPerNode: 1,
		ModelLatency:        true,
		Tables:              []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", pipeKeys, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}
	surv := c.Session(1, 0)
	transfer := func(tx *Tx) error { return pipeBody(tx, shapeTransfer, 200) }
	// Resolve the survivor's addresses; the failure below bumps its cache
	// epoch, so the measured reads go to the fabric all the same.
	if err := surv.Update(0, transfer); err != nil {
		t.Fatal(err)
	}
	held := c.Session(0, 0).Begin()
	if err := pipeBody(held, shapeTransfer, 300); err != nil {
		t.Fatal(err)
	}
	if st, err := c.FailCompute(0); err != nil || st.LoggedTxs != 0 {
		t.Fatalf("FailCompute: %+v, %v; want no logged transaction", st, err)
	}

	clk := c.AttachClock(1, 0)
	before, start := c.MetricsSnapshot(), clk.Now()
	if err := surv.Update(0, transfer); err != nil {
		t.Fatalf("the survivor's first attempt must commit: %v", err)
	}
	cost := clk.Now() - start
	verbs := map[string]uint64{}
	for _, v := range c.MetricsSnapshot().Sub(before).Verbs {
		verbs[v.Verb] += v.Issued
	}
	got := fmt.Sprintf("read=%d write=%d cas=%d faa=%d vclock=%d",
		verbs["READ"], verbs["WRITE"], verbs["CAS"], verbs["FAA"], cost.Nanoseconds())
	// READs: two reads, and per steal the slot.
	const want = "read=4 write=10 cas=2 faa=0 vclock=12030"
	if got != want {
		t.Errorf("double-steal transfer moved\n got: %q\nwant: %q", got, want)
	}
	if rtt := c.fab.Latency().BaseRTT; cost/rtt != 6 {
		t.Errorf("%v is %d round trips, want 6", cost, cost/rtt)
	}
}

// TestLockRoundShapes pins, by name, the round shapes the lock step's
// one wait decides (DESIGN.md §16 "The lock step"): a write posts its
// lock doorbell and the transaction waits for all of them at Commit, so
// the two locks of a transfer cost one round between them. Each shape
// is one Pandora transaction on a warmed coordinator, costed on the
// virtual clock to the nanosecond and in whole base round trips up to
// Commit's return; the tail is posted at the ack and paid by the next
// doorbell (TestTailRidesNextDoorbell):
//   - the transfer on the fabric (working set far beyond the read cache,
//     transfer_uniform): two reads, the lock round, log, apply;
//   - the transfer on cached keys (rmw_hot's shape): the lock round, log,
//     apply;
//   - a read-modify-write of one key (read_zipf's RMW): read, lock, log,
//     apply — one lock either way.
//
// TestStealBothLocksTransfer pins the fourth shape, the double steal.
func TestLockRoundShapes(t *testing.T) {
	for _, tc := range []struct {
		name          string
		shape         pipeShape
		writes        []Key
		vclock, round int64
	}{
		{"transfer", shapeTransfer, []Key{2, 3}, 10027, 5},
		{"cached-transfer", pipeShape{reads: []Key{2, 3}}, []Key{2, 3}, 6021, 3},
		{"rmw", pipeShape{reads: []Key{2}, noCache: true}, []Key{2}, 8016, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := pipeCluster(t, pipeCase{proto: ProtocolPandora, shape: tc.shape})
			clk := c.AttachClock(0, 0)
			start := clk.Now()
			tx := c.Session(0, 0).Begin()
			for _, k := range tc.shape.reads {
				if _, err := tx.Read("kv", k); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range tc.writes {
				if err := tx.Write("kv", k, idemValue(300)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			cost := clk.Now() - start
			if cost.Nanoseconds() != tc.vclock {
				t.Errorf("vclock %d ns, want %d", cost.Nanoseconds(), tc.vclock)
			}
			if rtt := c.fab.Latency().BaseRTT; int64(cost/rtt) != tc.round {
				t.Errorf("%v is %d round trips, want %d", cost, cost/rtt, tc.round)
			}
		})
	}
}

// TestTailRidesNextDoorbell pins where a synchronous commit's tail is
// paid (DESIGN.md §16 "Post at the ack, paid by the next doorbell"): two
// fabric transfers back to back on one session. Each Commit returns
// after five round trips — two reads, the lock round, log, apply — with
// its truncate | release doorbell landed and still outstanding. The
// second transaction's first read charges the union of that tail and
// itself as one doorbell, one round trip and not two, and leaves nothing
// outstanding; a final wait on the session's own goroutine pays the
// second tail, so the clock reads eleven round trips in all (22 054
// ns). Every commit issues the verbs it issued when the tail was waited
// for.
func TestTailRidesNextDoorbell(t *testing.T) {
	c := pipeCluster(t, pipeCase{proto: ProtocolPandora, shape: shapeTransfer})
	s, co := c.Session(0, 0), c.Engine(0).Coordinator(0)
	clk := c.AttachClock(0, 0)
	rtt := c.fab.Latency().BaseRTT
	rounds := func(d time.Duration) int64 { return int64(d / rtt) }
	start := clk.Now()
	for i, v := range []uint64{200, 300} {
		before, txStart := c.MetricsSnapshot(), clk.Now()
		tx := s.Begin()
		if _, err := tx.Read("kv", shapeTransfer.reads[0]); err != nil {
			t.Fatal(err)
		}
		if first := clk.Now() - txStart; rounds(first) != 1 || co.Outstanding() {
			t.Errorf("tx %d: first read cost %v, %d round trips, left something outstanding: %t; want 1 round, nothing",
				i, first, rounds(first), co.Outstanding())
		}
		if _, err := tx.Read("kv", shapeTransfer.reads[1]); err != nil {
			t.Fatal(err)
		}
		for _, k := range []Key{2, 3} {
			if err := tx.Write("kv", k, idemValue(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if cost := clk.Now() - txStart; rounds(cost) != 5 {
			t.Errorf("tx %d: Commit returned after %v, %d round trips; want 5", i, cost, rounds(cost))
		}
		if !co.Outstanding() {
			t.Errorf("tx %d: the tail was waited for at Commit", i)
		}
		verbs := map[string]uint64{}
		for _, vb := range c.MetricsSnapshot().Sub(before).Verbs {
			verbs[vb.Verb] += vb.Issued
		}
		got := fmt.Sprintf("read=%d write=%d cas=%d faa=%d", verbs["READ"], verbs["WRITE"], verbs["CAS"], verbs["FAA"])
		if want := "read=4 write=10 cas=2 faa=0"; got != want {
			t.Errorf("tx %d: verbs %s, want %s", i, got, want)
		}
	}
	settleSession(t, s)
	if co.Outstanding() {
		t.Error("the session's wait left the tail outstanding")
	}
	if total := clk.Now() - start; total.Nanoseconds() != 22054 || rounds(total) != 11 {
		t.Errorf("two transfers and the last tail cost %v, %d round trips; want 22054 ns, 11", total, rounds(total))
	}
}

// TestCrashWithTailUnpaid: node 0 fails the moment a synchronous Commit
// returns, its tail landed but not yet paid for. That is a state
// recovery already knows — the verbs landed during Commit, exactly as
// when the tail was waited for — so recovery finds nothing logged and
// nothing locked, the acked writes stand, a second pass does no work,
// and the restarted incarnation starts with nothing outstanding.
func TestCrashWithTailUnpaid(t *testing.T) {
	c := pipeCluster(t, pipeCase{proto: ProtocolPandora, shape: shapeTransfer})
	tx := c.Session(0, 0).Begin()
	if err := pipeBody(tx, shapeTransfer, 200); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !c.Engine(0).Coordinator(0).Outstanding() {
		t.Fatal("the tail was waited for at Commit")
	}
	if rep, err := c.CheckConsistency("kv"); err != nil || rep.LockedSlots != 0 {
		t.Fatalf("at Commit's return: %+v, %v; want no locked slot", rep, err)
	}
	st, err := c.FailCompute(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.LoggedTxs != 0 || st.RolledForward != 0 || st.RolledBack != 0 || st.StrayLocksFreed != 0 {
		t.Fatalf("recovery did work on a landed tail: %+v", st)
	}
	state := idemState(t, c, pipeKeys)
	if v2, v3 := binary.LittleEndian.Uint64(state[2]), binary.LittleEndian.Uint64(state[3]); v2 != 200 || v3 != 200 {
		t.Fatalf("keys 2,3 = %d,%d after recovery, want the acked 200", v2, v3)
	}
	if st2, err := c.ReRecoverCompute(0); err != nil || st2.LoggedTxs != 0 || st2.RolledForward != 0 || st2.RolledBack != 0 || st2.StrayLocksFreed != 0 {
		t.Fatalf("second recovery pass: %+v, %v; want no work", st2, err)
	}
	if err := c.RestartCompute(0); err != nil {
		t.Fatal(err)
	}
	if c.Engine(0).Coordinator(0).Outstanding() {
		t.Fatal("the restarted incarnation's endpoint holds the dead one's doorbells")
	}
	if err := c.Session(0, 0).Update(4, func(tx *Tx) error { return pipeBody(tx, shapeTransfer, 300) }); err != nil {
		t.Fatalf("the restarted node cannot commit: %v", err)
	}
	if rep, err := c.CheckConsistency("kv"); err != nil || rep.LockedSlots != 0 || len(rep.DivergentKeys) != 0 {
		t.Fatalf("after restart: %+v, %v", rep, err)
	}
}
