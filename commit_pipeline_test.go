package pandora

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

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
// clock — across protocol × sync/async tail × persistence ×
// fused/split doorbells. The golden rows were recorded before the
// commit path was restructured around a single stage executor and must
// not move with it. A second shape, the transfer (read keys 2 and 3,
// then write them), pins the path on which the write locks cover the
// whole read set and validation posts nothing (DESIGN.md §16).

var pipePointNames = map[core.CrashPoint]string{
	core.PointBeforeLock:      "BeforeLock",
	core.PointAfterLock:       "AfterLock",
	core.PointAfterExecRead:   "AfterExecRead",
	core.PointAfterFORDLog:    "AfterFORDLog",
	core.PointAfterValidation: "AfterValidation",
	core.PointAfterLog:        "AfterLog",
	core.PointAfterApplyOne:   "AfterApplyOne",
	core.PointAfterApplyAll:   "AfterApplyAll",
	core.PointAfterAck:        "AfterAck",
	core.PointAfterUnlock:     "AfterUnlock",
	core.PointAfterTruncate:   "AfterTruncate",
	core.PointDrainStart:      "DrainStart",
	core.PointAfterRead:       "AfterRead",
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
	// the read cache: two read rounds, two lock doorbells, log, apply, tail.
	shapeTransfer = pipeShape{prefix: "transfer/", reads: []Key{2, 3}, noCache: true}
)

type pipeCase struct {
	proto   Protocol
	async   bool
	persist bool
	split   bool
	shape   pipeShape
}

func (pc pipeCase) String() string {
	pick := func(on bool, yes, no string) string {
		if on {
			return yes
		}
		return no
	}
	return fmt.Sprintf("%s/%s/%s/%s", pc.proto,
		pick(pc.async, "async", "sync"),
		pick(pc.persist, "persist", "volatile"),
		pick(pc.split, "split", "fused"))
}

func pipeCases(shape pipeShape, withSplit bool) []pipeCase {
	var out []pipeCase
	for _, proto := range []Protocol{ProtocolPandora, ProtocolFORD, ProtocolTradLog} {
		for _, async := range []bool{false, true} {
			for _, persist := range []bool{false, true} {
				out = append(out, pipeCase{proto, async, persist, false, shape})
				if withSplit {
					out = append(out, pipeCase{proto, async, persist, true, shape})
				}
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
		AsyncCommitBack:     pc.async,
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
// 3, then flushes the node's drains (the async tail's flush point).
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
	c.Engine(0).FlushDrains()
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

// pipeRow measures one case and renders it as a golden row.
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
	c.Engine(0).FlushDrains()
	quiet := clk.Now() - start
	d := c.MetricsSnapshot().Sub(before)
	verbs := map[string]uint64{}
	for _, v := range d.Verbs {
		verbs[v.Verb] += v.Issued
	}

	// With an injector that never fires: the crash points it is offered.
	var seq []string
	c.Engine(0).SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
		seq = append(seq, pipePointNames[p])
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
// when the end of a read became a stage.
var pipeGolden = map[string]string{
	"pandora/sync/volatile/fused":  "read=3 write=10 cas=2 faa=0 flush=0 rounds=3 ack=12025 quiet=12025 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/volatile/split":  "read=3 write=10 cas=2 faa=0 flush=0 rounds=4 ack=14025 quiet=14025 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/persist/fused":   "read=3 write=10 cas=2 faa=0 flush=6 rounds=3 ack=12043 quiet=12043 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/persist/split":   "read=3 write=10 cas=2 faa=0 flush=6 rounds=6 ack=18043 quiet=18043 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/async/volatile/fused": "read=3 write=10 cas=2 faa=0 flush=0 rounds=2 ack=10025 quiet=12025 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"pandora/async/volatile/split": "read=3 write=10 cas=2 faa=0 flush=0 rounds=2 ack=10025 quiet=12025 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"pandora/async/persist/fused":  "read=3 write=10 cas=2 faa=0 flush=6 rounds=2 ack=10043 quiet=12043 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"pandora/async/persist/split":  "read=3 write=10 cas=2 faa=0 flush=6 rounds=4 ack=14043 quiet=16043 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"ford/sync/volatile/fused":     "read=3 write=12 cas=2 faa=0 flush=0 rounds=2 ack=14027 quiet=14027 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/volatile/split":     "read=3 write=12 cas=2 faa=0 flush=0 rounds=3 ack=16027 quiet=16027 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/persist/fused":      "read=3 write=12 cas=2 faa=0 flush=8 rounds=2 ack=18047 quiet=18047 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/persist/split":      "read=3 write=12 cas=2 faa=0 flush=8 rounds=4 ack=22047 quiet=22047 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/async/volatile/fused":    "read=3 write=12 cas=2 faa=0 flush=0 rounds=1 ack=12027 quiet=14027 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"ford/async/volatile/split":    "read=3 write=12 cas=2 faa=0 flush=0 rounds=1 ack=12027 quiet=14027 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"ford/async/persist/fused":     "read=3 write=12 cas=2 faa=0 flush=8 rounds=1 ack=16047 quiet=18047 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"ford/async/persist/split":     "read=3 write=12 cas=2 faa=0 flush=8 rounds=2 ack=18047 quiet=20047 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"tradlog/sync/volatile/fused":  "read=3 write=14 cas=2 faa=0 flush=0 rounds=3 ack=16031 quiet=16031 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/volatile/split":  "read=3 write=14 cas=2 faa=0 flush=0 rounds=4 ack=18031 quiet=18031 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/persist/fused":   "read=3 write=14 cas=2 faa=0 flush=6 rounds=3 ack=16049 quiet=16049 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/persist/split":   "read=3 write=14 cas=2 faa=0 flush=6 rounds=6 ack=22049 quiet=22049 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/async/volatile/fused": "read=3 write=14 cas=2 faa=0 flush=0 rounds=2 ack=14031 quiet=16031 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"tradlog/async/volatile/split": "read=3 write=14 cas=2 faa=0 flush=0 rounds=2 ack=14031 quiet=16031 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"tradlog/async/persist/fused":  "read=3 write=14 cas=2 faa=0 flush=6 rounds=2 ack=14049 quiet=16049 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"tradlog/async/persist/split":  "read=3 write=14 cas=2 faa=0 flush=6 rounds=4 ack=18049 quiet=20049 points=AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
}

// pipeGoldenTransfer holds the transfer shape's rows. Past one AfterRead
// per read, the crash points are pipeGolden's: the write set alone
// decides them. Of
// the four READs two are the reads and two ride the lock doorbells;
// validation posts none, so pandora/sync/volatile/fused is seven round
// trips — two reads, two lock doorbells, log, apply, tail — where a
// validation round made it eight.
var pipeGoldenTransfer = map[string]string{
	"pandora/sync/volatile/fused":  "read=4 write=10 cas=2 faa=0 flush=0 rounds=3 ack=14030 quiet=14030 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/volatile/split":  "read=4 write=10 cas=2 faa=0 flush=0 rounds=4 ack=16030 quiet=16030 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/persist/fused":   "read=4 write=10 cas=2 faa=0 flush=6 rounds=3 ack=14048 quiet=14048 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/sync/persist/split":   "read=4 write=10 cas=2 faa=0 flush=6 rounds=6 ack=20048 quiet=20048 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"pandora/async/volatile/fused": "read=4 write=10 cas=2 faa=0 flush=0 rounds=2 ack=12030 quiet=14030 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"pandora/async/volatile/split": "read=4 write=10 cas=2 faa=0 flush=0 rounds=2 ack=12030 quiet=14030 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"pandora/async/persist/fused":  "read=4 write=10 cas=2 faa=0 flush=6 rounds=2 ack=12048 quiet=14048 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"pandora/async/persist/split":  "read=4 write=10 cas=2 faa=0 flush=6 rounds=4 ack=16048 quiet=18048 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"ford/sync/volatile/fused":     "read=4 write=12 cas=2 faa=0 flush=0 rounds=2 ack=16032 quiet=16032 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/volatile/split":     "read=4 write=12 cas=2 faa=0 flush=0 rounds=3 ack=18032 quiet=18032 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/persist/fused":      "read=4 write=12 cas=2 faa=0 flush=8 rounds=2 ack=20052 quiet=20052 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/sync/persist/split":      "read=4 write=12 cas=2 faa=0 flush=8 rounds=4 ack=24052 quiet=24052 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"ford/async/volatile/fused":    "read=4 write=12 cas=2 faa=0 flush=0 rounds=1 ack=14032 quiet=16032 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"ford/async/volatile/split":    "read=4 write=12 cas=2 faa=0 flush=0 rounds=1 ack=14032 quiet=16032 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"ford/async/persist/fused":     "read=4 write=12 cas=2 faa=0 flush=8 rounds=1 ack=18052 quiet=20052 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"ford/async/persist/split":     "read=4 write=12 cas=2 faa=0 flush=8 rounds=2 ack=20052 quiet=22052 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,BeforeLock,AfterLock,AfterExecRead,AfterFORDLog,AfterValidation,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"tradlog/sync/volatile/fused":  "read=4 write=14 cas=2 faa=0 flush=0 rounds=3 ack=18036 quiet=18036 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/volatile/split":  "read=4 write=14 cas=2 faa=0 flush=0 rounds=4 ack=20036 quiet=20036 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/persist/fused":   "read=4 write=14 cas=2 faa=0 flush=6 rounds=3 ack=18054 quiet=18054 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/sync/persist/split":   "read=4 write=14 cas=2 faa=0 flush=6 rounds=6 ack=24054 quiet=24054 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,AfterTruncate,AfterUnlock,AfterUnlock,AfterUnlock",
	"tradlog/async/volatile/fused": "read=4 write=14 cas=2 faa=0 flush=0 rounds=2 ack=16036 quiet=18036 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"tradlog/async/volatile/split": "read=4 write=14 cas=2 faa=0 flush=0 rounds=2 ack=16036 quiet=18036 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"tradlog/async/persist/fused":  "read=4 write=14 cas=2 faa=0 flush=6 rounds=2 ack=16054 quiet=18054 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
	"tradlog/async/persist/split":  "read=4 write=14 cas=2 faa=0 flush=6 rounds=4 ack=20054 quiet=22054 points=AfterRead,AfterRead,BeforeLock,AfterLock,AfterExecRead,BeforeLock,AfterLock,AfterExecRead,AfterValidation,AfterLog,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyOne,AfterApplyAll,AfterAck,DrainStart,AfterTruncate,AfterUnlock,AfterUnlock",
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
						point = pipePointNames[p]
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
// CAS, slot READ, the lane's tail and head READs — so a stolen lock costs
// one round trip where a lock CAS failing on the word made it two, and
// the stolen locks cover the reads like any other: seven round trips in
// all (two reads, one per lock, log, apply, tail), no validation.
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
	// READs: two reads, and per steal the slot and the two lane ends.
	const want = "read=8 write=10 cas=2 faa=0 vclock=14030"
	if got != want {
		t.Errorf("double-steal transfer moved\n got: %q\nwant: %q", got, want)
	}
	if rtt := c.fab.Latency().BaseRTT; cost/rtt != 7 {
		t.Errorf("%v is %d round trips, want 7", cost, cost/rtt)
	}
}
