package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pandora/internal/core"
	"pandora/internal/fdetect"
	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

// roundsOnly charges a round trip per doorbell and nothing per byte, so a
// recovery's VTime counts its dependent rounds.
var roundsOnly = rdma.LatencyModel{BaseRTT: 2 * time.Microsecond}

// logProtocols are the three log layouts readLogs serves.
var logProtocols = []struct {
	name string
	opts core.Options
}{
	{"pandora", core.Options{}},
	{"tradlog", core.Options{Protocol: core.ProtocolTradLog, DisablePILL: true}},
	{"ford", core.Options{Protocol: core.ProtocolFORD}},
}

// strand leaves node 0 with one logged, unapplied transaction over keys
// [0, logged) on coordinator 0 — FORD-mode: a chain of that many records,
// crashed behind the last one — and, under the traditional scheme, locks
// on the next `held` keys taken by coordinator 1 and never logged. It
// returns the node's failure event.
func strand(t testing.TB, e *env, logged, held int) fdetect.Event {
	t.Helper()
	victim := e.nodes[0]
	if e.mgr.cfg.Protocol == core.ProtocolFORD {
		offers := 0
		victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
			if p == core.PointAfterFORDLog {
				offers++
			}
			return offers == logged
		})
		tx := victim.Coordinator(0).Begin()
		var err error
		for k := 0; k < logged && err == nil; k++ {
			err = tx.Write(0, kvlayout.Key(k), []byte("doomed"))
		}
		if !errors.Is(err, rdma.ErrCrashed) {
			t.Fatalf("write err = %v, want ErrCrashed behind record %d", err, logged)
		}
		victim.SetInjector(nil)
		victim.Restart()
	} else {
		keys := make([]kvlayout.Key, logged)
		for i := range keys {
			keys[i] = kvlayout.Key(i)
		}
		park(t, victim, 0, core.PointAfterLog, keys...)
	}
	if e.mgr.cfg.Protocol == core.ProtocolTradLog {
		tx := victim.Coordinator(1).Begin()
		for k := logged; k < logged+held; k++ {
			if err := tx.Write(0, kvlayout.Key(k), []byte("held")); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e.failNode(t, 0)
}

func TestLongRecordTakesOneTailRound(t *testing.T) {
	// A 2-write record, a chain of two and two lock intents fit the prefix;
	// a 12-write record (816 bytes), a chain of 12 and 12 or 14 intents do
	// not, and cost one more round — the tail doorbell — whatever their
	// number, under every protocol.
	for _, p := range logProtocols {
		t.Run(p.name, func(t *testing.T) {
			pass := func(logged, held int) (*env, Stats) {
				e := newEnv(t, envConfig{opts: p.opts, latency: roundsOnly})
				e.preload(t, 64)
				stats, err := e.mgr.RecoverCompute(strand(t, e, logged, held))
				if err != nil {
					t.Fatal(err)
				}
				if stats.LoggedTxs != 1 || stats.RolledBack != 1 {
					t.Fatalf("%d writes: stats = %+v, want the logged tx rolled back", logged, stats)
				}
				return e, stats
			}
			_, short := pass(2, 2)
			if short.LogTailReads != 0 || short.TailReadVTime != 0 {
				t.Fatalf("short record: stats = %+v, want no tail READ", short)
			}
			e, long := pass(12, 14)
			// One tail per log copy of the record or chain; the traditional
			// scheme's two intent areas (12 entries fill a prefix exactly,
			// 14 overflow it) add one each per log server.
			wantTails := 2
			if p.opts.Protocol == core.ProtocolTradLog {
				wantTails += 4
			}
			if long.LogTailReads != wantTails || long.TailReadVTime != roundsOnly.BaseRTT {
				t.Errorf("long record: %d tail READs in %v, want %d in one round", long.LogTailReads, long.TailReadVTime, wantTails)
			}
			if long.VTime != short.VTime+roundsOnly.BaseRTT {
				t.Errorf("long record recovers in %v, short in %v: want exactly one round (%v) more", long.VTime, short.VTime, roundsOnly.BaseRTT)
			}
			var keys []kvlayout.Key
			for k := kvlayout.Key(0); k < 12; k++ {
				keys = append(keys, k)
				if got := e.mustRead(t, 1, k); !bytes.Equal(got, pad16(initVal(k))) {
					t.Errorf("key %d = %q: a rolled-back write survived", k, got)
				}
			}
			e.assertReplicasConsistent(t, keys)
			if p.opts.Protocol == core.ProtocolTradLog {
				if long.StrayLocksFreed != 14 {
					t.Errorf("freed %d intent locks, want 14", long.StrayLocksFreed)
				}
				for k := kvlayout.Key(12); k < 26; k++ { // no PILL: only a released lock lets these through
					e.mustWrite(t, 1, k, []byte("survivor"))
				}
			}
		})
	}
}

func TestStaleImageBytesAreNotDecoded(t *testing.T) {
	// What one pass READ must never reach the decoder of the next: not over
	// truncated logs, and not when a header comes back whose tail does not —
	// the restored record area below keeps its prefix and loses every byte
	// past it, so only records that end inside the prefix may be believed.
	for _, p := range logProtocols {
		t.Run(p.name, func(t *testing.T) {
			e := newEnv(t, envConfig{opts: p.opts})
			e.preload(t, 64)
			ev := strand(t, e, 12, 14)
			restore := e.keepLogs(t, ev.Node, 2)
			first, err := e.mgr.RecoverCompute(ev)
			if err != nil {
				t.Fatal(err)
			}
			if first.LoggedTxs != 1 || first.LogTailReads == 0 {
				t.Fatalf("first pass = %+v, want one logged tx read through a tail", first)
			}
			again, err := e.mgr.RecoverCompute(ev)
			if err != nil {
				t.Fatal(err)
			}
			if again.LoggedTxs != 0 || again.StrayLocksFreed != 0 || again.LogTailReads != 0 || again.LogBytesRead >= first.LogBytesRead {
				t.Fatalf("pass over truncated logs = %+v, want nothing logged, freed or read past the prefix", again)
			}

			restore()
			ep := e.fab.Endpoint(rcNodeID)
			for _, n := range e.mgr.logNodes(ev.Node) {
				lost := rdma.Addr{Node: n, Region: kvlayout.LogRegionID(ev.Node), Offset: kvlayout.LogPrefixSize}
				if err := ep.Write(lost, make([]byte, kvlayout.LockLogOff-kvlayout.LogPrefixSize)); err != nil {
					t.Fatal(err)
				}
			}
			var (
				clk    rdma.VClock
				stats  Stats
				writes int
			)
			logs, err := e.mgr.readLogs(e.mgr.endpoint(&clk), ev, &stats)
			if err != nil {
				t.Fatal(err)
			}
			for _, tx := range e.mgr.reconstruct(logs, ev) {
				writes += len(tx.writes)
			}
			// A 12-write record has no trailer left; of FORD-mode's chain the
			// four 112-byte records that end inside the prefix survive.
			want := 0
			if p.opts.Protocol == core.ProtocolFORD {
				want = kvlayout.LogPrefixSize / 112
			}
			if stats.LogTailReads == 0 || writes != want {
				t.Fatalf("logs cut at the prefix: %d tail READs, %d writes reconstructed, want the tails asked for and %d writes", stats.LogTailReads, writes, want)
			}
		})
	}
}

func TestReconstructOrderIsDeterministic(t *testing.T) {
	// FORD-mode spreads a transaction's records over its objects' replica
	// sets and merges them first-seen: the order of the merged writes —
	// which settle's ops follow, and with them the fault-PRNG's draws —
	// must come from the log servers' order, not from a map's.
	e := newEnv(t, envConfig{memNodes: 4, opts: core.Options{Protocol: core.ProtocolFORD}})
	e.preload(t, 64)
	var keys []kvlayout.Key
	sets := make(map[string]bool)
	for k := kvlayout.Key(0); k < 64 && len(keys) < 3; k++ {
		if set := fmt.Sprint(e.ring.Replicas(e.ring.Partition(k))); !sets[set] {
			sets[set] = true
			keys = append(keys, k)
		}
	}
	if len(keys) < 3 {
		t.Fatal("no three keys on different replica sets")
	}
	victim := e.nodes[0]
	tx := victim.Coordinator(0).Begin()
	for _, k := range keys {
		if err := tx.Write(0, k, []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	ev := e.failNode(t, 0)
	restore := e.keepLogs(t, ev.Node, 2)

	type pass struct {
		writes []kvlayout.Key
		posted []rdma.Addr // settle's first doorbell: each write's replicas, in order
	}
	var first pass
	for i := 0; i < 50; i++ {
		restore()
		var (
			clk   rdma.VClock
			stats Stats
			got   pass
		)
		logs, err := e.mgr.readLogs(e.mgr.endpoint(&clk), ev, &stats)
		if err != nil {
			t.Fatal(err)
		}
		txs := e.mgr.reconstruct(logs, ev)
		if len(txs) != 1 || len(txs[0].writes) != len(keys) {
			t.Fatalf("pass %d: reconstructed %+v, want one tx of %d writes", i, txs, len(keys))
		}
		for _, w := range txs[0].writes {
			got.writes = append(got.writes, w.Key)
			for _, n := range e.ring.Replicas(w.Partition) {
				got.posted = append(got.posted, e.mgr.slotWord(n, w, kvlayout.SlotVersionOff))
			}
		}
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("pass %d merged the writes as %v, pass 0 as %v", i, got.writes, first.writes)
		}
		if _, err := e.mgr.RecoverCompute(ev); err != nil { // a whole pass: settles and truncates
			t.Fatal(err)
		}
	}
}
