package recovery

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"pandora/internal/core"
	"pandora/internal/fdetect"
	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

// cutPoint is where Manager.cut can stop a pass: before verb landed of
// step, or after its last verb when landed is the step's op count.
type cutPoint struct {
	step   Step
	landed int
}

// interruptCase is a node that died with one logged transaction per point
// — coordinator i's over keys 2i and 2i+1 — under one protocol.
type interruptCase struct {
	name   string
	opts   core.Options
	points []core.CrashPoint
}

func interruptCases() []interruptCase {
	var cs []interruptCase
	for _, p := range logProtocols {
		for _, pts := range [][]core.CrashPoint{
			{core.PointAfterLog},
			{core.PointAfterApplyOne},
			{core.PointAfterApplyAll},
			{core.PointAfterLog, core.PointAfterApplyOne, core.PointAfterApplyAll, core.PointAfterLog},
		} {
			name := fmt.Sprintf("%s/point%d", p.name, pts[0])
			if len(pts) > 1 {
				name = fmt.Sprintf("%s/strays%d", p.name, len(pts))
			}
			cs = append(cs, interruptCase{name, p.opts, pts})
		}
	}
	return cs
}

func (c interruptCase) keys() []kvlayout.Key {
	keys := make([]kvlayout.Key, 2*len(c.points))
	for i := range keys {
		keys[i] = kvlayout.Key(i)
	}
	return keys
}

// stage builds the case's failed node and returns its failure event.
func (c interruptCase) stage(t testing.TB) (*env, fdetect.Event) {
	t.Helper()
	e := newEnv(t, envConfig{opts: c.opts, coordsPer: max(2, len(c.points)), slots: 64})
	e.preload(t, 16)
	for i, point := range c.points {
		if point == core.PointAfterLog && c.opts.Protocol == core.ProtocolFORD {
			point = core.PointAfterValidation // logged at write time, no log doorbell
		}
		park(t, e.nodes[0], i, point, c.keys()[2*i:2*i+2]...)
	}
	return e, e.failNode(t, 0)
}

// reference runs the uninterrupted pass and returns the table regions it
// left and every point at which it could have been cut.
func (c interruptCase) reference(t testing.TB) (map[rdma.Addr][]byte, []cutPoint) {
	t.Helper()
	e, ev := c.stage(t)
	var cuts []cutPoint
	e.mgr.cut = func(s Step, landed int) bool {
		cuts = append(cuts, cutPoint{s, landed})
		return false
	}
	if _, err := e.mgr.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}
	return e.tables(t), cuts
}

// interrupt cuts a pass of c at at, lets a survivor try one write of every
// stray key (not under FORD-mode), runs a full pass from a second Manager —
// its undo guard off when unguarded — and returns how memory then differs
// from ref overwritten by the survivor's acked writes, or "".
func (c interruptCase) interrupt(t testing.TB, ref map[rdma.Addr][]byte, at cutPoint, unguarded bool) string {
	t.Helper()
	e, ev := c.stage(t)
	e.recoverCut(t, ev, at.step, at.landed)
	var acked []kvlayout.Key
	if c.opts.Protocol != core.ProtocolFORD {
		for _, k := range c.keys() {
			tx := e.nodes[1].Coordinator(0).Begin()
			err := tx.Write(0, k, survivorVal(k))
			if err == nil {
				err = tx.Commit()
			} else {
				_ = tx.Abort()
			}
			if err == nil {
				acked = append(acked, k)
			}
		}
	}
	second := NewManager(e.mgr.cfg)
	second.moved[ev.Node] = unguarded
	if _, err := second.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}
	logs, _ := e.readLogs(t, ev)
	if txs := e.mgr.reconstruct(logs, ev); len(txs) > 0 {
		return fmt.Sprintf("%d logged transactions left untruncated", len(txs))
	}
	for _, l := range logs {
		for slot, a := range l.areas {
			if len(kvlayout.DecodeLockIntents(a.intents)) > 0 {
				return fmt.Sprintf("coordinator %d's lock intents left above the floor on node %d", slot, l.node)
			}
		}
	}
	return e.diff(e.tables(t), e.overwritten(ref, acked))
}

func survivorVal(k kvlayout.Key) []byte { return []byte(fmt.Sprintf("survivor-%d", k)) }

// tables reads every table region on every replica, by address.
func (e *env) tables(t testing.TB) map[rdma.Addr][]byte {
	t.Helper()
	ep := e.fab.Endpoint(rcNodeID)
	out := make(map[rdma.Addr][]byte)
	for p := uint32(0); p < e.ring.Partitions(); p++ {
		for _, n := range e.ring.Replicas(p) {
			at := rdma.Addr{Node: n, Region: kvlayout.TableRegionID(0, p)}
			out[at] = make([]byte, e.schema[0].RegionSize())
			if err := ep.Read(at, out[at]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// overwritten returns img with a survivor's commit of each of keys on
// top: the survivor's value, the version one past img's, no lock.
func (e *env) overwritten(img map[rdma.Addr][]byte, keys []kvlayout.Key) map[rdma.Addr][]byte {
	tab := e.schema[0]
	out := make(map[rdma.Addr][]byte, len(img))
	for at, region := range img {
		region = bytes.Clone(region)
		for i := range tab.Slots {
			buf := region[tab.SlotOffset(i):][:tab.SlotSize()]
			if s := tab.DecodeSlot(buf); s.Present && slices.Contains(keys, s.Key) {
				s.Lock, s.Version, s.Value = 0, s.Version+1, pad16(survivorVal(s.Key))
				tab.EncodeSlot(buf, s)
			}
		}
		out[at] = region
	}
	return out
}

// diff names a slot where got and want differ, or returns "".
func (e *env) diff(got, want map[rdma.Addr][]byte) string {
	tab := e.schema[0]
	for at, w := range want {
		g := got[at]
		for i := range tab.Slots {
			off := tab.SlotOffset(i)
			gb, wb := g[off:][:tab.SlotSize()], w[off:][:tab.SlotSize()]
			if !bytes.Equal(gb, wb) {
				gs, ws := tab.DecodeSlot(gb), tab.DecodeSlot(wb)
				return fmt.Sprintf("node %d region %#x slot %d = key %d v%d %q lock %#x, want key %d v%d %q lock %#x",
					at.Node, at.Region, i, gs.Key, gs.Version, gs.Value, gs.Lock, ws.Key, ws.Version, ws.Value, ws.Lock)
			}
		}
	}
	return ""
}

// slot returns key k's slot on replica n.
func (e *env) slot(t testing.TB, n rdma.NodeID, k kvlayout.Key) kvlayout.Slot {
	t.Helper()
	tab := e.schema[0]
	region := e.tables(t)[rdma.Addr{Node: n, Region: kvlayout.TableRegionID(0, e.ring.Partition(k))}]
	for i := range tab.Slots {
		if s := tab.DecodeSlot(region[tab.SlotOffset(i):]); s.Present && s.Key == k {
			return s
		}
	}
	t.Fatalf("key %d not on node %d", k, n)
	return kvlayout.Slot{}
}

func TestInterruptedPassConverges(t *testing.T) {
	// §3.2.3: a recovery that dies at any verb is simply run again. Cut a
	// pass before every verb of every doorbell and after the last, let a
	// survivor commit in between, and a full pass from a second recovery
	// coordinator must leave every table region as the uninterrupted pass
	// did, overwritten by exactly what the survivor committed, and every
	// log truncated. FORD-mode's survivor stays out: the mode believes its
	// logs (Table 1, C2), so it undoes such a commit by design.
	for _, c := range interruptCases() {
		t.Run(c.name, func(t *testing.T) {
			ref, cuts := c.reference(t)
			for _, at := range cuts {
				if msg := c.interrupt(t, ref, at, false); msg != "" {
					t.Errorf("cut before verb %d of step %d: %s", at.landed, at.step, msg)
				}
			}
		})
	}
}

func TestInterruptedPassNeedsTheUndoGuard(t *testing.T) {
	// The version ABA the undo's lock-word guard is for: a pass releases a
	// lock and dies, a survivor commits over it — stepping the version to
	// the dead transaction's NewVersion — and an unguarded re-run undoes
	// that commit. Some cut of a Pandora pass must show it.
	lost := 0
	for _, c := range interruptCases() {
		if c.opts.Protocol != core.ProtocolPandora {
			continue
		}
		ref, cuts := c.reference(t)
		for _, at := range cuts {
			if c.interrupt(t, ref, at, true) != "" {
				lost++
			}
		}
	}
	if lost == 0 {
		t.Fatal("with the undo guard off, no cut of a Pandora pass lost a survivor's commit")
	}
}

func TestInterruptedPassIsRealCut(t *testing.T) {
	// A cut pass stops where it is cut: nothing after the cut is posted and
	// the stray-lock notification is not sent.
	c := interruptCase{"pandora", core.Options{}, []core.CrashPoint{core.PointAfterLog}}
	e, ev := c.stage(t)
	stats := e.recoverCut(t, ev, StepAct, 0)
	if stats.LoggedTxs != 1 || stats.Steps[StepAct] != 0 || stats.Steps[StepTruncate] != 0 {
		t.Fatalf("pass cut before its act doorbell = %+v, want the tx found and nothing acted on or truncated", stats)
	}
	if s := e.slot(t, e.ring.Replicas(e.ring.Partition(0))[0], 0); !kvlayout.IsLocked(s.Lock) {
		t.Fatalf("key 0 lock = %#x, want the dead transaction's still held", s.Lock)
	}
	// The write's lock doorbell settles at Commit: the conflict surfaces there.
	if tx := e.nodes[1].Coordinator(0).Begin(); tx.Write(0, 0, []byte("stolen")) == nil && tx.Commit() == nil {
		t.Fatal("a survivor locked a key of a logged stray transaction before any notification")
	}
}
