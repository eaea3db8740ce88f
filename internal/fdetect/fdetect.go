// Package fdetect implements the failure detector (FD) of §3.2.2 and
// §3.2.4. The FD is an independent service that:
//
//   - assigns each spawned coordinator a unique 16-bit coordinator-id
//     (spawns are strictly serialised, and a failed id is handed out
//     again only once the recycling scan has freed it, FreeCoordIDs);
//   - declares a compute or memory server failed once it has been silent
//     for a timeout (5 ms in the paper's evaluation). Where the paper's
//     servers send heartbeats, each sweep here reads a server's liveness
//     (Config.Alive), so a late sweep never expires a live server, and a
//     false suspicion happens only when a caller reports one
//     (MarkFailed, Suspect);
//   - keeps each failed compute node's failure event current (Failure)
//     until the node restarts or the recycling scan frees its ids;
//   - in the distributed configuration, replicates its state over a
//     quorum ensemble (package quorum) and declares a node failed only
//     when a majority of FD replicas have missed its heartbeats.
//
// The FD reports failures to subscribers (the recovery manager); it does
// not itself notify compute servers, because the stray-lock notification
// must strictly follow log recovery (Cor4).
package fdetect

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"pandora/internal/kvlayout"
	"pandora/internal/quorum"
	"pandora/internal/rdma"
)

// NodeKind classifies a monitored server.
type NodeKind int

// Monitored server kinds.
const (
	Compute NodeKind = iota
	Memory
)

// Event reports one detected failure.
type Event struct {
	Kind NodeKind
	Node rdma.NodeID
	// Coords lists the coordinator-ids hosted by a failed compute node.
	Coords []kvlayout.CoordID
}

// Config parameterises the detector.
type Config struct {
	// Timeout after which a silent node is declared failed. Default 5 ms
	// (the paper's setting).
	Timeout time.Duration
	// Alive reports whether a node is up; each sweep counts a live node
	// as having just heartbeaten at every live FD replica. Nil means no
	// node beats. It runs under the detector's mutex, so it must not call
	// back into the detector or wait on anything that might.
	Alive func(rdma.NodeID) bool
	// Now is the clock; defaults to time.Now. Tests inject a fake.
	Now func() time.Time
	// Replicas is the number of FD replicas. 1 (default) is the
	// standalone FD; an odd number >= 3 gives the distributed FD, which
	// declares a node failed only when a majority of replicas have
	// missed its heartbeats.
	Replicas int
	// Store optionally persists FD state (the used coordinator-ids) to a
	// quorum ensemble so that a restarted FD resumes safely: it hands out
	// no id it had not freed.
	Store *quorum.Store
	// SuspectThreshold is the number of suspicion reports (Suspect calls
	// from coordinators whose verbs timed out toward a node) at which
	// the FD escalates and declares the node failed — gray failures that
	// never miss a heartbeat still get fenced. 0 uses the default (4);
	// a negative value disables escalation (suspicions are still
	// counted and visible via Suspicions).
	SuspectThreshold int
}

func (c *Config) fillDefaults() {
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.SuspectThreshold == 0 {
		c.SuspectThreshold = 4
	}
}

// checkInterval is the period of Start's sweeps.
const checkInterval = time.Millisecond

type nodeInfo struct {
	kind NodeKind
	// coords are the node's coordinator-ids; nil once the recycling scan
	// has freed any of a failed node's (its failure event is retired).
	coords []kvlayout.CoordID
	lastHB []time.Time // one per FD replica
	failed bool
}

// Detector is the failure detector service.
type Detector struct {
	cfg Config

	mu          sync.Mutex
	nodes       map[rdma.NodeID]*nodeInfo
	replicaDown []bool
	// used holds every coordinator-id handed out and not freed: the live
	// coordinators' and the failed ones' not yet recycled. Which ids are
	// failed is the placement view's to say (place.View.FailedIDs).
	used kvlayout.CoordSet
	subs []func(Event)
	// suspicions counts each node's suspicion reports; reaching
	// SuspectThreshold is the escalation.
	suspicions map[rdma.NodeID]int

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// New creates a detector. Call Start to begin liveness monitoring;
// registration, id allocation and MarkFailed work without Start (used by
// deterministic tests and benches).
func New(cfg Config) *Detector {
	cfg.fillDefaults()
	if cfg.Replicas > 1 && cfg.Replicas%2 == 0 {
		panic("fdetect: replica count must be odd")
	}
	d := &Detector{
		cfg:         cfg,
		nodes:       make(map[rdma.NodeID]*nodeInfo),
		replicaDown: make([]bool, cfg.Replicas),
		suspicions:  make(map[rdma.NodeID]int),
		stopCh:      make(chan struct{}),
	}
	d.restore()
	return d
}

// restore loads the used ids from the quorum store, if configured.
func (d *Detector) restore() {
	if d.cfg.Store == nil {
		return
	}
	if v, ok, err := d.cfg.Store.Get("fd/used"); err == nil && ok && len(v) == 8*len(d.used) {
		for i := range d.used {
			d.used[i] = binary.LittleEndian.Uint64(v[8*i:])
		}
	}
}

func (d *Detector) persist() {
	if d.cfg.Store == nil {
		return
	}
	buf := make([]byte, 0, 8*len(d.used))
	for _, w := range d.used {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	_ = d.cfg.Store.Put("fd/used", buf)
}

// RegisterCompute registers a compute node hosting n coordinators and
// returns their freshly allocated coordinator-ids: the lowest ids not in
// use — neither live nor failed and not yet freed. Spawns are strictly
// serialised (§3.1.2).
func (d *Detector) RegisterCompute(node rdma.NodeID, n int) ([]kvlayout.CoordID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]kvlayout.CoordID, 0, n)
	for i := 0; i < len(d.used) && len(ids) < n; i++ {
		for free := ^d.used[i]; free != 0 && len(ids) < n; free &= free - 1 {
			ids = append(ids, kvlayout.CoordID(i*64+bits.TrailingZeros64(free)))
		}
	}
	if len(ids) < n {
		return nil, fmt.Errorf("fdetect: coordinator-id space exhausted (%d used)", d.used.Count())
	}
	for _, id := range ids {
		d.used.Add(id)
	}
	// A (re-)registration is a fresh process: it replaces the node's
	// coordinator set and retires its last failure event. The previous ids
	// stay used until recycled; failure events report only the current
	// ones — otherwise recovery would look at stale log areas and miss the
	// live coordinators' state.
	d.nodes[node] = &nodeInfo{kind: Compute, lastHB: d.freshHB(), coords: slices.Clone(ids)}
	d.persist()
	return ids, nil
}

// RegisterMemory registers a memory node for monitoring.
func (d *Detector) RegisterMemory(node rdma.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Re-registration re-arms monitoring for a restarted or re-replicated
	// server: failed state and accumulated suspicions are cleared and the
	// heartbeat clock restarts fresh.
	d.nodes[node] = &nodeInfo{kind: Memory, lastHB: d.freshHB()}
	delete(d.suspicions, node)
}

func (d *Detector) freshHB() []time.Time {
	now := d.cfg.Now()
	hb := make([]time.Time, d.cfg.Replicas)
	for i := range hb {
		hb[i] = now
	}
	return hb
}

// CrashReplica fail-stops FD replica i; its heartbeat record stops
// being refreshed and stops counting toward detection majorities.
func (d *Detector) CrashReplica(i int) {
	d.mu.Lock()
	d.replicaDown[i] = true
	d.mu.Unlock()
}

// RestartReplica brings FD replica i back; it resumes with fresh
// heartbeat state so it cannot immediately vote a live node out.
func (d *Detector) RestartReplica(i int) {
	now := d.cfg.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.replicaDown[i] = false
	for _, info := range d.nodes {
		info.lastHB[i] = now
	}
}

// Subscribe registers a failure-event callback, invoked synchronously
// from the detection path. The recovery manager subscribes here.
func (d *Detector) Subscribe(fn func(Event)) {
	d.mu.Lock()
	d.subs = append(d.subs, fn)
	d.mu.Unlock()
}

// Start launches the sweep loop.
func (d *Detector) Start() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(checkInterval)
		defer t.Stop()
		for {
			select {
			case <-d.stopCh:
				return
			case <-t.C:
				d.sweep()
			}
		}
	}()
}

// Stop terminates the sweep loop.
func (d *Detector) Stop() {
	d.stopOnce.Do(func() { close(d.stopCh) })
	d.wg.Wait()
}

// sweep refreshes every live node's heartbeat at each live FD replica,
// then declares failed every node whose heartbeats have expired at a
// majority of them.
func (d *Detector) sweep() {
	now := d.cfg.Now()
	var events []Event
	d.mu.Lock()
	needed := d.cfg.Replicas/2 + 1
	for id, info := range d.nodes {
		if info.failed {
			continue
		}
		alive := d.cfg.Alive != nil && d.cfg.Alive(id)
		expired := 0
		for i := range info.lastHB {
			if d.replicaDown[i] {
				continue
			}
			if alive {
				info.lastHB[i] = now
			}
			if now.Sub(info.lastHB[i]) > d.cfg.Timeout {
				expired++
			}
		}
		if expired >= needed {
			info.failed = true
			events = append(events, info.event(id))
		}
	}
	subs := append([]func(Event){}, d.subs...)
	d.mu.Unlock()
	for _, ev := range events {
		for _, fn := range subs {
			fn(ev)
		}
	}
}

// Suspect records one suspicion report against node — a coordinator's
// verb toward it timed out or found the link partitioned. At
// SuspectThreshold reports the FD escalates and declares the node
// failed, asynchronously: the report typically arrives from a
// transaction goroutine, and memory-failure recovery stops the world,
// which must not wait on the very transaction that reported. It
// returns true once escalation has been triggered (by this or an
// earlier report).
func (d *Detector) Suspect(node rdma.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	info, limit := d.nodes[node], d.cfg.SuspectThreshold
	if info == nil || info.failed {
		return info != nil
	}
	if limit > 0 && d.suspicions[node] >= limit {
		return true // an earlier report escalated
	}
	d.suspicions[node]++
	if limit < 0 || d.suspicions[node] < limit {
		return false
	}
	go d.MarkFailed(node) // it takes the lock once this call returns
	return true
}

// Suspicions returns the current suspicion count for node.
func (d *Detector) Suspicions(node rdma.NodeID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suspicions[node]
}

// ClearSuspicions resets node's suspicion state — called when the node
// is healed/recovered (link repaired, re-replicated, restarted) so old
// reports cannot combine with a future unrelated glitch.
func (d *Detector) ClearSuspicions(node rdma.NodeID) {
	d.mu.Lock()
	delete(d.suspicions, node)
	d.mu.Unlock()
}

// MarkFailed declares node failed immediately, bypassing heartbeat
// timing. Deterministic tests and failure-emulation benches use this;
// production flow uses Start and Config.Alive.
func (d *Detector) MarkFailed(node rdma.NodeID) (Event, bool) {
	d.mu.Lock()
	info := d.nodes[node]
	if info == nil || info.failed {
		d.mu.Unlock()
		return Event{}, false
	}
	info.failed = true
	ev := info.event(node)
	subs := append([]func(Event){}, d.subs...)
	d.mu.Unlock()
	for _, fn := range subs {
		fn(ev)
	}
	return ev, true
}

// event is node's failure event: its kind and current coordinator-ids.
func (info *nodeInfo) event(node rdma.NodeID) Event {
	return Event{Kind: info.kind, Node: node, Coords: slices.Clone(info.coords)}
}

// Failure returns compute node's failure event while it is current: the
// node is declared failed, has not registered again since, and no id of
// the event has been freed. Only a current event may be recovered again;
// a retired one would fence a live incarnation or announce ids the FD
// may have handed out.
func (d *Detector) Failure(node rdma.NodeID) (Event, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	info := d.nodes[node]
	if info == nil || !info.failed || info.coords == nil {
		return Event{}, false
	}
	return info.event(node), true
}

// FreeCoordIDs completes a recycling pass (§3.1.2): every lock of ids has
// been released and no compute node counts them failed any more, so
// RegisterCompute may hand them out again. An id a live registered node
// holds stays used; a failed node that held a freed id loses its current
// failure event.
func (d *Detector) FreeCoordIDs(ids []kvlayout.CoordID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range ids {
		d.used.Remove(id)
	}
	for _, info := range d.nodes {
		if !info.failed {
			for _, id := range info.coords {
				d.used.Add(id) // ids are unique: no failed node holds it
			}
		} else if slices.ContainsFunc(info.coords, func(id kvlayout.CoordID) bool { return !d.used.Has(id) }) {
			info.coords = nil
		}
	}
	d.persist()
}

// UsedIDs returns how many coordinator-ids are handed out and not freed.
func (d *Detector) UsedIDs() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return uint64(d.used.Count())
}

// IsFailed reports whether node has been declared failed.
func (d *Detector) IsFailed(node rdma.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	info := d.nodes[node]
	return info != nil && info.failed
}
