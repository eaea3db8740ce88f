package pandora

import (
	"cmp"
	"errors"
	"fmt"

	"pandora/internal/core"
	"pandora/internal/memnode"
	"pandora/internal/place"
	"pandora/internal/rdma"
	"pandora/internal/reconfig"
)

// ReconfigState reports an online reconfiguration's journaled progress.
type ReconfigState = reconfig.Status

// ReconfigStep is one migration-step event delivered to the hook set
// with SetReconfigHook.
type ReconfigStep = reconfig.StepEvent

// ErrReconfigInterrupted is the conventional error a reconfig hook
// returns to simulate a migration-coordinator crash.
var ErrReconfigInterrupted = reconfig.ErrInterrupted

// fireReconfigHook dispatches to the currently installed hook, if any.
func (c *Cluster) fireReconfigHook(ev reconfig.StepEvent) error {
	c.mu.Lock()
	fn := c.reconfigHook
	c.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(ev)
}

// SetReconfigHook installs fn to fire between journaled migration steps
// of every migration — AddMemory, RemoveMemory and Rereplicate alike
// (nil uninstalls). Returning an error from fn abandons the migration
// mid-flight — the chaos harness's simulated coordinator crash — with
// the journal and partition marks left for ReconfigRecover.
func (c *Cluster) SetReconfigHook(fn func(ReconfigStep) error) {
	c.mu.Lock()
	c.reconfigHook = fn
	c.mu.Unlock()
}

// AddMemory attaches a fresh memory server to the *running* cluster and
// live-migrates its share of partitions onto it (DESIGN.md §13): one
// partition at a time moves through copying → cut-over → done, with
// transactions aborting (reconfig taxonomy) and retrying only while
// their partition is mid-cutover. It returns the new node's cluster
// index; on error the migration is resumable with ReconfigRecover.
func (c *Cluster) AddMemory() (int, error) {
	idx, _, err := c.attachMemory(-1, func(id rdma.NodeID) (*place.Ring, error) { return c.mgr.Ring().WithMember(id) })
	return idx, err
}

// Rereplicate replaces failed memory server i with a fresh one, restoring
// full redundancy (§3.2.5). It is a migration like AddMemory: the
// replacement takes the dead server's place — cluster index i and its
// slot on the ring, so it is given exactly the dead server's partitions
// and logs — and each of those partitions is copied onto it from a live
// replica while transactions keep running; only a partition's cutover
// drains them. (The paper stops the store for the copy; here only
// RecoverMemory's promotion does.) It returns the replacement; on error
// the migration is resumable with ReconfigRecover.
func (c *Cluster) Rereplicate(i int) (*memnode.Server, error) {
	dead := c.mem(i).ID()
	c.fd.ClearSuspicions(dead)
	_, srv, err := c.attachMemory(i, func(id rdma.NodeID) (*place.Ring, error) { return c.mgr.Ring().Substitute(dead, id) })
	return srv, err
}

// attachMemory attaches a memory server with a fresh id and migrates its
// partitions onto it. target is the placement with the new id in it.
// The server is attached — fabric, log regions, failure detector,
// recovery manager — before the first journal record, so an interrupted
// migration can resume onto it. It replaces the server at cluster index
// at, or is appended when at is negative; its index is returned either
// way, and on error the migration is resumable with ReconfigRecover.
func (c *Cluster) attachMemory(at int, target func(rdma.NodeID) (*place.Ring, error)) (int, *memnode.Server, error) {
	// Refuse before attaching: Run would refuse too, but only after the
	// new server had taken index at.
	if st, err := c.rc.Status(); err != nil || st.Active {
		return -1, nil, cmp.Or(err, errors.New("pandora: an interrupted migration is journaled; run ReconfigRecover first"))
	}
	c.mu.Lock()
	id := c.nextMem
	c.nextMem++
	c.mu.Unlock()
	ring, err := target(id)
	if err != nil {
		return -1, nil, err
	}
	srv := memnode.NewServer(c.fab, id, ring, c.schema)
	replaces := place.Hole
	c.mu.Lock()
	nodes := append([]*core.ComputeNode(nil), c.nodes...)
	if at < 0 {
		at = len(c.mems)
		c.mems = append(c.mems, srv)
	} else {
		replaces = c.mems[at].ID()
		c.mems[at] = srv
	}
	c.mu.Unlock()
	for _, cn := range nodes {
		srv.EnsureLogRegion(cn.ID(), c.cfg.CoordinatorsPerNode)
	}
	c.fd.RegisterMemory(id)
	c.mgr.AddMem(srv, replaces)
	return at, srv, c.rc.Run(reconfig.KindAdd, id, ring)
}

// RemoveMemory live-migrates every partition off memory server i, then
// decommissions the node: it is detached from the recovery manager and
// the cluster, and fail-stopped (verbs to it error, like any crashed
// node). The placement ring keeps a positional hole, so surviving
// members' partitions do not move; a later AddMemory fills the hole.
// On error the migration is resumable with ReconfigRecover.
func (c *Cluster) RemoveMemory(i int) error {
	c.mu.Lock()
	if i < 0 || i >= len(c.mems) {
		c.mu.Unlock()
		return fmt.Errorf("pandora: no memory node %d", i)
	}
	srv := c.mems[i]
	c.mu.Unlock()
	id := srv.ID()
	cur := c.mgr.Ring()
	target, err := cur.WithoutMember(id)
	if err != nil {
		return err
	}
	if err := c.rc.Run(reconfig.KindRemove, id, target); err != nil {
		return err
	}
	c.detachMemory(id)
	return nil
}

// detachMemory removes a decommissioned server from the manager and the
// cluster and fail-stops it. Idempotent.
func (c *Cluster) detachMemory(id rdma.NodeID) {
	c.mgr.RemoveMem(id)
	c.mu.Lock()
	out := c.mems[:0]
	var srv *memnode.Server
	for _, s := range c.mems {
		if s.ID() == id {
			srv = s
			continue
		}
		out = append(out, s)
	}
	c.mems = out
	c.mu.Unlock()
	if srv != nil {
		srv.Crash()
	}
}

// ReconfigStatus reads the replicated migration journal and reports
// whether a reconfiguration is incomplete and which partitions still
// have work.
func (c *Cluster) ReconfigStatus() (ReconfigState, error) { return c.rc.Status() }

// ReconfigRecover drives any journaled, incomplete migration to
// completion from the standby coordinator (a second live process taking
// over an orphaned migration), and reports whether one was found. It is
// idempotent: every step re-checks the journal and the installed
// placement, so re-running it — or racing it from several coordinators
// — converges without re-copying cut-over partitions. A recovered
// remove-migration also detaches the (now partition-less) subject node.
func (c *Cluster) ReconfigRecover() (bool, error) {
	st, err := c.rc2.Status()
	if err != nil {
		return false, err
	}
	did, err := c.rc2.Recover()
	if err != nil || !did {
		return did, err
	}
	if st.Active && st.Kind == reconfig.KindRemove {
		c.detachMemory(st.Subject)
	}
	return true, nil
}

// ReconfigCoordinator exposes the migration coordinator (tests driving
// idempotency and racing-recovery scenarios directly).
func (c *Cluster) ReconfigCoordinator() *reconfig.Coordinator { return c.rc }
