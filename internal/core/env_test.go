package core

import (
	"errors"
	"fmt"
	"testing"

	"pandora/internal/fdetect"
	"pandora/internal/kvlayout"
	"pandora/internal/memnode"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

// env is the in-process test cluster used across the core tests.
type env struct {
	fab    *rdma.Fabric
	ring   *place.Ring
	schema []kvlayout.Table
	mems   []*memnode.Server
	fd     *fdetect.Detector
	nodes  []*ComputeNode
}

type envConfig struct {
	schema    []kvlayout.Table
	memNodes  int
	replicas  int
	computes  int
	coordsPer int
	opts      Options
	latency   rdma.LatencyModel
}

func defaultSchema() []kvlayout.Table {
	return []kvlayout.Table{
		{ID: 0, ValueSize: 16, Slots: 1 << 10},
		{ID: 1, ValueSize: 40, Slots: 1 << 8},
	}
}

func newEnv(t testing.TB, cfg envConfig) *env {
	t.Helper()
	if cfg.schema == nil {
		cfg.schema = defaultSchema()
	}
	if cfg.memNodes == 0 {
		cfg.memNodes = 2
	}
	if cfg.replicas == 0 {
		cfg.replicas = 2
	}
	if cfg.computes == 0 {
		cfg.computes = 2
	}
	if cfg.coordsPer == 0 {
		cfg.coordsPer = 2
	}
	e := &env{fab: rdma.NewFabric(cfg.latency), schema: cfg.schema}
	memIDs := make([]rdma.NodeID, cfg.memNodes)
	for i := range memIDs {
		memIDs[i] = rdma.NodeID(100 + i)
	}
	e.ring = place.New(memIDs, cfg.replicas, 16)
	for _, id := range memIDs {
		e.mems = append(e.mems, memnode.NewServer(e.fab, id, e.ring, cfg.schema))
	}
	e.fd = fdetect.New(fdetect.Config{})
	for c := 0; c < cfg.computes; c++ {
		nodeID := rdma.NodeID(c)
		ids, err := e.fd.RegisterCompute(nodeID, cfg.coordsPer)
		if err != nil {
			t.Fatalf("RegisterCompute: %v", err)
		}
		cn := NewComputeNode(e.fab, nodeID, place.NewView(e.ring), cfg.schema, ids, cfg.opts)
		for _, m := range e.mems {
			m.EnsureLogRegion(nodeID, cfg.coordsPer)
		}
		e.nodes = append(e.nodes, cn)
	}
	return e
}

// preload loads keys 0..n-1 into table with values value(k).
func (e *env) preload(t testing.TB, table kvlayout.TableID, n int, value func(k kvlayout.Key) []byte) {
	t.Helper()
	byPart := make(map[uint32][]memnode.Item)
	for k := kvlayout.Key(0); k < kvlayout.Key(n); k++ {
		p := e.ring.Partition(k)
		byPart[p] = append(byPart[p], memnode.Item{Key: k, Value: value(k)})
	}
	for p, items := range byPart {
		for _, rep := range e.ring.Replicas(p) {
			srv := e.mem(rep)
			if _, err := srv.Preload(table, p, items); err != nil {
				t.Fatalf("preload: %v", err)
			}
		}
	}
}

func (e *env) mem(id rdma.NodeID) *memnode.Server {
	for _, m := range e.mems {
		if m.ID() == id {
			return m
		}
	}
	return nil
}

// val16 builds a deterministic 16-byte value for key k with sequence s.
func val16(k kvlayout.Key, s int) []byte {
	return []byte(fmt.Sprintf("k%08d-s%04d", uint64(k)%1e8, s%1e4))
}

// mustCommit runs fn inside a transaction and requires commit success.
func mustCommit(t testing.TB, co *Coordinator, fn func(tx *Tx) error) {
	t.Helper()
	tx := co.Begin()
	if err := fn(tx); err != nil {
		t.Fatalf("tx body: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// readKey reads one key in a fresh read-only transaction. A validation
// abort is retried: with the read cache on, a read may serve a stale
// cached version that commit-time validation rejects (and invalidates),
// so the retry observes the committed state — the standard OCC client
// loop.
func readKey(t testing.TB, co *Coordinator, table kvlayout.TableID, k kvlayout.Key) ([]byte, error) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		tx := co.Begin()
		v, err := tx.Read(table, k)
		if err != nil {
			_ = tx.Abort()
			return nil, err
		}
		cerr := tx.Commit()
		if cerr == nil {
			return v, nil
		}
		if !errors.Is(cerr, ErrAborted) || attempt >= 3 {
			return nil, cerr
		}
	}
}

// padValue right-pads a value to the table's fixed value size: the image
// a committed write leaves in the slot.
func padValue(tab kvlayout.Table, v []byte) []byte {
	out := make([]byte, tab.ValueSize)
	copy(out, v)
	return out
}

// lockedSlots counts the slots of table that carry a lock word, over
// every partition and replica.
func (e *env) lockedSlots(t testing.TB, table kvlayout.TableID) int {
	t.Helper()
	n := 0
	for p := uint32(0); p < e.ring.Partitions(); p++ {
		for _, rep := range e.ring.Replicas(p) {
			if err := e.mem(rep).ScanSlots(table, p, func(_ uint64, sl kvlayout.Slot, _ uint64) {
				if kvlayout.IsLocked(sl.Lock) {
					n++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}
