// Fixture for the batchescape pass: values backed by a pooled
// OpBatch's arena escaping the owning frame.
package batchescape

// Op mirrors rdma.Op.
type Op struct {
	Addr uint64
	Buf  []byte
}

// OpBatch mirrors rdma.OpBatch's derive surface (matched by type name).
type OpBatch struct{}

func (b *OpBatch) Add() *Op                            { return &Op{} }
func (b *OpBatch) AddRead(addr uint64, dst []byte) *Op { return &Op{Addr: addr, Buf: dst} }
func (b *OpBatch) Ops() []*Op                          { return nil }
func (b *OpBatch) Bytes(n int) []byte                  { return make([]byte, n) }
func (b *OpBatch) Put()                                {}

// GetBatch mirrors rdma.GetBatch.
func GetBatch() *OpBatch { return &OpBatch{} }

type ent struct {
	pending *Op
	buf     []byte
}

// goodLocalUse keeps everything inside the frame.
func goodLocalUse(addr uint64) int {
	b := GetBatch()
	defer b.Put()
	op := b.AddRead(addr, b.Bytes(16))
	return len(op.Buf)
}

// goodBuilderHelper derives from a caller-owned batch: the caller
// controls Put, so handing the op back is the normal builder shape.
func goodBuilderHelper(b *OpBatch, addr uint64) *Op {
	return b.AddRead(addr, b.Bytes(8))
}

// badFieldStore stashes an arena-backed op past Put.
func badFieldStore(e *ent, addr uint64) {
	b := GetBatch()
	defer b.Put()
	op := b.Add()
	op.Addr = addr
	e.pending = op     // want "stored to a field"
	e.buf = b.Bytes(8) // want "stored to a field"
}

// badReturn hands recycled memory to the caller.
func badReturn(addr uint64) *Op {
	b := GetBatch()
	defer b.Put()
	return b.AddRead(addr, b.Bytes(8)) // want "returned"
}

// badGoroutineCapture races the pool.
func badGoroutineCapture(addr uint64, done chan<- int) {
	b := GetBatch()
	defer b.Put()
	op := b.AddRead(addr, b.Bytes(8))
	go func() { // want "captured by a goroutine"
		done <- len(op.Buf)
	}()
}

// writeEnt and tx mirror the engine's transaction state, which outlives
// every batch the commit path builds.
type writeEnt struct{ logged []byte }

type tx struct {
	lastLog []byte
	writes  []*writeEnt
}

// badLogPayloadKept: log records are serialised straight into the stage
// batch's arena, so the payload dies at Put — a transaction or
// write-set entry that keeps it reads another batch's bytes later.
func badLogPayloadKept(t *tx, size int) {
	b := GetBatch()
	defer b.Put()
	payload := b.Bytes(size)
	b.AddRead(0, payload)
	t.lastLog = payload          // want "stored to a field"
	t.writes[0].logged = payload // want "stored to a field"
}
