package rdma

// ReadBatch posts len(addrs) equal-size READs as a single doorbell,
// carving the destination buffers back-to-back from the caller-owned
// batch's arena. It returns the backing buffer: result i occupies
// buf[i*each : (i+1)*each]. The buffer is arena memory — valid only
// until the batch's next Reset/Put, and callers must copy anything they
// retain.
//
// N READs cost one fabric round trip (the per-destination queue pairs
// run them concurrently; the clock is charged max-of-durations) instead
// of N dependent round trips. The transaction read path posts the same
// doorbell into buffers it keeps (core's fetchSlots); the benchmark's
// rdma.readbatch16_ns probe times this one.
func (ep *Endpoint) ReadBatch(b *OpBatch, addrs []Addr, each int) ([]byte, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	start := b.Len()
	buf := b.Bytes(len(addrs) * each)
	for i, a := range addrs {
		b.AddRead(a, buf[i*each:(i+1)*each])
	}
	return buf, ep.Do(b.Ops()[start:]...)
}
