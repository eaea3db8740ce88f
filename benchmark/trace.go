package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	pandora "pandora"
	"pandora/internal/rdma"
)

// Spans are recorded by the benchmark around its calls into the system
// (spans inside the program are a later change). Session.Update runs
// Begin and Commit itself, so those two spans are delimited by the
// callback: begin is Update entry to callback entry, commit is callback
// return to Update return; on a retried attempt the gap between two
// callback runs (abort clean-up, backoff, Begin) is a retry span.
type spanName uint8

const (
	spUpdate spanName = iota
	spBegin
	spRetry
	spRead
	spReadRange
	spWrite
	spCommit   // txs with writes
	spCommitRO // read-only txs
	spFailCompute
	spRestartCompute
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"update", "begin", "retry", "read", "readrange", "write", "commit", "commit_ro",
	"fail_compute", "restart_compute",
}

// span is one recorded interval. Start/End are host nanoseconds since
// the tracer's base, VStart/VEnd the session's VClock. Parent indexes
// the kept buffer (-1 for a root); spans of one transaction share Tx.
type span struct {
	Name         spanName
	Parent       int32
	Tx           uint32
	Start, End   int64
	VStart, VEnd int64
}

type spanAgg struct {
	count, hostNS, modelNS int64
}

// keepSpans bounds the spans written to the trace file; every span is
// aggregated, only the first keepSpans are kept.
const keepSpans = 20000

// tracer records the spans of one session into a preallocated buffer
// and aggregates every span by name. Self time of an update span is its
// duration minus its children, which are all the other transaction
// spans; every other span is a leaf.
type tracer struct {
	base    time.Time
	clk     *rdma.VClock
	kept    []span
	dropped int64
	agg     [numSpanNames]spanAgg

	tx     uint32
	upIdx  int32 // kept index of the open update span, -1 when dropped
	upAt   int64
	upV    int64
	mark   int64 // end of the last child boundary inside the open update
	markV  int64
	tries  int
	traced tracedTx
}

func newTracer(clk *rdma.VClock) *tracer {
	t := &tracer{base: time.Now(), clk: clk, kept: make([]span, 0, keepSpans), upIdx: -1}
	t.traced.t = t
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(name spanName, parent int32, tx uint32, start, end, vstart, vend int64) {
	a := &t.agg[name]
	a.count++
	a.hostNS += end - start
	a.modelNS += vend - vstart
	if len(t.kept) == cap(t.kept) {
		t.dropped++
		return
	}
	t.kept = append(t.kept, span{name, parent, tx, start, end, vstart, vend})
}

// root records a span outside any transaction (FailCompute,
// RestartCompute), timed by the caller.
func (t *tracer) root(name spanName, start, end time.Time, vstart, vend time.Duration) {
	t.add(name, -1, 0, int64(start.Sub(t.base)), int64(end.Sub(t.base)), int64(vstart), int64(vend))
}

func (t *tracer) beginUpdate(at time.Time, v time.Duration) {
	t.tx++
	t.tries = 0
	t.upAt, t.upV = int64(at.Sub(t.base)), int64(v)
	t.mark, t.markV = t.upAt, t.upV
	// Reserve the update's slot so its children can name it as parent.
	t.upIdx = -1
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, span{Name: spUpdate, Parent: -1, Tx: t.tx, Start: t.upAt, VStart: t.upV})
		t.upIdx = int32(len(t.kept) - 1)
	}
}

// enter closes the begin (or retry) span at callback entry and returns
// the span-recording view of tx.
func (t *tracer) enter(tx *pandora.Tx) *tracedTx {
	now, v := t.now(), int64(t.clk.Now())
	name := spBegin
	if t.tries > 0 {
		name = spRetry
	}
	t.tries++
	t.add(name, t.upIdx, t.tx, t.mark, now, t.markV, v)
	t.traced.inner = tx
	return &t.traced
}

// leave marks callback return: what follows until endUpdate (or the
// next enter) is commit.
func (t *tracer) leave() { t.mark, t.markV = t.now(), int64(t.clk.Now()) }

func (t *tracer) endUpdate(at time.Time, v time.Duration, wrote bool) {
	end, vend := int64(at.Sub(t.base)), int64(v)
	name := spCommitRO
	if wrote {
		name = spCommit
	}
	t.add(name, t.upIdx, t.tx, t.mark, end, t.markV, vend)
	a := &t.agg[spUpdate]
	a.count++
	a.hostNS += end - t.upAt
	a.modelNS += vend - t.upV
	if t.upIdx >= 0 {
		t.kept[t.upIdx].End, t.kept[t.upIdx].VEnd = end, vend
	}
}

// updateSelfNS is the update spans' total self time: duration minus
// every child span.
func (t *tracer) updateSelfNS() int64 {
	self := t.agg[spUpdate].hostNS
	for n := spBegin; n <= spCommitRO; n++ {
		self -= t.agg[n].hostNS
	}
	return self
}

// perCall returns the mean host and modelled nanoseconds of one span of
// the given name; 0 when none was recorded.
func (t *tracer) perCall(name spanName) (host, model float64) {
	a := t.agg[name]
	if a.count == 0 {
		return 0, 0
	}
	return float64(a.hostNS) / float64(a.count), float64(a.modelNS) / float64(a.count)
}

// tracedTx wraps the operations of one transaction in spans.
type tracedTx struct {
	t     *tracer
	inner txOps
}

func (x *tracedTx) op(name spanName, start, vstart int64) {
	t := x.t
	t.add(name, t.upIdx, t.tx, start, t.now(), vstart, int64(t.clk.Now()))
}

func (x *tracedTx) Read(table string, key pandora.Key) ([]byte, error) {
	s, vs := x.t.now(), int64(x.t.clk.Now())
	v, err := x.inner.Read(table, key)
	x.op(spRead, s, vs)
	return v, err
}

func (x *tracedTx) Write(table string, key pandora.Key, value []byte) error {
	s, vs := x.t.now(), int64(x.t.clk.Now())
	err := x.inner.Write(table, key, value)
	x.op(spWrite, s, vs)
	return err
}

func (x *tracedTx) ReadRange(table string, lo, hi pandora.Key, fn func(pandora.Key, []byte) bool) error {
	s, vs := x.t.now(), int64(x.t.clk.Now())
	err := x.inner.ReadRange(table, lo, hi, fn)
	x.op(spReadRange, s, vs)
	return err
}

// writeFile writes the kept spans as JSON to dir/trace-<workload>.json.
func (t *tracer) writeFile(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"clock\":\"ns since trace start; v* are session VClock ns\",\"dropped\":%d,\"spans\":[\n", workload, t.dropped)
	for i, s := range t.kept {
		sep := ","
		if i == len(t.kept)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"parent\":%d,\"tx\":%d,\"start\":%d,\"end\":%d,\"vstart\":%d,\"vend\":%d}%s\n",
			i, spanNames[s.Name], s.Parent, s.Tx, s.Start, s.End, s.VStart, s.VEnd, sep)
	}
	fmt.Fprintln(w, "]}")
	return w.Flush()
}
