// Per-thread access batching: instead of calling Sink.Access once per
// executed trace instruction, the interpreter appends accesses to
// fixed-size per-thread buffers and hands whole batches to the sink.
//
// The equivalence argument is structural: a buffer only ever holds a
// run of consecutive accesses by one thread, and it is flushed before
// any other sink callback (monitor, lifecycle, join) and before a
// different thread's access is appended. The downstream sink therefore
// observes exactly the event sequence it would have seen unbatched —
// batching changes call granularity, never order. Because every lock
// operation forces a flush, all accesses in one batch were executed
// under the same lock environment, which is what lets batch-aware
// detectors materialize the (interned) lockset once per batch instead
// of once per access.
package event

import "sync"

// BatchSink is implemented by sinks that can consume a run of
// consecutive accesses by a single thread in one call. All accesses in
// the batch share the thread and the lock environment (flushes are
// forced on every monitor and lifecycle event). The batch slice is
// only valid for the duration of the call: the producer truncates and
// reuses (and eventually pool-recycles) the backing buffer.
type BatchSink interface {
	Sink
	AccessBatch(batch []Access)
}

// AccessBatch implements BatchSink for MultiSink: batch-aware children
// receive the whole batch, the rest receive the accesses one by one —
// in both cases in original order.
func (m MultiSink) AccessBatch(batch []Access) {
	for _, s := range m {
		if bs, ok := s.(BatchSink); ok {
			bs.AccessBatch(batch)
			continue
		}
		for _, a := range batch {
			s.Access(a)
		}
	}
}

// AccessBatch implements BatchSink.
func (NullSink) AccessBatch(batch []Access) {}

// DefaultBatchSize is the per-thread buffer capacity used when batching
// is requested without an explicit size.
const DefaultBatchSize = 128

// accessBufPool recycles per-thread batch buffers across Batcher
// lifetimes (one Batcher per interpreter run): Close returns every
// buffer here, so in steady state batched runs allocate no buffers at
// all.
var accessBufPool = sync.Pool{New: func() any { return []Access(nil) }}

func getAccessBuf(want int) []Access {
	b := accessBufPool.Get().([]Access)
	if cap(b) < want {
		return make([]Access, 0, want)
	}
	return b[:0]
}

func putAccessBuf(b []Access) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = Access{} // do not pin a dead run's locksets or strings
	}
	accessBufPool.Put(b[:0])
}

// Batcher wraps a sink with per-thread access batching. It implements
// Sink itself; the owner (the interpreter) must additionally call
// Flush at context switches and Close when the run ends.
type Batcher struct {
	sink      Sink
	batch     BatchSink // non-nil when sink is batch-aware
	size      int
	bufs      [][]Access // per thread, pool-backed, lazily sized; at most one non-empty
	live      ThreadID   // thread owning the single non-empty buffer
	any       bool       // some buffer is non-empty
	closed    bool       // Close ran: buffers recycled, late events dropped
	lateDrops uint64     // accesses dropped because they arrived after Close
}

// NewBatcher wraps sink; size <= 0 selects DefaultBatchSize.
func NewBatcher(sink Sink, size int) *Batcher {
	if size <= 0 {
		size = DefaultBatchSize
	}
	b := &Batcher{sink: sink, size: size}
	if bs, ok := sink.(BatchSink); ok {
		b.batch = bs
	}
	return b
}

var _ BatchSink = (*Batcher)(nil)

func (b *Batcher) buf(t ThreadID) *[]Access {
	for int(t) >= len(b.bufs) {
		b.bufs = append(b.bufs, nil)
	}
	return &b.bufs[t]
}

// Flush delivers every buffered access downstream, preserving order.
// A no-op when nothing is buffered: downstream batch sinks never see
// an empty AccessBatch call.
func (b *Batcher) Flush() {
	if !b.any {
		return
	}
	b.any = false
	buf := &b.bufs[b.live]
	// The buffer is truncated via defer: if the sink panics mid-
	// delivery, the run counts as consumed, so a caller that recovers
	// and keeps going can never re-deliver the prefix the sink already
	// saw.
	defer func() { *buf = (*buf)[:0] }()
	if b.batch != nil {
		b.batch.AccessBatch(*buf)
		return
	}
	for _, a := range *buf {
		b.sink.Access(a)
	}
}

// Close flushes any buffered accesses, returns every per-thread
// buffer to the package pool, and marks the batcher terminal.
// Producers must call it when the run ends — including early ends (an
// interpreter error, a cancelled run) — so the tail of the access
// stream is not silently dropped. Idempotent. After Close the batcher
// is inert: late Access/AccessBatch calls are dropped (counted by
// LateDrops) rather than written into a buffer that another run may
// already have obtained from the pool; lifecycle and monitor events
// still pass through to the sink.
func (b *Batcher) Close() {
	if b.closed {
		return
	}
	b.Flush()
	b.closed = true
	for i, buf := range b.bufs {
		b.bufs[i] = nil
		putAccessBuf(buf)
	}
	b.bufs = nil
}

// LateDrops reports how many accesses arrived after Close and were
// dropped under the post-Close contract.
func (b *Batcher) LateDrops() uint64 { return b.lateDrops }

// Access implements Sink: append to t's buffer, flushing another
// thread's pending run first so global order is preserved.
func (b *Batcher) Access(a Access) {
	if b.closed {
		b.lateDrops++
		return
	}
	if b.any && b.live != a.Thread {
		b.Flush()
	}
	buf := b.buf(a.Thread)
	if *buf == nil {
		*buf = getAccessBuf(b.size)
	}
	*buf = append(*buf, a)
	b.live = a.Thread
	b.any = true
	if len(*buf) >= b.size {
		b.Flush()
	}
}

// AccessBatch implements BatchSink (an already-batched producer short-
// circuits through, after flushing pending accesses).
func (b *Batcher) AccessBatch(batch []Access) {
	if b.closed {
		b.lateDrops += uint64(len(batch))
		return
	}
	for _, a := range batch {
		b.Access(a)
	}
}

// ThreadStarted implements Sink.
func (b *Batcher) ThreadStarted(child, parent ThreadID) {
	b.Flush()
	b.sink.ThreadStarted(child, parent)
}

// ThreadFinished implements Sink.
func (b *Batcher) ThreadFinished(t ThreadID) {
	b.Flush()
	b.sink.ThreadFinished(t)
}

// Joined implements Sink.
func (b *Batcher) Joined(joiner, joinee ThreadID) {
	b.Flush()
	b.sink.Joined(joiner, joinee)
}

// MonitorEnter implements Sink.
func (b *Batcher) MonitorEnter(t ThreadID, lock ObjID, depth int) {
	b.Flush()
	b.sink.MonitorEnter(t, lock, depth)
}

// MonitorExit implements Sink.
func (b *Batcher) MonitorExit(t ThreadID, lock ObjID, depth int) {
	b.Flush()
	b.sink.MonitorExit(t, lock, depth)
}
