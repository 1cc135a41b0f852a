// Location-sharded parallel detection back end.
//
// Sharded is the serial detector's filter front end with a router as
// its survivor sink. The front end — running on the interpreter's
// goroutine, as the event.Sink — owns the cheap, high-hit-rate layers:
// the per-thread access caches (§4, including the inlined QuickCheck
// fast path) and the §7 ownership filter. Only survivors — the
// minority that actually needs trie work — reach the router, already
// lockset-materialized and stamped with their detection-order
// sequence number. The router batches them and pushes
// them over a bounded SPSC ring buffer to one of N worker goroutines
// chosen by hash(ObjID, slot). Each worker runs the shared trie stage
// for its share of the location space and nothing else, so workers
// never share mutable state and no control messages (lock releases,
// thread lifecycle) ever cross the rings.
//
// Determinism contract: the front end is the serial detector's, so
// the stream of trie-bound accesses is exactly the stream the serial
// trie processes. A location's accesses all hash to the same shard and
// arrive in stream order, so every per-location trie evolution is
// identical too. Reports keep their access's sequence number and are
// merged in sequence order, which is exactly the serial detection
// order; the merged reports are byte-identical to the serial ones
// (asserted corpus-wide by the differential tests).
//
// Allocation discipline: batch buffers are recycled. Each worker
// returns processed buffers to the router over a second SPSC ring
// (the freelist); the supervised variant, which must keep buffers
// alive in its write-ahead journal, recycles them when a checkpoint
// truncates the journal. Buffers that miss the freelist fall back to
// a package-level pool shared across runs, so steady-state routing
// allocates nothing.
//
// Bounded-memory options: MaxCacheThreads and MaxOwnerLocations bound
// the front end's single cache and ownership table. Only MaxTrieNodes
// is split evenly across shards; bounded-trie collapse decisions then
// depend on per-shard occupancy, so that configuration trades the
// byte-equivalence guarantee for the usual "strictly over-reports,
// never misses" degradation.
package detector

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"racedet/internal/rt/event"
	"racedet/internal/rt/journal"
	"racedet/internal/rt/spsc"
	"racedet/internal/rt/trie"
)

// DefaultQueueDepth is the per-shard router→worker ring capacity in
// batches when Options.QueueDepth is zero.
const DefaultQueueDepth = 8

// Backend is what the pipeline needs from a detection back end; both
// the serial Detector and Sharded satisfy it.
type Backend interface {
	event.Sink
	Reports() []Report
	RacyObjects() []event.ObjID
	Stats() Stats
	TrieNodeCount() int
	TrieLocationCount() int
	SetDescribeObj(func(event.ObjID) string)
	// Err reports an asynchronous back-end failure (a worker panic);
	// valid after the run completes.
	Err() error
}

var (
	_ Backend = (*Detector)(nil)
	_ Backend = (*Sharded)(nil)
)

// shardAccess is one routed access: the event — lockset already
// materialized by the front end — plus its detection-order stamp for
// the deterministic report merge.
type shardAccess struct {
	a   event.Access
	seq uint64
}

// shardBatch is the unit that crosses a shard ring: a run of routed
// accesses in stream order. (All control events are absorbed by the
// front end's cache and lock tracker; only access batches ever reach a
// worker.)
type shardBatch = []shardAccess

// batchPool recycles batch buffers across runs: buffers that miss a
// ring freelist at recycle time, and every buffer still owned at
// finalize, land here instead of in the garbage collector.
var batchPool = sync.Pool{New: func() any { return shardBatch(nil) }}

// getBatch returns an empty buffer with capacity >= want.
func getBatch(want int) shardBatch {
	b := batchPool.Get().(shardBatch)
	if cap(b) < want {
		return make(shardBatch, 0, want)
	}
	return b[:0]
}

// putBatch returns a buffer to the cross-run pool. Elements are
// cleared first so a pooled buffer cannot pin a dead run's interned
// locksets or report strings.
func putBatch(b shardBatch) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = shardAccess{}
	}
	batchPool.Put(b[:0])
}

// worker owns one shard's trie slice. All fields are goroutine-local;
// the router communicates only through the two rings.
type worker struct {
	idx     int
	nshards int
	opts    Options
	ring    *spsc.Ring[shardBatch] // router → worker: routed batches
	free    *spsc.Ring[shardBatch] // worker → router: recycled buffers
	stage   trieStage
	err     error

	// Supervision state (see supervise.go); journal is nil when
	// Options.JournalCap == 0 and the worker runs unsupervised.
	journal  *journal.Log[shardBatch]
	ckpt     journal.Checkpoint[workerSnapshot]
	events   uint64 // accesses processed, the fault-hook index
	rec      RecoveryStats
	degraded *degradedShard // non-nil once the shard fell back to Eraser
}

// Sharded is the parallel Backend: the filter front end (event.Sink,
// BatchSink and the interpreter's QuickCheck fast path, on the producer
// side) with the router as its survivor sink. Results become available
// once the event stream ends (the first result accessor finalizes the
// run).
type Sharded struct {
	front
	workers []*worker
	pending []shardBatch // per-shard router-side batch buffers
	batch   int

	// Router-side backpressure accounting (producer goroutine only
	// until finalize merges it into the result's Recovery stats).
	depthHigh []int // per-shard ring high-water mark, in batches
	dropped   uint64
	droppedEv uint64
	stalls    uint64

	wg  sync.WaitGroup
	fin sync.Once

	reports []Report
	objs    []event.ObjID
	merged  Stats
	nodes   int
	locs    int
	err     error
}

// NewSharded builds a back end with n location-sharded workers
// (n >= 1) that consume access batches of up to batchSize events
// (<= 0 selects event.DefaultBatchSize). Options are interpreted as
// in New; the trie memory bound is split evenly across shards.
func NewSharded(opts Options, n, batchSize int) *Sharded {
	if n < 1 {
		n = 1
	}
	if batchSize <= 0 {
		batchSize = event.DefaultBatchSize
	}
	s := &Sharded{
		front:     newFront(opts),
		pending:   make([]shardBatch, n),
		batch:     batchSize,
		depthHigh: make([]int, n),
	}
	s.out = s
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	for i := 0; i < n; i++ {
		w := &worker{
			idx:     i,
			nshards: n,
			opts:    opts,
			ring:    spsc.New[shardBatch](depth),
			// One spare lap of freelist slots beyond the ring depth:
			// every buffer in flight has a place to come home to, so
			// in steady state the freelist never overflows into the
			// pool.
			free: spsc.New[shardBatch](depth + 2),
		}
		w.freshState()
		if opts.JournalCap > 0 {
			w.journal = journal.New[shardBatch](opts.JournalCap)
		}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go w.run(&s.wg)
	}
	return s
}

// freshState (re)builds the worker's empty trie slice; used at
// construction and when a restart finds no checkpoint to restore.
func (w *worker) freshState() {
	// Worker-local interner: workers must never touch the front end's
	// intern table, which the producer goroutine keeps mutating.
	h := newHistory(w.opts, splitBudget(w.opts.MaxTrieNodes, w.nshards), event.NewInterner())
	w.stage = newTrieStage(h, w.opts.ReportAll)
	w.events = 0
}

// splitBudget divides a global memory bound across n shards, never
// below 1 per shard (0 stays unbounded).
func splitBudget(total, n int) int {
	if total <= 0 {
		return 0
	}
	b := total / n
	if b < 1 {
		b = 1
	}
	return b
}

func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	if w.journal != nil {
		// Supervised: every batch is journaled before processing and a
		// panic restarts the worker from its checkpoint (supervise.go).
		// Buffers are recycled when a checkpoint truncates the journal,
		// not here.
		for {
			batch, ok := w.ring.Pop()
			if !ok {
				return
			}
			w.handleSupervised(batch)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			w.err = fmt.Errorf("detector shard %d: panic: %v", w.idx, r)
			// Keep draining so the router can never block on a full
			// ring after a shard dies.
			for {
				if _, ok := w.ring.Pop(); !ok {
					return
				}
			}
		}
	}()
	for {
		batch, ok := w.ring.Pop()
		if !ok {
			return
		}
		w.process(batch)
		w.recycle(batch)
	}
}

// process applies one routed batch to the shard's trie slice.
func (w *worker) process(batch shardBatch) {
	for i := range batch {
		w.access(&batch[i])
	}
}

// recycle hands a processed buffer back to the router via the
// freelist ring; when the freelist is full the buffer goes to the
// cross-run pool instead. Safe only once nothing references the
// buffer anymore (the trie and the reports copy what they keep).
func (w *worker) recycle(batch shardBatch) {
	if batch == nil {
		return
	}
	if !w.free.TryPush(batch[:0]) {
		putBatch(batch)
	}
}

// access runs one routed access through the shard's trie stage.
func (w *worker) access(sa *shardAccess) {
	w.events++
	if f := w.opts.Faults; f != nil {
		// Fault-injection hook: may sleep (slow worker) or panic. A
		// panic here is indistinguishable from a detector bug, which is
		// exactly what the supervision tests need.
		f.WorkerEvent(w.idx, w.events)
	}
	w.stage.ship(&sa.a, sa.seq)
}

// shardOf hashes a location to a worker, using the same mixing
// constants as the access cache so related locations spread evenly.
func shardOf(loc event.Loc, n int) int {
	h := uint64(loc.Obj)*0x9E3779B97F4A7C15 + uint64(uint32(loc.Slot))*0x85EBCA6B
	return int((h >> 32) % uint64(n))
}

// ---------------------------------------------------------------------------
// router (the front end's survivor sink)

var _ event.BatchSink = (*Sharded)(nil)

// acquireBatch hands the router an empty buffer for shard i:
// freelist first (a buffer the worker already processed), then the
// cross-run pool.
func (s *Sharded) acquireBatch(i int) shardBatch {
	if b, ok := s.workers[i].free.TryPop(); ok {
		return b
	}
	return getBatch(s.batch)
}

func (s *Sharded) flushShard(i int) {
	if len(s.pending[i]) == 0 {
		return
	}
	w := s.workers[i]
	if d := w.ring.Len(); d > s.depthHigh[i] {
		s.depthHigh[i] = d
	}
	full := w.ring.Full()
	if f := s.opts.Faults; f != nil && f.QueueFull(i) {
		full = true
	}
	if full {
		if s.opts.DropOnBackpressure {
			// Lossy policy: batches may be dropped, but every loss is
			// accounted, so a run can report exactly what it skipped.
			s.dropped++
			s.droppedEv += uint64(len(s.pending[i]))
			s.pending[i] = s.pending[i][:0]
			return
		}
		// Default policy: block until the worker drains (Push parks the
		// router only while the ring is actually full). Counted so
		// operators can see router stalls and resize the rings.
		s.stalls++
	}
	w.ring.Push(s.pending[i])
	s.pending[i] = nil
}

// ship implements survivorSink — the router: append the survivor to
// its shard's pending batch, flushing the batch when it is full.
func (s *Sharded) ship(a *event.Access, seq uint64) {
	i := shardOf(a.Loc, len(s.workers))
	if s.pending[i] == nil {
		s.pending[i] = s.acquireBatch(i)
	}
	s.pending[i] = append(s.pending[i], shardAccess{a: *a, seq: seq})
	if len(s.pending[i]) >= s.batch {
		s.flushShard(i)
	}
}

// ---------------------------------------------------------------------------
// results (merge side)

// finalize ends the event stream: flush, close the rings, wait for
// the workers, and merge their results deterministically. Idempotent
// and safe under concurrent result accessors (sync.Once); triggered
// by the first accessor after the run.
func (s *Sharded) finalize() { s.fin.Do(s.doFinalize) }

func (s *Sharded) doFinalize() {
	// Final flush always blocks: the workers are about to drain their
	// rings to completion, so the push cannot deadlock, and dropping
	// the tail of the stream under the lossy policy would be pure loss.
	for i := range s.pending {
		if len(s.pending[i]) > 0 {
			s.workers[i].ring.Push(s.pending[i])
			s.pending[i] = nil
		}
	}
	for _, w := range s.workers {
		w.ring.Close()
	}
	s.wg.Wait()

	var errs []error
	objSet := make(map[event.ObjID]struct{})
	// The filter layers live in the front end, so its stats are the
	// serial back end's exactly.
	s.merged = s.filterStats()
	rec := &s.merged.Recovery
	rec.DroppedBatches = s.dropped
	rec.DroppedEvents = s.droppedEv
	rec.BackpressureStalls = s.stalls
	for i, w := range s.workers {
		if w.err != nil {
			errs = append(errs, w.err)
		}
		if s.depthHigh[i] > rec.QueueHighWater {
			rec.QueueHighWater = s.depthHigh[i]
		}
		rec.Restarts += w.rec.Restarts
		rec.Checkpoints += w.rec.Checkpoints
		rec.CheckpointCorruptions += w.rec.CheckpointCorruptions
		if w.degraded != nil {
			rec.DegradedShards++
		}
		rec.DegradedEvents += w.rec.DegradedEvents
		if w.journal != nil {
			js := w.journal.Stats()
			rec.Journaled += js.Appended
			rec.Replayed += js.Replayed
		}
		s.reports = append(s.reports, w.stage.reports...)
		maps.Copy(objSet, w.stage.reportedObj)
		addTrieStats(&s.merged.Trie, w.stage.hist.Stats())
		s.nodes += w.stage.hist.NodeCount()
		s.locs += w.stage.hist.LocationCount()
		// Drain the freelist into the cross-run pool: the next run's
		// router starts with warm buffers instead of fresh allocations.
		for {
			b, ok := w.free.TryPop()
			if !ok {
				break
			}
			putBatch(b)
		}
	}
	// All worker failures are preserved, not just the first: a run that
	// lost several shards should say so.
	s.err = errors.Join(errs...)
	// Sequence order is the serial back end's detection order.
	sort.Slice(s.reports, func(i, j int) bool { return s.reports[i].seq < s.reports[j].seq })
	if s.opts.DescribeObj != nil {
		for i := range s.reports {
			s.reports[i].ObjDesc = s.opts.DescribeObj(s.reports[i].Access.Loc.Obj)
		}
	}
	s.objs = sortedObjs(objSet)
}

func addTrieStats(dst *trie.Stats, src trie.Stats) {
	dst.Events += src.Events
	dst.WeaknessHits += src.WeaknessHits
	dst.RaceChecks += src.RaceChecks
	dst.NodesVisited += src.NodesVisited
	dst.Races += src.Races
	dst.NodesAllocated += src.NodesAllocated
	dst.NodesPruned += src.NodesPruned
	dst.LocationsStored += src.LocationsStored
	dst.Collapses += src.Collapses
	dst.NodesCollapsed += src.NodesCollapsed
	dst.CollapseHits += src.CollapseHits
}

// Reports implements Backend: the merged reports, in the serial
// detection order.
func (s *Sharded) Reports() []Report {
	s.finalize()
	return s.reports
}

// RacyObjects implements Backend.
func (s *Sharded) RacyObjects() []event.ObjID {
	s.finalize()
	return s.objs
}

// Stats implements Backend: the front end's filter counters plus the trie
// counters aggregated across shards.
func (s *Sharded) Stats() Stats {
	s.finalize()
	return s.merged
}

// TrieNodeCount implements Backend.
func (s *Sharded) TrieNodeCount() int {
	s.finalize()
	return s.nodes
}

// TrieLocationCount implements Backend.
func (s *Sharded) TrieLocationCount() int {
	s.finalize()
	return s.locs
}

// SetDescribeObj implements Backend. The renderer runs only at merge
// time, after the interpreter has finished, so it may read the heap.
func (s *Sharded) SetDescribeObj(fn func(event.ObjID) string) { s.opts.DescribeObj = fn }

// Err implements Backend: every unrecovered worker failure, joined.
// Supervised shards that recovered (or degraded to the Eraser path)
// contribute nothing here — the run completed and Stats().Recovery
// tells the story. Safe under concurrent polling: finalization runs
// exactly once and s.err is written before the Once releases waiters.
func (s *Sharded) Err() error {
	s.finalize()
	return s.err
}
