package detector

import (
	"racedet/internal/rt/cache"
	"racedet/internal/rt/event"
	"racedet/internal/rt/ownership"
)

// survivorSink is where the front end sends every access that survives
// its filter layers, with the merged location and the lock environment
// already materialized. seq is the access's detection-order stamp (the
// running Shipped count). The serial detector's sink is its trie stage;
// the sharded back end's is its router. The event goes by value, so it
// never escapes to the heap.
type survivorSink interface {
	ship(a event.Access, seq uint64)
}

// front is the filter front end both back ends share. It implements
// event.Sink, event.BatchSink and the interpreter's QuickCheck fast
// path; it owns the lock tracker and the cache and ownership layers,
// runs them synchronously in event order, and hands only survivors to
// its survivor sink. Because both back ends run this one front end,
// their filter state and stats — and the stream of trie-bound
// accesses — are identical by construction.
type front struct {
	opts Options

	intern *event.Interner
	locks  *event.LockTracker
	cache  *cache.Cache
	owner  *ownership.Table
	stats  Stats // filter counters; Trie and Recovery stay zero
	out    survivorSink
}

func newFront(opts Options) front {
	it := event.NewInterner()
	f := front{
		opts:   opts,
		intern: it,
		locks:  event.NewLockTrackerInterned(it),
		cache:  cache.New(),
		owner:  ownership.New(),
	}
	if opts.MaxCacheThreads > 0 {
		f.cache = cache.NewBounded(opts.MaxCacheThreads)
	}
	if opts.MaxOwnerLocations > 0 {
		f.owner = ownership.NewBounded(opts.MaxOwnerLocations)
	}
	return f
}

// filterStats returns the filter counters together with the ownership
// and cache tables' own stats.
func (f *front) filterStats() Stats {
	s := f.stats
	s.OwnerLocations = f.owner.Locations()
	s.OwnerOverflows = f.owner.Overflows()
	s.Cache = f.cache.Stats()
	return s
}

// ---------------------------------------------------------------------------
// event.Sink implementation

// ThreadStarted implements event.Sink.
func (f *front) ThreadStarted(child, parent event.ThreadID) {
	if !f.opts.NoPseudoLocks {
		f.locks.ThreadStarted(child, parent)
	}
}

// ThreadFinished implements event.Sink.
func (f *front) ThreadFinished(t event.ThreadID) {
	if !f.opts.NoPseudoLocks {
		f.locks.ThreadFinished(t)
	}
	f.cache.ThreadFinished(t)
}

// Joined implements event.Sink.
func (f *front) Joined(joiner, joinee event.ThreadID) {
	if !f.opts.NoPseudoLocks {
		f.locks.Joined(joiner, joinee)
	}
}

// MonitorEnter implements event.Sink. The trie stage sees the new lock
// environment through the locksets attached to later survivors.
func (f *front) MonitorEnter(t event.ThreadID, lock event.ObjID, depth int) {
	f.locks.MonitorEnter(t, lock, depth)
}

// MonitorExit implements event.Sink. Releasing a lock evicts the
// cache entries whose locksets contain it; reentrant exits are
// ignored, matching §4.2's note on nested locks.
func (f *front) MonitorExit(t event.ThreadID, lock event.ObjID, depth int) {
	f.locks.MonitorExit(t, lock, depth)
	if depth == 0 && !f.opts.NoCache {
		f.cache.LockReleased(t, lock)
	}
}

// mergeLoc applies FieldsMerged: instance fields and the array
// pseudo-slot (Slot >= ArraySlot) collapse to one location per object;
// static slots (Slot <= StaticSlotBase) stay distinct, as in the paper.
func (f *front) mergeLoc(loc event.Loc) event.Loc {
	if f.opts.FieldsMerged && loc.Slot >= event.ArraySlot {
		loc.Slot = 0
	}
	return loc
}

// QuickCheck is the inlined fast path of the §4 runtime optimizer:
// the paper compiles the cache lookup into the instrumented code so a
// hit never calls into the detector. The interpreter calls it before
// materializing a full access event; true means the access was
// absorbed by the cache.
func (f *front) QuickCheck(t event.ThreadID, loc event.Loc, kind event.Kind) bool {
	if f.opts.NoCache {
		return false
	}
	if f.cache.Lookup(t, f.mergeLoc(loc), kind) {
		f.stats.Accesses++
		f.stats.CacheHits++
		return true
	}
	return false
}

// filter runs the filter layers — cache lookup, then ownership — on a
// merged location and reports whether the access survives to the trie
// stage. Absorbed accesses are fully accounted (including the
// owner-skip cache insert) before it returns.
func (f *front) filter(t event.ThreadID, loc event.Loc, kind event.Kind) bool {
	f.stats.Accesses++
	if !f.opts.NoCache && f.cache.Lookup(t, loc, kind) {
		f.stats.CacheHits++
		return false
	}
	if f.opts.NoOwnership {
		return true
	}
	forward, becameShared := f.owner.Filter(t, loc)
	if becameShared && !f.opts.NoCache {
		f.cache.EvictLocation(loc)
	}
	if !forward {
		f.stats.OwnerSkips++
		f.cacheInsert(t, loc, kind)
	}
	return forward
}

// cacheInsert records an absorbed or shipped access in t's cache so
// equal-or-stronger repeats short-circuit.
func (f *front) cacheInsert(t event.ThreadID, loc event.Loc, kind event.Kind) {
	if !f.opts.NoCache {
		top, ok := f.locks.Top(t)
		f.cache.Insert(t, loc, kind, top, ok)
	}
}

// deliver ships a filter survivor: materialize its merged location and
// (interned) lockset, hand the event by value to the survivor sink, and
// cache it. The caller's *a is never mutated.
func (f *front) deliver(a *event.Access, loc event.Loc) {
	f.stats.Shipped++
	s := *a
	s.Loc = loc
	s.Locks = f.locks.Held(s.Thread) // immutable canonical slice
	s.LockID = f.locks.HeldID(s.Thread)
	f.out.ship(s, f.stats.Shipped)
	f.cacheInsert(s.Thread, loc, s.Kind)
}

// Access implements event.Sink: the full per-access pipeline. The
// interpreter only calls it after QuickCheck missed, so the cache
// lookup here is a second (cheap) miss except for sinks that do not
// use the fast path.
func (f *front) Access(a event.Access) {
	loc := f.mergeLoc(a.Loc)
	if f.filter(a.Thread, loc, a.Kind) {
		f.deliver(&a, loc)
	}
}

// AccessBatch implements event.BatchSink: a batch is a run of accesses
// by one thread under one lock environment, so the tracker's memoized
// lockset is computed at most once for the whole batch. Iterating by
// pointer keeps the hot filter free of the per-element 96-byte copy
// that calling Access in a loop would cost; the event is copied only
// for survivors. The batch slice itself is never retained or mutated
// (MultiSink hands the same slice to every batch-aware child).
func (f *front) AccessBatch(batch []event.Access) {
	for i := range batch {
		a := &batch[i]
		loc := f.mergeLoc(a.Loc)
		if f.filter(a.Thread, loc, a.Kind) {
			f.deliver(a, loc)
		}
	}
}
