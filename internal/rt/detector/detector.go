// Package detector composes the paper's full runtime stack — join
// pseudolocks (§2.3), the ownership filter (§7), the per-thread access
// caches (§4), and the trie-based weaker-than detector (§3) — behind
// the event.Sink interface the interpreter feeds.
//
// The pipeline has two halves. One filter front end (front.go) decides
// which accesses reach the trie; one trie stage records and reports
// them. Per access:
//
//	cache lookup → [hit: done]
//	ownership filter → [owned: cache insert, done; owned→shared:
//	                    evict location from all caches]
//	materialize lockset → survivor sink (trie stage:
//	                      weakness check → race check → update)
//	cache insert
//
// The serial Detector runs the trie stage inline as the front end's
// survivor sink; Sharded (sharded.go) puts a router there that ships
// survivors to per-shard trie stages on worker goroutines.
//
// Reporting follows Definition 1: the detector reports at least one
// racing access for every memory location involved in a datarace
// (deduplicated per location by default).
package detector

import (
	"fmt"
	"maps"
	"sort"

	"racedet/internal/rt/cache"
	"racedet/internal/rt/event"
	"racedet/internal/rt/trie"
)

// Options selects which layers run; the zero value is the paper's
// "Full" runtime configuration.
type Options struct {
	// NoCache disables the §4 runtime optimizer (Table 2 "NoCache").
	NoCache bool
	// NoOwnership disables the §7 ownership filter (Table 3
	// "NoOwnership"): every location starts shared.
	NoOwnership bool
	// FieldsMerged collapses all instance fields (and the array
	// pseudo-field) of an object into one location (Table 3
	// "FieldsMerged"). Static fields of the same class stay distinct,
	// as in the paper.
	FieldsMerged bool
	// NoPseudoLocks disables the §2.3 join pseudolocks; used to
	// demonstrate the mtrt I/O-statistics false positive that
	// single-common-lock detectors report (§8.3).
	NoPseudoLocks bool
	// NoTBot stores exact thread sets in trie nodes instead of
	// collapsing to t⊥ (space ablation; see DESIGN.md §4).
	NoTBot bool
	// PackedTrie uses the §8.2 multi-location trie (one trie per
	// object, per-slot lattice entries) instead of one trie per
	// location. Mutually exclusive with NoTBot.
	PackedTrie bool
	// ReportAll reports every racing access event rather than one per
	// location (closer to FullRace; quadratic in the worst case).
	ReportAll bool
	// MaxTrieNodes bounds trie history memory (0 = unbounded). Over
	// budget, whole per-location histories collapse to a conservative
	// summary that reports strictly more races, never fewer. Only the
	// default per-location trie honors the bound; PackedTrie and NoTBot
	// ignore it (they are ablation configurations).
	MaxTrieNodes int
	// MaxCacheThreads bounds the number of live per-thread access
	// caches (0 = unbounded); over budget the least recently used
	// thread's caches are discarded (pure filtering loss).
	MaxCacheThreads int
	// MaxOwnerLocations bounds the ownership table (0 = unbounded);
	// overflow locations are treated as born-shared.
	MaxOwnerLocations int
	// DescribeObj renders an object for reports (e.g. "TspSolver#3
	// allocated at tsp.mj:12:9"); optional.
	DescribeObj func(event.ObjID) string

	// JournalCap enables fault tolerance in the sharded back end: each
	// shard keeps a bounded write-ahead journal of up to this many
	// routed messages and checkpoints its state when the journal fills,
	// so a panicked worker can be restarted from the checkpoint and
	// replayed (see supervise.go). 0 disables journaling — a worker
	// panic then surfaces through Err, the pre-supervision behavior.
	// The serial detector ignores it.
	JournalCap int
	// RetryBudget is the number of restart attempts per shard before
	// the shard degrades to the Eraser lockset path instead of failing
	// the run (meaningful only with JournalCap > 0). 0 degrades on the
	// first panic; the degradation is counted in Stats.Recovery.
	RetryBudget int
	// QueueDepth bounds each shard's router→worker queue in messages
	// (0 = DefaultQueueDepth). A full queue blocks the router unless
	// DropOnBackpressure is set, so a slow or restarting worker can
	// never grow router memory without bound.
	QueueDepth int
	// DropOnBackpressure drops access batches — with accounting in
	// Stats.Recovery — instead of blocking when a shard queue is full.
	// Dropped batches are pure detection loss (the run may then under-
	// report); control messages are never dropped, so the cache layers
	// stay sound. Off by default: blocking preserves byte-equivalence.
	DropOnBackpressure bool
	// Faults installs deterministic fault-injection hooks on the
	// sharded back end's hot paths (see internal/faultinject); nil in
	// production.
	Faults FaultInjector
}

// Report describes one reported datarace: the access that triggered
// the report plus what is known about a prior conflicting access.
type Report struct {
	Access      event.Access
	PriorThread event.ThreadID // may be t⊥ (§3.1)
	PriorLocks  event.Lockset
	PriorKind   event.Kind
	ObjDesc     string

	seq uint64 // detection-order stamp: the Shipped count at this access
}

func (r Report) String() string {
	prior := fmt.Sprintf("earlier %s by %s locks=%s", r.PriorKind, r.PriorThread, r.PriorLocks)
	desc := ""
	if r.ObjDesc != "" {
		desc = " on " + r.ObjDesc
	}
	return fmt.Sprintf("DATARACE %s (%s by %s locks=%s at %s)%s; %s",
		r.Access.FieldName, r.Access.Kind, r.Access.Thread, r.Access.Locks, r.Access.Pos, desc, prior)
}

// Stats aggregates work counters across the layers.
type Stats struct {
	Accesses   uint64 // trace events received
	CacheHits  uint64
	OwnerSkips uint64 // accesses absorbed by the ownership filter
	// Shipped counts accesses delivered to the trie stage — the
	// detection work the filter layers could not absorb. The accounting
	// invariant, under every Options:
	//
	//	Accesses == Shipped + CacheHits + OwnerSkips
	Shipped uint64
	// Sample is a compatibility shim for the removed per-site sampling
	// layer: Suppressed is always zero. It remains only because the
	// repository benchmark still reads it, and can go together with that
	// read in the next change to the benchmark.
	Sample struct{ Suppressed uint64 }
	// OwnerLocations is the number of locations the ownership table
	// tracks — the detector-memory growth witness behind the paper's
	// mtrt/NoStatic out-of-memory observation.
	OwnerLocations int
	// OwnerOverflows counts accesses the bounded ownership table
	// forwarded as born-shared (0 in unbounded mode).
	OwnerOverflows uint64
	Trie           trie.Stats
	Cache          cache.Stats
	// Recovery quantifies the sharded back end's fault-tolerance work
	// (all zero for the serial detector and for undisturbed runs).
	Recovery RecoveryStats
}

// RecoveryStats accounts the fault-tolerant sharded back end's
// journal, checkpoint, restart, degradation, and backpressure
// activity. Non-zero DegradedShards or DroppedEvents mean the run's
// reports are best-effort for the affected shards; everything else is
// bookkeeping for runs that recovered exactly.
type RecoveryStats struct {
	// Journaled counts messages written to shard journals; Checkpoints
	// counts state snapshots taken; Replayed counts messages re-
	// delivered from journals during recovery.
	Journaled   uint64
	Checkpoints uint64
	Replayed    uint64
	// Restarts counts worker restart attempts after panics.
	Restarts uint64
	// CheckpointCorruptions counts restore attempts abandoned because
	// the checkpoint failed validation (each degrades the shard).
	CheckpointCorruptions uint64
	// DegradedShards counts shards that exhausted their retry budget
	// and fell back to the Eraser lockset path; DegradedEvents counts
	// the accesses that path handled.
	DegradedShards int
	DegradedEvents uint64
	// DroppedBatches/DroppedEvents count access batches discarded under
	// the drop backpressure policy; BackpressureStalls counts blocking
	// sends that found the queue full (including injected fullness).
	DroppedBatches     uint64
	DroppedEvents      uint64
	BackpressureStalls uint64
	// QueueHighWater is the maximum router-queue depth observed across
	// shards (in messages).
	QueueHighWater int
}

// history is the per-location access store: the per-location trie,
// its t⊥ ablation, or the §8.2 packed multi-location trie.
type history interface {
	Process(*event.Access) (bool, trie.RaceInfo)
	Stats() trie.Stats
	NodeCount() int
	LocationCount() int
}

// newHistory builds the history store opts selects, bounded to budget
// nodes (0 = unbounded; only the default per-location trie honors it),
// with it as the interner for reported locksets.
func newHistory(opts Options, budget int, it *event.Interner) history {
	var h history
	switch {
	case opts.PackedTrie:
		h = trie.NewPacked()
	case opts.NoTBot:
		h = trie.NewNoTBot()
	case budget > 0:
		h = trie.NewBounded(budget)
	default:
		h = trie.New()
	}
	if st, ok := h.(interface {
		SetInterner(*event.Interner)
	}); ok {
		st.SetInterner(it)
	}
	return h
}

// trieStage is the back half of the pipeline, shared by the serial
// detector and every shard worker: the history store plus per-location
// report deduplication. Reports carry their access's seq stamp, which
// is how the sharded back end merges its shards' reports into the
// serial detection order.
type trieStage struct {
	hist      history
	reportAll bool
	// describe renders ObjDesc at report time. Nil on shard workers:
	// DescribeObj reads the interpreter's heap, so the sharded back end
	// describes at merge time instead.
	describe func(event.ObjID) string

	reports     []Report
	reportedLoc map[event.Loc]struct{}
	reportedObj map[event.ObjID]struct{}
}

func newTrieStage(h history, reportAll bool) trieStage {
	return trieStage{
		hist:        h,
		reportAll:   reportAll,
		reportedLoc: make(map[event.Loc]struct{}),
		reportedObj: make(map[event.ObjID]struct{}),
	}
}

// ship implements survivorSink: run the trie and report a race.
func (ts *trieStage) ship(a *event.Access, seq uint64) {
	if race, info := ts.hist.Process(a); race {
		ts.record(Report{
			Access:      *a,
			PriorThread: info.PriorThread,
			PriorLocks:  info.PriorLocks,
			PriorKind:   info.PriorKind,
			seq:         seq,
		}, ts.reportAll)
	}
}

// record appends r unless its location already has a report and all
// is false (Definition 1: at least one report per racy location).
func (ts *trieStage) record(r Report, all bool) {
	loc := r.Access.Loc
	if _, dup := ts.reportedLoc[loc]; dup && !all {
		return
	}
	ts.reportedLoc[loc] = struct{}{}
	ts.reportedObj[loc.Obj] = struct{}{}
	if ts.describe != nil {
		r.ObjDesc = ts.describe(loc.Obj)
	}
	ts.reports = append(ts.reports, r)
}

// copyReports replaces the stage's report set with a deep copy of
// src's; the history is untouched.
func (ts *trieStage) copyReports(src *trieStage) {
	ts.reports = append([]Report(nil), src.reports...)
	ts.reportedLoc = maps.Clone(src.reportedLoc)
	ts.reportedObj = maps.Clone(src.reportedObj)
}

// clone deep-copies the stage (history included) for a checkpoint.
func (ts *trieStage) clone() trieStage {
	c := *ts
	c.hist = cloneHistory(ts.hist)
	c.copyReports(ts)
	return c
}

// sortedObjs returns the keys of objs in ascending order.
func sortedObjs(objs map[event.ObjID]struct{}) []event.ObjID {
	out := make([]event.ObjID, 0, len(objs))
	for o := range objs {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Detector is the serial back end: the filter front end with the trie
// stage running inline as its survivor sink.
type Detector struct {
	front
	stage trieStage
}

var _ event.BatchSink = (*Detector)(nil)

// New builds a detector with the given options.
func New(opts Options) *Detector {
	d := &Detector{front: newFront(opts)}
	d.stage = newTrieStage(newHistory(opts, opts.MaxTrieNodes, d.intern), opts.ReportAll)
	d.stage.describe = opts.DescribeObj
	d.out = &d.stage
	return d
}

// Interner exposes the per-run lockset intern table (read-only use:
// resolving LocksetIDs carried by reports).
func (d *Detector) Interner() *event.Interner { return d.intern }

// Err implements the Backend contract; the serial detector cannot fail
// asynchronously.
func (d *Detector) Err() error { return nil }

// Reports returns the datarace reports in detection order.
func (d *Detector) Reports() []Report { return d.stage.reports }

// SetDescribeObj installs the object renderer used in reports. The
// runner sets it after the interpreter (which owns the heap) exists.
func (d *Detector) SetDescribeObj(fn func(event.ObjID) string) { d.stage.describe = fn }

// RacyObjects returns the distinct objects named in reports, sorted —
// the quantity Table 3 counts.
func (d *Detector) RacyObjects() []event.ObjID { return sortedObjs(d.stage.reportedObj) }

// Stats returns the aggregated work counters.
func (d *Detector) Stats() Stats {
	s := d.filterStats()
	s.Trie = d.stage.hist.Stats()
	return s
}

// TrieNodeCount exposes the history size (space metric).
func (d *Detector) TrieNodeCount() int { return d.stage.hist.NodeCount() }

// TrieLocationCount exposes the number of locations with history.
func (d *Detector) TrieLocationCount() int { return d.stage.hist.LocationCount() }
