package detector

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"racedet/internal/faultinject"
	"racedet/internal/rt/event"
)

// feedRandom drives a sink through a pseudo-random but deterministic
// event stream with threads, locks, shared objects, and join edges —
// dense enough to exercise caches, ownership transitions, and the trie.
func feedRandom(s event.Sink, seed int64, events int) {
	rng := rand.New(rand.NewSource(seed))
	const nThreads = 4
	const nObjs = 12
	const nLocks = 3
	s.ThreadStarted(0, event.NoThread)
	for t := event.ThreadID(1); t < nThreads; t++ {
		s.ThreadStarted(t, 0)
	}
	held := make([][]event.ObjID, nThreads) // lock stacks per thread
	for i := 0; i < events; i++ {
		t := event.ThreadID(rng.Intn(nThreads))
		switch op := rng.Intn(10); {
		case op < 6: // access
			obj := event.ObjID(100 + rng.Intn(nObjs))
			slot := int32(rng.Intn(3))
			kind := event.Read
			if rng.Intn(2) == 0 {
				kind = event.Write
			}
			s.Access(event.Access{
				Loc:       event.Loc{Obj: obj, Slot: slot},
				Thread:    t,
				Kind:      kind,
				FieldName: "F.f",
			})
		case op < 8: // lock
			if len(held[t]) < 2 {
				l := event.ObjID(500 + rng.Intn(nLocks))
				dup := false
				for _, h := range held[t] {
					if h == l {
						dup = true
					}
				}
				if !dup {
					held[t] = append(held[t], l)
					s.MonitorEnter(t, l, 1)
				}
			}
		default: // unlock (LIFO)
			if n := len(held[t]); n > 0 {
				l := held[t][n-1]
				held[t] = held[t][:n-1]
				s.MonitorExit(t, l, 0)
			}
		}
	}
	for t := event.ThreadID(0); t < nThreads; t++ {
		for n := len(held[t]); n > 0; n-- {
			s.MonitorExit(t, held[t][n-1], 0)
		}
	}
	for t := event.ThreadID(1); t < nThreads; t++ {
		s.ThreadFinished(t)
		s.Joined(0, t)
	}
	s.ThreadFinished(0)
}

func reportStrings(b Backend) []string {
	var out []string
	for _, r := range b.Reports() {
		out = append(out, r.String())
	}
	return out
}

// TestShardedMatchesSerial is the back-end-level differential check:
// for several option sets, seeds, and shard counts, the sharded
// backend's merged reports must be byte-identical to the serial ones.
func TestShardedMatchesSerial(t *testing.T) {
	optSets := map[string]Options{
		"full":        {},
		"nocache":     {NoCache: true},
		"noownership": {NoOwnership: true},
		"reportall":   {ReportAll: true},
		"merged":      {FieldsMerged: true},
		"packed":      {PackedTrie: true},
	}
	for name, opts := range optSets {
		for seed := int64(0); seed < 5; seed++ {
			serial := New(opts)
			feedRandom(serial, seed, 3000)
			want := reportStrings(serial)
			wantObjs := serial.RacyObjects()
			for _, shards := range []int{1, 2, 8} {
				sh := NewSharded(opts, shards, 16)
				feedRandom(sh, seed, 3000)
				if err := sh.Err(); err != nil {
					t.Fatalf("%s/seed%d/%dshards: worker error: %v", name, seed, shards, err)
				}
				got := reportStrings(sh)
				if len(got) != len(want) {
					t.Fatalf("%s/seed%d/%dshards: %d reports, serial has %d\nsharded: %v\nserial: %v",
						name, seed, shards, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/seed%d/%dshards: report %d differs\nsharded: %s\nserial:  %s",
							name, seed, shards, i, got[i], want[i])
					}
				}
				gotObjs := sh.RacyObjects()
				if len(gotObjs) != len(wantObjs) {
					t.Fatalf("%s/seed%d/%dshards: racy objects %v, serial %v", name, seed, shards, gotObjs, wantObjs)
				}
				for i := range wantObjs {
					if gotObjs[i] != wantObjs[i] {
						t.Fatalf("%s/seed%d/%dshards: racy objects %v, serial %v", name, seed, shards, gotObjs, wantObjs)
					}
				}
			}
		}
	}
}

// TestShardedBatchedProducer checks the batched producer path: a
// Batcher in front of the sharded backend (the interpreter's BatchSize
// wiring) must not change the reports either.
func TestShardedBatchedProducer(t *testing.T) {
	serial := New(Options{})
	feedRandom(serial, 7, 3000)
	want := reportStrings(serial)

	sh := NewSharded(Options{}, 4, 8)
	b := event.NewBatcher(sh, 8)
	feedRandom(b, 7, 3000)
	b.Flush()
	if err := sh.Err(); err != nil {
		t.Fatalf("worker error: %v", err)
	}
	got := reportStrings(sh)
	if len(got) != len(want) {
		t.Fatalf("batched sharded: %d reports, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report %d differs\nbatched sharded: %s\nserial: %s", i, got[i], want[i])
		}
	}
}

// TestShardedStatsMatchSerial pins the strongest consequence of the
// shared front end: both back ends run the same filter layers in the
// same order, so every filter counter — and, since the trie-bound
// stream is identical, the summed trie counters too — matches the
// serial back end bit for bit, for every option the front end branches
// on. (MaxTrieNodes is left out: the sharded back end splits that
// budget by design.) Every run also keeps the filter accounting
// invariant: each access is shipped, a cache hit or an owner skip.
func TestShardedStatsMatchSerial(t *testing.T) {
	optSets := map[string]Options{
		"full":         {},
		"nocache":      {NoCache: true},
		"noownership":  {NoOwnership: true},
		"merged":       {FieldsMerged: true},
		"ownerbound":   {MaxOwnerLocations: 4},
		"cachethreads": {MaxCacheThreads: 1},
	}
	checkAccounting := func(label string, s Stats) {
		t.Helper()
		if s.Accesses == 0 || s.Accesses != s.Shipped+s.CacheHits+s.OwnerSkips {
			t.Fatalf("%s: accounting broken: accesses=%d shipped=%d cacheHits=%d ownerSkips=%d",
				label, s.Accesses, s.Shipped, s.CacheHits, s.OwnerSkips)
		}
	}
	for name, opts := range optSets {
		serial := New(opts)
		feedRandom(serial, 1, 2000)
		want := serial.Stats()
		checkAccounting(name+"/serial", want)
		for _, shards := range []int{1, 2, 8} {
			sh := NewSharded(opts, shards, 16)
			feedRandom(sh, 1, 2000)
			got := sh.Stats()
			checkAccounting(fmt.Sprintf("%s/%dshards", name, shards), got)
			got.Recovery = RecoveryStats{}
			if got != want {
				t.Fatalf("%s/%dshards: stats diverge from serial:\nsharded: %+v\nserial:  %+v", name, shards, got, want)
			}
			if sh.TrieNodeCount() != serial.TrieNodeCount() {
				t.Fatalf("%s/%dshards: trie nodes: sharded %d, serial %d", name, shards, sh.TrieNodeCount(), serial.TrieNodeCount())
			}
			if sh.TrieLocationCount() != serial.TrieLocationCount() {
				t.Fatalf("%s/%dshards: trie locations: sharded %d, serial %d", name, shards, sh.TrieLocationCount(), serial.TrieLocationCount())
			}
		}
	}
}

// TestShardedQuickCheckParity drives the inlined §4 fast path against
// both back ends with interleaved QuickCheck/Access calls, the way
// the interpreter does: hit/miss decisions, absorbed accesses, and
// final reports must all agree.
func TestShardedQuickCheckParity(t *testing.T) {
	serial := New(Options{})
	sh := NewSharded(Options{}, 4, 8)

	drive := func(qc interface {
		QuickCheck(event.ThreadID, event.Loc, event.Kind) bool
	}, s event.Sink) {
		s.ThreadStarted(0, event.NoThread)
		s.ThreadStarted(1, 0)
		for i := 0; i < 2000; i++ {
			th := event.ThreadID(i & 1)
			loc := event.Loc{Obj: event.ObjID(100 + i%7), Slot: int32(i % 3)}
			kind := event.Kind(i & 1)
			if qc.QuickCheck(th, loc, kind) {
				continue // absorbed, exactly like the interpreter
			}
			s.Access(event.Access{Loc: loc, Thread: th, Kind: kind, FieldName: "Q.f"})
		}
		s.ThreadFinished(1)
		s.ThreadFinished(0)
	}
	drive(serial, serial)
	drive(sh, sh)

	if err := sh.Err(); err != nil {
		t.Fatal(err)
	}
	want, got := reportStrings(serial), reportStrings(sh)
	compareReports(t, "quickcheck parity", got, want)
	ws, gs := serial.Stats(), sh.Stats()
	if gs.Accesses != ws.Accesses || gs.CacheHits != ws.CacheHits {
		t.Fatalf("fast-path counters diverge: sharded %+v, serial %+v", gs, ws)
	}
}

// TestShardedStarvedRing runs the differential check with ring depth
// 1 and tiny batches, forcing constant wraparound and park/unpark on
// both sides of every ring. Run under -race this is the ring-integration
// memory-ordering stress.
func TestShardedStarvedRing(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		serial := New(Options{})
		feedRandom(serial, seed, 3000)
		want := reportStrings(serial)

		sh := NewSharded(Options{QueueDepth: 1}, 4, 2)
		feedRandom(sh, seed, 3000)
		if err := sh.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		compareReports(t, "starved ring", reportStrings(sh), want)
	}
}

// TestPooledBuffersDoNotAliasReports pins the buffer-recycling
// contract: batch buffers are reused across flushes and across runs
// (the package pool), so an earlier run's reports must stay intact
// while a later run churns through recycled buffers. Reports hold
// value copies plus run-owned interned locksets; if anything ever
// pointed back into a recycled buffer, the second run would scribble
// over the first run's output.
func TestPooledBuffersDoNotAliasReports(t *testing.T) {
	first := NewSharded(Options{}, 2, 4)
	feedRandom(first, 11, 2000)
	before := reportStrings(first) // finalizes: buffers drain to the pool
	if len(before) == 0 {
		t.Fatal("scenario should produce reports")
	}

	for i := int64(0); i < 3; i++ {
		next := NewSharded(Options{}, 2, 4)
		feedRandom(next, 20+i, 2000)
		_ = next.Reports()
	}

	compareReports(t, "after pool reuse", reportStrings(first), before)
}

// TestShardedDescribeObjAtMerge verifies ObjDesc is filled during the
// deterministic merge, matching the serial reports.
func TestShardedDescribeObjAtMerge(t *testing.T) {
	desc := func(o event.ObjID) string { return "OBJ" + o.String() }

	serial := New(Options{NoOwnership: true})
	serial.SetDescribeObj(desc)
	feedRandom(serial, 3, 1000)

	sh := NewSharded(Options{NoOwnership: true}, 2, 16)
	sh.SetDescribeObj(desc)
	feedRandom(sh, 3, 1000)

	want, got := serial.Reports(), sh.Reports()
	if len(want) == 0 {
		t.Fatal("scenario should produce reports")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d reports, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ObjDesc == "" || got[i].ObjDesc != want[i].ObjDesc {
			t.Fatalf("report %d ObjDesc = %q, want %q", i, got[i].ObjDesc, want[i].ObjDesc)
		}
	}
}

// testInjector is a minimal FaultInjector for scenarios that need
// tighter control than the faultinject spec language offers.
type testInjector struct {
	slowEvery  uint64
	slowDelay  time.Duration
	queueFullN atomic.Int64
}

func (i *testInjector) WorkerEvent(shard int, n uint64) {
	if i.slowEvery > 0 && n%i.slowEvery == 0 {
		time.Sleep(i.slowDelay)
	}
}

func (i *testInjector) QueueFull(shard int) bool { return i.queueFullN.Add(-1) >= 0 }

func compareReports(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: report %d differs\ngot:  %s\nwant: %s", label, i, got[i], want[i])
		}
	}
}

// TestBlockPolicyStalls: injected queue fullness is counted as stalls
// and never drops anything — the reports stay byte-identical to serial.
func TestBlockPolicyStalls(t *testing.T) {
	serial := New(Options{})
	feedRandom(serial, 4, 3000)
	want := reportStrings(serial)

	inj := &testInjector{}
	inj.queueFullN.Store(25)
	sh := NewSharded(Options{QueueDepth: 2, Faults: inj}, 2, 8)
	feedRandom(sh, 4, 3000)
	if err := sh.Err(); err != nil {
		t.Fatalf("block-policy run failed: %v", err)
	}
	compareReports(t, "block policy", reportStrings(sh), want)
	if rec := sh.Stats().Recovery; rec.BackpressureStalls == 0 {
		t.Errorf("injected fullness produced no stall accounting: %+v", rec)
	}
}

// TestSlowWorkerStillExact: a slow shard exercises real queue
// backpressure (bounded depth) without changing any result.
func TestSlowWorkerStillExact(t *testing.T) {
	serial := New(Options{})
	feedRandom(serial, 6, 2000)
	want := reportStrings(serial)

	inj := &testInjector{slowEvery: 100, slowDelay: time.Millisecond}
	sh := NewSharded(Options{QueueDepth: 2, Faults: inj}, 2, 8)
	feedRandom(sh, 6, 2000)
	if err := sh.Err(); err != nil {
		t.Fatalf("slow-worker run failed: %v", err)
	}
	compareReports(t, "slow worker", reportStrings(sh), want)
}

// TestUnsupervisedPanicsAggregate: a worker panic is fatal for its
// shard, and Err must surface every failure, not just the first.
func TestUnsupervisedPanicsAggregate(t *testing.T) {
	plan, err := faultinject.Parse("panic:shard=0,event=20;panic:shard=1,event=20")
	if err != nil {
		t.Fatal(err)
	}
	sh := NewSharded(Options{Faults: plan}, 2, 8)
	feedRandom(sh, 1, 3000)
	got := sh.Err()
	if got == nil {
		t.Fatal("two dead shards but Err() == nil")
	}
	for _, frag := range []string{"shard 0", "shard 1"} {
		if !strings.Contains(got.Error(), frag) {
			t.Errorf("Err() = %q, missing %q", got, frag)
		}
	}
}

// TestErrConcurrentPolling: Err (and the other result accessors) must
// be safe to call from multiple goroutines — the first caller
// finalizes, the rest must neither race nor double-finalize.
func TestErrConcurrentPolling(t *testing.T) {
	sh := NewSharded(Options{}, 4, 16)
	feedRandom(sh, 8, 2000)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = sh.Err()
			_ = sh.Stats()
			_ = sh.Reports()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("poller %d: %v", i, err)
		}
	}
}
