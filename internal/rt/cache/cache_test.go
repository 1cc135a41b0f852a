package cache

import (
	"math/rand"
	"testing"

	"racedet/internal/rt/event"
)

func loc(o int64, s int32) event.Loc { return event.Loc{Obj: event.ObjID(o), Slot: s} }

func TestHitAfterInsert(t *testing.T) {
	c := New()
	l := loc(1, 0)
	if c.Lookup(0, l, event.Read) {
		t.Fatal("empty cache cannot hit")
	}
	c.Insert(0, l, event.Read, 0, false)
	if !c.Lookup(0, l, event.Read) {
		t.Fatal("expected hit after insert")
	}
}

func TestReadWriteCachesSeparate(t *testing.T) {
	c := New()
	l := loc(1, 0)
	c.Insert(0, l, event.Read, 0, false)
	if c.Lookup(0, l, event.Write) {
		t.Fatal("a cached read must not satisfy a write lookup")
	}
	c.Insert(0, l, event.Write, 0, false)
	if !c.Lookup(0, l, event.Write) || !c.Lookup(0, l, event.Read) {
		t.Fatal("both kinds should now hit")
	}
}

func TestCachesArePerThread(t *testing.T) {
	c := New()
	l := loc(1, 0)
	c.Insert(0, l, event.Read, 0, false)
	if c.Lookup(1, l, event.Read) {
		t.Fatal("thread 1 must not see thread 0's entries")
	}
}

func TestLockReleaseEviction(t *testing.T) {
	c := New()
	l1, l2, l3 := loc(1, 0), loc(2, 0), loc(3, 0)
	// l1 cached with no locks; l2 under lock A; l3 under locks A,B
	// (B innermost).
	c.Insert(0, l1, event.Read, 0, false)
	c.Insert(0, l2, event.Read, 100, true)
	c.Insert(0, l3, event.Read, 200, true)
	// Releasing B evicts only l3.
	c.LockReleased(0, 200)
	if c.Lookup(0, l3, event.Read) {
		t.Fatal("l3 should be evicted by releasing its innermost lock")
	}
	if !c.Lookup(0, l2, event.Read) || !c.Lookup(0, l1, event.Read) {
		t.Fatal("l1/l2 must survive releasing B")
	}
	// Releasing A evicts l2; l1 (no locks) survives forever.
	c.LockReleased(0, 100)
	if c.Lookup(0, l2, event.Read) {
		t.Fatal("l2 should be evicted by releasing A")
	}
	if !c.Lookup(0, l1, event.Read) {
		t.Fatal("lock-free entries are never evicted by releases")
	}
}

func TestEvictLocationClearsAllThreads(t *testing.T) {
	c := New()
	l := loc(9, 2)
	c.Insert(0, l, event.Read, 0, false)
	c.Insert(1, l, event.Write, 100, true)
	c.EvictLocation(l)
	if c.Lookup(0, l, event.Read) || c.Lookup(1, l, event.Write) {
		t.Fatal("EvictLocation must clear every thread's entries")
	}
	// The eviction list must stay consistent: releasing the lock later
	// must not corrupt anything.
	c.LockReleased(1, 100)
	c.Insert(1, l, event.Write, 100, true)
	if !c.Lookup(1, l, event.Write) {
		t.Fatal("cache unusable after EvictLocation + LockReleased")
	}
}

func TestConflictEvictionUnlinks(t *testing.T) {
	c := New()
	// Craft two locations that collide in the direct-mapped index.
	base := loc(1, 0)
	idx := index(base)
	var clash event.Loc
	found := false
	for o := int64(2); o < 100000; o++ {
		clash = loc(o, 0)
		if index(clash) == idx {
			found = true
			break
		}
	}
	if !found {
		t.Skip("no colliding location found in range")
	}
	c.Insert(0, base, event.Read, 100, true)
	c.Insert(0, clash, event.Read, 100, true) // evicts base by conflict
	if c.Lookup(0, base, event.Read) {
		t.Fatal("conflict eviction failed")
	}
	if !c.Lookup(0, clash, event.Read) {
		t.Fatal("new entry missing")
	}
	// Release must evict clash and not crash on the unlinked base.
	c.LockReleased(0, 100)
	if c.Lookup(0, clash, event.Read) {
		t.Fatal("release eviction after conflict failed")
	}
}

func TestThreadFinishedDropsCaches(t *testing.T) {
	c := New()
	l := loc(1, 0)
	c.Insert(2, l, event.Read, 0, false)
	c.ThreadFinished(2)
	if c.Lookup(2, l, event.Read) {
		t.Fatal("finished thread's cache must be gone")
	}
}

// TestPolicyInvariant drives a random schedule of accesses and lock
// operations through the cache alongside a reference model and checks
// the §4.2 guarantee: whenever Lookup hits, the reference confirms a
// previous access with the same (thread, location, kind) whose lockset
// is a subset of the thread's current lockset.
func TestPolicyInvariant(t *testing.T) {
	type refEntry struct {
		loc   event.Loc
		kind  event.Kind
		locks event.Lockset
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		// Per-thread lock stacks (nested discipline) and reference logs.
		stacks := map[event.ThreadID][]event.ObjID{}
		logs := map[event.ThreadID][]refEntry{}

		heldSet := func(tid event.ThreadID) event.Lockset {
			return event.NewLockset(stacks[tid]...)
		}

		for step := 0; step < 3000; step++ {
			tid := event.ThreadID(rng.Intn(3))
			switch op := rng.Intn(10); {
			case op < 2: // acquire a lock (nested)
				lk := event.ObjID(100 + rng.Intn(5))
				already := false
				for _, l := range stacks[tid] {
					if l == lk {
						already = true
					}
				}
				if !already {
					stacks[tid] = append(stacks[tid], lk)
				}
			case op < 4: // release the innermost lock
				st := stacks[tid]
				if len(st) > 0 {
					lk := st[len(st)-1]
					stacks[tid] = st[:len(st)-1]
					c.LockReleased(tid, lk)
					// Reference: drop log entries whose locksets
					// contain the released lock.
					var kept []refEntry
					for _, e := range logs[tid] {
						if !e.locks.Contains(lk) {
							kept = append(kept, e)
						}
					}
					logs[tid] = kept
				}
			default: // access
				l := loc(int64(rng.Intn(6)+1), int32(rng.Intn(2)))
				kind := event.Read
				if rng.Intn(2) == 0 {
					kind = event.Write
				}
				if c.Lookup(tid, l, kind) {
					// Verify against the reference.
					ok := false
					cur := heldSet(tid)
					for _, e := range logs[tid] {
						if e.loc == l && e.kind == kind && e.locks.SubsetOf(cur) {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("seed %d step %d: cache hit for %v/%v by %v not justified by any prior weaker access",
							seed, step, l, kind, tid)
					}
				} else {
					st := stacks[tid]
					if len(st) > 0 {
						c.Insert(tid, l, kind, st[len(st)-1], true)
					} else {
						c.Insert(tid, l, kind, 0, false)
					}
					logs[tid] = append(logs[tid], refEntry{loc: l, kind: kind, locks: heldSet(tid)})
				}
			}
			checkLists(t, c, tid, stacks[tid])
		}
	}
}

// checkLists verifies tid's eviction lists: one list per lock, only
// for locks the thread holds, each non-empty, and every linked entry
// valid, filed under that lock and linked back to its predecessor.
func checkLists(t *testing.T, c *Cache, tid event.ThreadID, held []event.ObjID) {
	t.Helper()
	if int(tid) >= len(c.threads) || c.threads[tid] == nil {
		return
	}
	tc := c.threads[tid]
	seen := map[event.ObjID]bool{}
	for _, ll := range tc.lists {
		if seen[ll.lock] {
			t.Fatalf("thread %v: two lists for lock %v", tid, ll.lock)
		}
		seen[ll.lock] = true
		if !event.NewLockset(held...).Contains(ll.lock) {
			t.Fatalf("thread %v: list for released lock %v", tid, ll.lock)
		}
		if ll.head == 0 {
			t.Fatalf("thread %v: empty list for lock %v kept", tid, ll.lock)
		}
		prev := int32(0)
		for i := ll.head; i != 0; i = tc.slots[i-1].next {
			e := &tc.slots[i-1]
			if !e.valid || !e.hasL || e.lock != ll.lock || e.prev != prev {
				t.Fatalf("thread %v: lock %v list corrupt at slot %d: %+v", tid, ll.lock, i, *e)
			}
			prev = i
		}
	}
}

func TestStatsCount(t *testing.T) {
	c := New()
	l := loc(1, 0)
	c.Lookup(0, l, event.Read)
	c.Insert(0, l, event.Read, 0, false)
	c.Lookup(0, l, event.Read)
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}
