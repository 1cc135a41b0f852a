package trie

import (
	"math/rand"
	"reflect"
	"testing"

	"racedet/internal/rt/event"
)

// locAcc is acc with an explicit location, for multi-location tests.
func locAcc(obj event.ObjID, t event.ThreadID, kind event.Kind, locks ...event.ObjID) *event.Access {
	return &event.Access{
		Loc:    event.Loc{Obj: obj, Slot: 0},
		Thread: t,
		Kind:   kind,
		Locks:  event.NewLockset(locks...),
	}
}

func TestBoundedBehavesLikeUnboundedUnderBudget(t *testing.T) {
	// With a generous budget the bounded detector must be bit-identical
	// to the unbounded one: same verdicts, no degradation counters.
	d1, d2 := New(), NewBounded(1<<20)
	events := []*event.Access{
		locAcc(1, 1, event.Write, 100),
		locAcc(1, 2, event.Write, 200),
		locAcc(2, 1, event.Read),
		locAcc(2, 2, event.Read),
		locAcc(3, 1, event.Write, 100, 300),
		locAcc(3, 2, event.Write, 100),
	}
	for i, e := range events {
		r1, _ := d1.Process(e)
		r2, _ := d2.Process(e)
		if r1 != r2 {
			t.Fatalf("event %d: unbounded=%v bounded=%v", i, r1, r2)
		}
	}
	s := d2.Stats()
	if s.Collapses != 0 || s.NodesCollapsed != 0 || s.CollapseHits != 0 {
		t.Errorf("under-budget run shows degradation: %+v", s)
	}
}

func TestBoundedCollapseNeverDropsRaces(t *testing.T) {
	// Drive the detector far over a tiny budget, then replay racy pairs
	// on fresh locations and on collapsed ones: every true race that the
	// unbounded detector reports must still be reported.
	d := NewBounded(8)
	// Fatten several locations with distinct-lock accesses so their
	// tries grow past the budget and collapses fire.
	for obj := event.ObjID(1); obj <= 6; obj++ {
		for l := event.ObjID(0); l < 5; l++ {
			d.Process(locAcc(obj, 1, event.Read, 100+l))
		}
	}
	s := d.Stats()
	if s.Collapses == 0 || s.NodesCollapsed == 0 {
		t.Fatalf("budget of 8 nodes never triggered a collapse: %+v", s)
	}

	// A collapsed location must now report a race for ANY access —
	// strictly more reporting than the truth, never less.
	race, info := d.Process(locAcc(1, 1, event.Read))
	if !race {
		t.Fatal("access to collapsed location not reported")
	}
	if info.PriorThread != event.TBot || info.PriorKind != event.Write {
		t.Errorf("collapsed summary should be (t⊥, WRITE): %+v", info)
	}
	if d.Stats().CollapseHits == 0 {
		t.Error("CollapseHits not counted")
	}

	// Genuine races on locations processed after the collapses are
	// still caught exactly.
	d.Process(locAcc(50, 1, event.Write, 100))
	if race, _ := d.Process(locAcc(50, 2, event.Write, 200)); !race {
		t.Fatal("real race missed after collapses")
	}
}

func TestBoundedStaysUnderBudget(t *testing.T) {
	// 8 locations × (root + 4 lock children) = 40 nodes unbounded; a
	// budget of 16 is reachable by collapsing six tries down to their
	// roots (every location keeps at least a root, so the floor is the
	// location count).
	const budget = 16
	d := NewBounded(budget)
	for obj := event.ObjID(1); obj <= 8; obj++ {
		for l := event.ObjID(0); l < 4; l++ {
			d.Process(locAcc(obj, event.ThreadID(1+l%2), event.Read, 100+l))
		}
	}
	if n := d.NodeCount(); n > budget {
		t.Errorf("live nodes %d exceed budget %d after enforcement", n, budget)
	}
	// The internal counter must agree with a fresh walk (accounting in
	// update/sweep/collapse is easy to get wrong silently).
	if d.liveNodes != d.NodeCount() {
		t.Errorf("liveNodes=%d but walk counts %d", d.liveNodes, d.NodeCount())
	}
}

func TestBoundedCollapsesLargestFirst(t *testing.T) {
	d := NewBounded(12)
	// Location 1: fat trie (5 distinct singleton locksets → 6 nodes).
	for l := event.ObjID(0); l < 5; l++ {
		d.Process(locAcc(1, 1, event.Read, 100+l))
	}
	// Locations 2..7: thin tries (1 node each), reaching the budget.
	for obj := event.ObjID(2); obj <= 7; obj++ {
		d.Process(locAcc(obj, 1, event.Read))
	}
	// Push over budget with one more thin location; the fat trie must be
	// the collapse victim while thin ones survive intact.
	d.Process(locAcc(8, 1, event.Read))
	if d.Stats().Collapses == 0 {
		t.Fatal("no collapse at 13 nodes with budget 12")
	}
	if race, _ := d.Process(locAcc(1, 1, event.Read)); !race {
		t.Error("fat location should have been collapsed")
	}
	if race, _ := d.Process(locAcc(2, 1, event.Read)); race {
		t.Error("thin location collapsed although the fat one sufficed")
	}
}

// TestBoundedSeedIndependent feeds one collapse-heavy stream to two
// bounded detectors. Their location tables draw different hash seeds,
// so they iterate in different orders; collapse victim choice must
// not depend on that order. Equal-sized tries are common in the stream,
// so the tie-break is what keeps the two runs identical.
func TestBoundedSeedIndependent(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d1, d2 := NewBounded(24), NewBounded(24)
		for i := 0; i < 3000; i++ {
			locks := make([]event.ObjID, rng.Intn(3))
			for j := range locks {
				locks[j] = event.ObjID(100 + rng.Intn(6))
			}
			e := &event.Access{
				Loc:    event.Loc{Obj: event.ObjID(rng.Intn(40) - 5), Slot: int32(rng.Intn(3)) - 2},
				Thread: event.ThreadID(rng.Intn(3)),
				Kind:   event.Kind(rng.Intn(2)),
				Locks:  event.NewLockset(locks...),
			}
			r1, i1 := d1.Process(e)
			r2, i2 := d2.Process(e)
			if r1 != r2 || !reflect.DeepEqual(i1, i2) {
				t.Fatalf("seed %d event %d: (%v, %+v) vs (%v, %+v)", seed, i, r1, i1, r2, i2)
			}
		}
		if d1.Stats() != d2.Stats() {
			t.Errorf("seed %d: stats differ:\n%+v\n%+v", seed, d1.Stats(), d2.Stats())
		}
		if d1.Stats().Collapses == 0 {
			t.Errorf("seed %d: stream never collapsed", seed)
		}
		if n1, n2 := d1.NodeCount(), d2.NodeCount(); n1 != n2 {
			t.Errorf("seed %d: node counts %d vs %d", seed, n1, n2)
		}
	}
}
