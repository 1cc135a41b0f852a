package ownership

import (
	"testing"

	"racedet/internal/rt/event"
)

func loc(o int64) event.Loc { return event.Loc{Obj: event.ObjID(o), Slot: 0} }

func TestStateMachine(t *testing.T) {
	tb := New()
	l := loc(1)
	if tb.StateOf(l) != Unowned {
		t.Fatal("fresh location must be unowned")
	}

	// First access claims ownership; forwarded = false.
	fwd, became := tb.Filter(1, l)
	if fwd || became {
		t.Fatalf("first access: fwd=%v became=%v", fwd, became)
	}
	if tb.StateOf(l) != Owned {
		t.Fatal("should be owned")
	}

	// Owner keeps accessing quietly.
	for i := 0; i < 5; i++ {
		fwd, became = tb.Filter(1, l)
		if fwd || became {
			t.Fatal("owner accesses must be absorbed")
		}
	}

	// Second thread: shared transition, both flags set.
	fwd, became = tb.Filter(2, l)
	if !fwd || !became {
		t.Fatalf("transition: fwd=%v became=%v", fwd, became)
	}
	if tb.StateOf(l) != Shared {
		t.Fatal("should be shared")
	}

	// Everyone (including the old owner) is forwarded afterwards.
	for _, tid := range []event.ThreadID{1, 2, 3} {
		fwd, became = tb.Filter(tid, l)
		if !fwd || became {
			t.Fatalf("post-share %v: fwd=%v became=%v", tid, fwd, became)
		}
	}
	if tb.Transitions() != 1 {
		t.Errorf("transitions = %d", tb.Transitions())
	}
}

func TestLocationsIndependent(t *testing.T) {
	tb := New()
	tb.Filter(1, loc(1))
	tb.Filter(2, loc(2))
	if tb.StateOf(loc(1)) != Owned || tb.StateOf(loc(2)) != Owned {
		t.Fatal("distinct locations share state")
	}
	tb.Filter(2, loc(1))
	if tb.StateOf(loc(1)) != Shared {
		t.Fatal("loc1 should be shared")
	}
	if tb.StateOf(loc(2)) != Owned {
		t.Fatal("loc2 must be unaffected")
	}
	if tb.Locations() != 2 {
		t.Errorf("locations = %d", tb.Locations())
	}
}

func TestSharedCount(t *testing.T) {
	tb := New()
	for i := int64(1); i <= 4; i++ {
		tb.Filter(1, loc(i))
	}
	tb.Filter(2, loc(1))
	tb.Filter(2, loc(2))
	if tb.SharedCount() != 2 {
		t.Errorf("shared count = %d, want 2", tb.SharedCount())
	}
}

func TestStateString(t *testing.T) {
	// The states are also used in diagnostics; make sure they're
	// distinct values.
	if Unowned == Owned || Owned == Shared {
		t.Fatal("states must be distinct")
	}
}
