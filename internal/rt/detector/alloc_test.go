package detector

import (
	"testing"

	"racedet/internal/rt/event"
)

// TestAccessBatchZeroAllocs pins the steady-state allocation count of
// the serial per-access path at zero. Every measured access misses the
// cache, passes ownership (its location is already shared) and ships
// to the trie: half take the weakness-hit path, half the race-check
// path (including update and prune). A survivor built anywhere that
// escapes through the survivor sink would cost one allocation per
// shipped access and fail this test.
func TestAccessBatchZeroAllocs(t *testing.T) {
	const (
		perKind = 16 // accesses of each path per batch
		runs    = 50
		batches = runs + 1 // AllocsPerRun adds one warm-up call
		lockB   = event.ObjID(1000)
		lockC   = event.ObjID(1001)
	)
	d := New(Options{})
	d.ThreadStarted(1, event.NoThread)
	d.ThreadStarted(2, 1)
	acc := func(t event.ThreadID, obj int, k event.Kind) event.Access {
		return event.Access{Loc: event.Loc{Obj: event.ObjID(obj)}, Thread: t, Kind: k, FieldName: "F.f"}
	}
	// Race-check locations are 1..n, weakness-hit locations n+1..2n.
	n := batches * perKind
	raceLoc := func(i int) int { return 1 + i }
	weakLoc := func(i int) int { return 1 + n + i }

	// Thread 1 owns every location first (absorbed by ownership).
	for i := 0; i < n; i++ {
		d.Access(acc(1, raceLoc(i), event.Write))
		d.Access(acc(1, weakLoc(i), event.Write))
	}
	// Thread 2 shares each race-check location with a read under
	// {S2, B, C}: the trie now holds only that access, so a later read
	// under {S2, B} is not subsumed and runs the race check, meeting
	// into the existing {S2, B} node.
	d.MonitorEnter(2, lockB, 1)
	d.MonitorEnter(2, lockC, 1)
	for i := 0; i < n; i++ {
		d.Access(acc(2, raceLoc(i), event.Read))
	}
	d.MonitorExit(2, lockC, 0)
	d.MonitorExit(2, lockB, 0)
	// ...and each weakness-hit location with a write under {S2}, which
	// subsumes any later access by thread 2 under a superset lockset.
	for i := 0; i < n; i++ {
		d.Access(acc(2, weakLoc(i), event.Write))
	}

	var stream [batches][]event.Access
	for b := range stream {
		for i := b * perKind; i < (b+1)*perKind; i++ {
			stream[b] = append(stream[b], acc(2, raceLoc(i), event.Read), acc(2, weakLoc(i), event.Read))
		}
	}
	d.MonitorEnter(2, lockB, 1)
	before := d.Stats()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		d.AccessBatch(stream[next])
		next++
	})
	if allocs != 0 {
		t.Errorf("AccessBatch allocates %.1f times per batch in steady state, want 0", allocs)
	}

	after := d.Stats()
	want := uint64(batches * perKind)
	if got := after.Shipped - before.Shipped; got != 2*want {
		t.Errorf("shipped %d of %d measured accesses", got, 2*want)
	}
	if got := after.Trie.RaceChecks - before.Trie.RaceChecks; got != want {
		t.Errorf("race checks = %d, want %d", got, want)
	}
	if got := after.Trie.WeaknessHits - before.Trie.WeaknessHits; got != want {
		t.Errorf("weakness hits = %d, want %d", got, want)
	}
	if r := d.Reports(); len(r) != 0 {
		t.Errorf("unexpected reports: %v", r)
	}
}
