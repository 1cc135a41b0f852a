package detector

import (
	"reflect"
	"sync"
	"testing"

	"racedet/internal/faultinject"
)

// TestConcurrentBackendsErrIsolated is the multi-session isolation
// contract the daemon relies on: N sharded backends running
// concurrently (one per "session"), where one backend's worker
// panics, must keep the failure session-scoped. Only the faulted
// backend's Err() is non-nil; every healthy sibling reports Err() ==
// nil and verdicts identical to a serial reference. Run under -race
// this also proves Err/Reports/Stats are safe to call from concurrent
// scraper goroutines after finalize.
func TestConcurrentBackendsErrIsolated(t *testing.T) {
	const (
		sessions = 8
		faulted  = 3
		seed     = 42
		events   = 3000
	)

	// Serial reference for the shared event stream.
	ref := New(Options{})
	feedRandom(ref, seed, events)
	want := reportStrings(ref)
	if ref.Err() != nil {
		t.Fatalf("serial reference failed: %v", ref.Err())
	}

	plan, err := faultinject.Parse("panic:shard=*,event=10")
	if err != nil {
		t.Fatal(err)
	}

	backends := make([]Backend, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		opts := Options{}
		if i == faulted {
			// The injected worker panic must surface through Err().
			opts.Faults = plan
		}
		backends[i] = NewSharded(opts, 4, 16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			feedRandom(backends[i], seed, events)
		}()
	}
	wg.Wait()

	// Hammer the finalize-gated accessors from several goroutines per
	// backend: the daemon's /metrics scraper does exactly this while
	// sessions finish.
	var readers sync.WaitGroup
	for _, b := range backends {
		for g := 0; g < 3; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				b.Reports()
				b.Err()
				b.Stats()
				b.RacyObjects()
			}()
		}
	}
	readers.Wait()

	for i, b := range backends {
		if i == faulted {
			if b.Err() == nil {
				t.Errorf("backend %d: injected worker panic did not surface via Err", i)
			}
			continue
		}
		if err := b.Err(); err != nil {
			t.Errorf("backend %d: sibling poisoned by backend %d's panic: %v", i, faulted, err)
		}
		if got := reportStrings(b); !reflect.DeepEqual(got, want) {
			t.Errorf("backend %d: reports diverge from serial reference:\ngot  %v\nwant %v", i, got, want)
		}
	}
	if plan.Fired() == 0 {
		t.Fatal("injected panic never fired")
	}
}
