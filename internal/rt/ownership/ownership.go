// Package ownership implements the ownership model of §2.3/§7: the
// first thread to touch a location owns it, and accesses by the owner
// are invisible to the detector until a second thread touches the
// location, at which point it becomes shared and all subsequent
// accesses flow through.
//
// This approximates the happened-before ordering created by thread
// start: the common idiom of a parent initializing data and handing it
// to a child produces no false races, without tracking start edges.
package ownership

import "racedet/internal/rt/event"

// State is the ownership state of a location.
type State int8

// Ownership states.
const (
	Unowned State = iota // never accessed
	Owned                // accessed by exactly one thread so far
	Shared               // accessed by at least two threads
)

// sharedOwner is the in-table marker for the shared state; it keeps
// the owner table a single LocTable so the per-access path does one
// probe.
const sharedOwner event.ThreadID = -9

// Table tracks per-location owners.
type Table struct {
	owner       *event.LocTable[event.ThreadID]
	transitions uint64

	// maxLocations caps the table (0 = unbounded). Locations that
	// arrive once the table is full are never tracked: they behave as
	// immediately shared, so every access flows to the detector. The
	// filter loses its benefit for those locations but can never absorb
	// a racing access — degradation is strictly more reporting.
	maxLocations int
	overflows    uint64
}

// initialLocations pre-sizes the owner table. Growing it to n entries
// through doubling allocates about as much again in garbage; on the
// paper benchmarks the ownership table was once the single largest
// allocation site (44% of bytes on tsp, as a Go map), so starting at
// a realistic size is an easy win: 48 KB of fixed cost for small
// programs, half the table garbage for big ones.
const initialLocations = 1 << 10

// New returns an empty ownership table.
func New() *Table {
	return &Table{owner: event.NewLocTable[event.ThreadID](initialLocations)}
}

// NewBounded returns an ownership table tracking at most maxLocations
// locations; overflow locations are treated as born-shared.
func NewBounded(maxLocations int) *Table {
	t := New()
	t.maxLocations = maxLocations
	return t
}

// Clone returns a deep copy of the table for checkpointing.
func (tb *Table) Clone() *Table {
	nt := *tb
	nt.owner = tb.owner.Clone()
	return &nt
}

// Filter processes an access by thread t to loc. It returns true if
// the access must be forwarded to the detector (the location is
// shared), false if the access is absorbed by the ownership model.
// becameShared additionally signals the owned→shared transition so the
// caller can evict the location from all caches (§7.2).
func (tb *Table) Filter(t event.ThreadID, loc event.Loc) (forward, becameShared bool) {
	owner := tb.owner.Ref(loc)
	switch {
	case owner == nil:
		if tb.maxLocations > 0 && tb.owner.Len() >= tb.maxLocations {
			// Table full: the location is never tracked and acts as
			// shared from its first access on.
			tb.overflows++
			return true, false
		}
		tb.owner.Put(loc, t)
		return false, false
	case *owner == t:
		return false, false
	case *owner == sharedOwner:
		return true, false
	default:
		// Second thread: the location becomes shared; this access and
		// all subsequent ones go to the detector.
		*owner = sharedOwner
		tb.transitions++
		return true, true
	}
}

// StateOf reports the current ownership state of loc (tests).
func (tb *Table) StateOf(loc event.Loc) State {
	owner, seen := tb.owner.Get(loc)
	switch {
	case !seen:
		return Unowned
	case owner == sharedOwner:
		return Shared
	default:
		return Owned
	}
}

// SharedCount returns how many locations have become shared.
func (tb *Table) SharedCount() int { return int(tb.transitions) }

// Transitions returns the number of owned→shared transitions.
func (tb *Table) Transitions() uint64 { return tb.transitions }

// Locations returns the number of tracked locations (space metric).
func (tb *Table) Locations() int { return tb.owner.Len() }

// Overflows returns the number of accesses forwarded because the
// bounded table was full (0 in unbounded mode).
func (tb *Table) Overflows() uint64 { return tb.overflows }
