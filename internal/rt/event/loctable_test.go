package event

import (
	"math"
	"math/rand"
	"testing"
)

// randLoc draws a key from a mix that covers the encodings the
// detector produces: dense small objects, pseudolock-range negative
// and extreme object IDs, instance slots, the array slot and static
// slots.
func randLoc(rng *rand.Rand) Loc {
	var obj ObjID
	switch rng.Intn(6) {
	case 0:
		obj = ObjID(-1 - rng.Intn(64))
	case 1:
		obj = ObjID(math.MaxInt64 - int64(rng.Intn(4)))
	case 2:
		obj = ObjID(math.MinInt64 + int64(rng.Intn(4)))
	default:
		obj = ObjID(rng.Intn(2048))
	}
	var slot int32
	switch rng.Intn(4) {
	case 0:
		slot = ArraySlot
	case 1:
		slot = StaticSlot(rng.Intn(8))
	default:
		slot = int32(rng.Intn(8))
	}
	return Loc{Obj: obj, Slot: slot}
}

// TestLocTableMatchesMap drives seeded random Put/Get/Ref sequences
// through a LocTable and a Go map in lockstep. The first table starts
// at the minimum capacity, so the sequence crosses many doublings.
func TestLocTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tb LocTable[int]
		ref := map[Loc]int{}
		for op := 0; op < 6000; op++ {
			l := randLoc(rng)
			switch rng.Intn(3) {
			case 0:
				tb.Put(l, op)
				ref[l] = op
			case 1:
				got, ok := tb.Get(l)
				want, wok := ref[l]
				if ok != wok || got != want {
					t.Fatalf("seed %d op %d: Get(%v) = %d,%v want %d,%v", seed, op, l, got, ok, want, wok)
				}
			default:
				p := tb.Ref(l)
				if _, wok := ref[l]; (p != nil) != wok {
					t.Fatalf("seed %d op %d: Ref(%v) present=%v want %v", seed, op, l, p != nil, wok)
				}
				if p != nil {
					*p = -op
					ref[l] = -op
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d want %d", seed, op, tb.Len(), len(ref))
			}
		}
		if c := len(tb.slots); c < minLocTableCap<<3 {
			t.Fatalf("seed %d: capacity %d, want at least three doublings", seed, c)
		}
		seen := map[Loc]int{}
		tb.Range(func(l Loc, v int) {
			seen[l]++
			if want, ok := ref[l]; !ok || v != want {
				t.Errorf("seed %d: Range(%v) = %d, map has %d,%v", seed, l, v, want, ok)
			}
		})
		for l := range ref {
			if seen[l] != 1 {
				t.Errorf("seed %d: Range visited %v %d times", seed, l, seen[l])
			}
		}
		if len(seen) != len(ref) {
			t.Errorf("seed %d: Range visited %d keys, want %d", seed, len(seen), len(ref))
		}
	}
}

// TestLocTableSeedsDiffer guards the hash-flooding defence: two tables
// draw independent seeds.
func TestLocTableSeedsDiffer(t *testing.T) {
	x, y := NewLocTable[int](0), NewLocTable[int](0)
	if x.seed0 == y.seed0 && x.seed1 == y.seed1 {
		t.Fatal("two tables drew the same seed")
	}
}
