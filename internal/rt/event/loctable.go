package event

import (
	"math/bits"
	"math/rand/v2"
)

// LocTable is a hash table keyed by Loc, built for the detector's
// per-access lookups (the ownership table, the trie roots). It supports
// insert, overwrite and lookup but never deletion, which keeps it a
// flat open-addressing array: linear probing, power-of-two capacity,
// load factor at most 3/4, and a hash that is one multiply.
//
// The hash folds Obj and Slot through a 64×64→128-bit multiply keyed by
// a seed drawn per table. A recorded trace is untrusted input, and the
// seed keeps it from choosing locations that all land on one probe
// chain. It also means two tables holding the same keys iterate in
// different orders: no caller may depend on Range order.
//
// The zero value is an empty table ready for use.
type LocTable[V any] struct {
	slots        []locSlot[V]
	n            int
	seed0, seed1 uint64
}

// locSlot is one table cell. The key is stored flat (Obj, Slot) so the
// occupancy flag fits in Loc's padding word.
type locSlot[V any] struct {
	obj  ObjID
	slot int32
	used bool
	val  V
}

// minLocTableCap is the capacity of a table's first allocation.
const minLocTableCap = 8

// NewLocTable returns an empty table with room for about hint keys
// before its first growth.
func NewLocTable[V any](hint int) *LocTable[V] {
	t := &LocTable[V]{}
	c := minLocTableCap
	for c*3/4 < hint {
		c *= 2
	}
	t.alloc(c)
	return t
}

// alloc installs an empty slot array of capacity c (a power of two),
// drawing the seed on first use.
func (t *LocTable[V]) alloc(c int) {
	if t.seed1 == 0 {
		t.seed0 = rand.Uint64()
		// The top bit keeps the Slot-side factor nonzero for every key
		// (Slot contributes only the low 32 bits).
		t.seed1 = rand.Uint64() | 1<<63
	}
	t.slots = make([]locSlot[V], c)
}

// home returns l's first probe position.
func (t *LocTable[V]) home(l Loc) int {
	hi, lo := bits.Mul64(uint64(l.Obj)^t.seed0, uint64(uint32(l.Slot))^t.seed1)
	return int(hi^lo) & (len(t.slots) - 1)
}

// Len returns the number of keys in the table.
func (t *LocTable[V]) Len() int { return t.n }

// Ref returns a pointer to l's value, or nil if l is absent. The
// pointer is valid until the next Put.
func (t *LocTable[V]) Ref(l Loc) *V {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(l); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return nil
		}
		if s.obj == l.Obj && s.slot == l.Slot {
			return &s.val
		}
	}
}

// Get returns l's value and whether l is present.
func (t *LocTable[V]) Get(l Loc) (V, bool) {
	if p := t.Ref(l); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Put sets l's value, inserting l if it is absent.
func (t *LocTable[V]) Put(l Loc, v V) {
	if p := t.Ref(l); p != nil {
		*p = v
		return
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	t.insert(l, v)
	t.n++
}

// insert places a key known to be absent; the table has a free slot.
func (t *LocTable[V]) insert(l Loc, v V) {
	mask := len(t.slots) - 1
	i := t.home(l)
	for t.slots[i].used {
		i = (i + 1) & mask
	}
	t.slots[i] = locSlot[V]{obj: l.Obj, slot: l.Slot, used: true, val: v}
}

// grow doubles the capacity (or makes the first allocation) and
// rehashes every key.
func (t *LocTable[V]) grow() {
	old := t.slots
	t.alloc(max(2*len(old), minLocTableCap))
	for i := range old {
		if s := &old[i]; s.used {
			t.insert(Loc{Obj: s.obj, Slot: s.slot}, s.val)
		}
	}
}

// Range calls fn once for every key and its value, in an order that
// depends on the table's seed.
func (t *LocTable[V]) Range(fn func(Loc, V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.used {
			fn(Loc{Obj: s.obj, Slot: s.slot}, s.val)
		}
	}
}
