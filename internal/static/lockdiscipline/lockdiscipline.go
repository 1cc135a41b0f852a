// Package lockdiscipline grades the static race set of §5 into a
// ranked whole-program report. racestatic answers a binary question —
// may this pair race? — but the surviving pairs differ wildly in
// urgency: a pair where both sides hold *some* lock (just never the
// same one) smells like a guard-selection bug, while a pair with a
// bare unsynchronized side is the classic unprotected access. The
// discipline tiers make that distinction explicit:
//
//	guarded-consistent   every conflicting pair shares a common
//	                     must-lockset (or is ordered by thread start);
//	                     racestatic already killed these pairs, so a
//	                     kept site earns this tier only when all of
//	                     its surviving pairs are start-ordered.
//	guarded-inconsistent some surviving pair holds disjoint nonempty
//	                     must-locksets — two locks guard one field.
//	unguarded            some surviving pair has an empty must-lockset
//	                     on at least one side.
//
// A may-happen-in-parallel refinement demotes pairs whose two sides
// are ordered by the start-before relation the escape pass computes:
// a safe thread class's constructor happens-before its run-side
// methods on the same instance, so a ctor-vs-run pair over a
// single-instance object cannot execute in parallel even though the
// lockset formulation keeps it.
package lockdiscipline

import (
	"fmt"
	"sort"
	"strings"

	"racedet/internal/escape"
	"racedet/internal/icfg"
	"racedet/internal/ir"
	"racedet/internal/pointsto"
	"racedet/internal/racestatic"
)

// Tier is the discipline verdict for a site or pair, ordered by
// severity: GuardedConsistent < GuardedInconsistent < Unguarded.
type Tier uint8

// Discipline tiers.
const (
	GuardedConsistent Tier = iota
	GuardedInconsistent
	Unguarded
)

func (t Tier) String() string {
	switch t {
	case GuardedConsistent:
		return "guarded-consistent"
	case GuardedInconsistent:
		return "guarded-inconsistent"
	case Unguarded:
		return "unguarded"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// Pair is one surviving may-race pair with its discipline verdict.
type Pair struct {
	X, Y racestatic.AccessSite
	// Field is the conflict key the pair raced on (Class.field, or
	// "[]" for array element conflicts).
	Field string
	// Tier grades the pair: Unguarded when a side holds no lock at
	// the access, GuardedInconsistent when both sides hold disjoint
	// nonempty must-locksets.
	Tier Tier
	// Demoted marks pairs proven start-ordered by the MHP refinement:
	// they keep their lockset tier for the report but do not raise
	// their sites' tiers and rank below all live pairs.
	Demoted bool
	// XLocks and YLocks name the must-held locks of each side
	// (deterministically ordered).
	XLocks, YLocks []string
}

// SiteTier is the portable (position-keyed) form of a site's tier,
// used to carry tiers across the fact cache.
type SiteTier struct {
	File  string
	Line  int32
	Col   int32
	Write bool
	Tier  Tier
}

// Result is the whole-program discipline classification.
type Result struct {
	// Pairs lists every surviving may-race pair, severity-ranked:
	// unguarded first, then guarded-inconsistent, start-ordered
	// (demoted) pairs last; within a rank, source order. The order is
	// deterministic because racestatic normalizes its pair list.
	Pairs []Pair

	// Tier maps each kept (instrumented) access instruction to its
	// discipline tier: the maximum tier over its live surviving
	// pairs, GuardedConsistent when every pair was demoted.
	Tier map[*ir.Instr]Tier

	// UnguardedPairs, InconsistentPairs and DemotedPairs count the
	// live unguarded, live guarded-inconsistent and start-ordered
	// pairs (the three partitions of Pairs).
	UnguardedPairs    int
	InconsistentPairs int
	DemotedPairs      int

	// UnguardedSites, InconsistentSites and ConsistentSites count
	// kept sites per tier.
	UnguardedSites    int
	InconsistentSites int
	ConsistentSites   int
}

// Analyze grades every surviving may-race pair of the static result.
// ml may be nil (no flow-sensitive must-lock dataflow); esc and pts
// power the MHP start-order refinement.
func Analyze(st *racestatic.Result, g *icfg.Graph, ml *icfg.MustLock, esc *escape.Result, pts *pointsto.Result) *Result {
	r := &Result{Tier: make(map[*ir.Instr]Tier)}
	for in := range st.InRaceSet {
		r.Tier[in] = GuardedConsistent
	}
	for _, sp := range st.Pairs {
		x, y := sp[0], sp[1]
		xl := heldLocks(g, ml, x)
		yl := heldLocks(g, ml, y)
		p := Pair{
			X:      x,
			Y:      y,
			Field:  pairField(x.Instr),
			XLocks: lockNames(xl),
			YLocks: lockNames(yl),
		}
		if len(xl) == 0 || len(yl) == 0 {
			p.Tier = Unguarded
		} else {
			// racestatic pruned intersecting locksets, so both sides
			// nonempty means disjoint guards: two locks, one field.
			p.Tier = GuardedInconsistent
		}
		p.Demoted = startOrdered(esc, pts, x, y)
		switch {
		case p.Demoted:
			r.DemotedPairs++
		case p.Tier == Unguarded:
			r.UnguardedPairs++
		default:
			r.InconsistentPairs++
		}
		if !p.Demoted {
			if p.Tier > r.Tier[x.Instr] {
				r.Tier[x.Instr] = p.Tier
			}
			if p.Tier > r.Tier[y.Instr] {
				r.Tier[y.Instr] = p.Tier
			}
		}
		r.Pairs = append(r.Pairs, p)
	}
	// Severity rank: live unguarded, live inconsistent, demoted; the
	// underlying pair list is already in canonical source order, so a
	// stable sort keeps each rank deterministic.
	sort.SliceStable(r.Pairs, func(i, j int) bool {
		return pairRank(r.Pairs[i]) < pairRank(r.Pairs[j])
	})
	for _, t := range r.Tier {
		switch t {
		case Unguarded:
			r.UnguardedSites++
		case GuardedInconsistent:
			r.InconsistentSites++
		default:
			r.ConsistentSites++
		}
	}
	return r
}

func pairRank(p Pair) int {
	if p.Demoted {
		return 2
	}
	if p.Tier == Unguarded {
		return 0
	}
	return 1
}

// heldLocks is the must-lockset the §5 conditions judged the access
// by: the region-based MustSync objects plus, when available, the
// flow-sensitive must-held locks across call boundaries.
func heldLocks(g *icfg.Graph, ml *icfg.MustLock, s racestatic.AccessSite) pointsto.ObjSet {
	out := pointsto.ObjSet{}
	for o := range g.MustSyncOf(s.Fn, s.Instr) {
		out[o] = struct{}{}
	}
	if ml != nil {
		for o := range ml.At(s.Instr) {
			out[o] = struct{}{}
		}
	}
	return out
}

func lockNames(s pointsto.ObjSet) []string {
	if len(s) == 0 {
		return nil
	}
	out := make([]string, 0, len(s))
	for _, o := range s.Sorted() {
		out = append(out, o.String())
	}
	return out
}

func pairField(in *ir.Instr) string {
	_, isArray, _, field := in.AccessInfo()
	if isArray || field == nil {
		return "[]"
	}
	return field.QualifiedName()
}

// startOrdered is the MHP refinement: a safe thread class's
// constructor happens-before start(), which happens-before run — so
// an access in the ctor and an access in a thread-specific run-side
// method of the same class cannot overlap, provided they touch the
// same single instance. Unsafe thread classes (construction may
// overlap execution) never qualify.
func startOrdered(esc *escape.Result, pts *pointsto.Result, x, y racestatic.AccessSite) bool {
	ctor, run := x, y
	if m := ctor.Fn.Method; m == nil || !m.IsCtor {
		ctor, run = y, x
	}
	cm, rm := ctor.Fn.Method, run.Fn.Method
	if cm == nil || rm == nil || !cm.IsCtor || rm.IsCtor {
		return false
	}
	if cm.Class != rm.Class {
		return false
	}
	if !esc.ThreadSpecificMethod(cm) || !esc.ThreadSpecificMethod(rm) {
		return false
	}
	if esc.UnsafeThread(cm.Class) {
		return false
	}
	return singleInstanceTarget(pts, ctor) && singleInstanceTarget(pts, run)
}

// singleInstanceTarget requires every abstract object the access may
// touch to be a single-instance allocation: with at most one receiver
// object, "same class" implies "same instance", and the ctor→run
// ordering applies.
func singleInstanceTarget(pts *pointsto.Result, s racestatic.AccessSite) bool {
	_, isArray, reg, field := s.Instr.AccessInfo()
	if isArray || (field != nil && field.Static) {
		return false
	}
	objs := pts.VarPts(s.Fn, reg)
	if len(objs) == 0 {
		return false
	}
	for o := range objs {
		if !o.SingleInstance {
			return false
		}
	}
	return true
}

// SiteTiers renders the tier map in portable, position-keyed form,
// deterministically ordered. The fact cache stores these verbatim.
func (r *Result) SiteTiers() []SiteTier {
	out := make([]SiteTier, 0, len(r.Tier))
	for in, t := range r.Tier {
		kind, _, _, _ := in.AccessInfo()
		out = append(out, SiteTier{
			File:  in.Pos.File,
			Line:  in.Pos.Line,
			Col:   in.Pos.Col,
			Write: kind == ir.Write,
			Tier:  t,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return !a.Write && b.Write
	})
	return out
}

// Report renders the severity-ranked pair report. The output is
// byte-stable for a given program: pairs are ranked by tier, sites
// and locks are deterministically ordered.
func (r *Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "lock discipline: %d surviving may-race pair(s): %d unguarded, %d guarded-inconsistent, %d start-ordered (demoted)\n",
		len(r.Pairs), r.UnguardedPairs, r.InconsistentPairs, r.DemotedPairs)
	for _, p := range r.Pairs {
		label := p.Tier.String()
		if p.Demoted {
			label = "start-ordered"
		}
		fmt.Fprintf(&sb, "  [%-20s] %s: %s holds %s <-> %s holds %s\n",
			label, p.Field, p.X, renderLocks(p.XLocks), p.Y, renderLocks(p.YLocks))
	}
	fmt.Fprintf(&sb, "site tiers: %d unguarded, %d guarded-inconsistent, %d guarded-consistent\n",
		r.UnguardedSites, r.InconsistentSites, r.ConsistentSites)
	return sb.String()
}

func renderLocks(names []string) string {
	if len(names) == 0 {
		return "{}"
	}
	return "{" + strings.Join(names, ", ") + "}"
}
