// Adaptive per-site throttling: the front end's sampled access path.
//
// It runs synchronously, in event order, in the one filter front end
// both back ends share, so a sampled sharded run ships exactly the
// event stream the sampled serial run ships and their merged reports
// stay byte-identical (pinned by TestSampledShardedMatchesSerial and
// the corpus differentials).
//
// Per access at an ARMED site: the unsampled filter runs (cache →
// ownership → trie) and its outcome is recorded as a site observation;
// K consecutive observations with no intervening re-arm demote the
// site. Every shipped access — armed or stub — is recorded in the
// per-location shipped history and, like every unsampled survivor,
// inserted into the per-thread cache (or recurring racy-shaped traffic
// would re-ship on every repeat).
//
// Per access at a DEMOTED site, in order:
//
//  1. the location carries an armed marker (set by the ownership
//     table's contact callback) → re-arm the site and run the armed
//     path;
//  2. otherwise run the ownership filter (its state must evolve
//     exactly as in the unsampled run — it is the re-arm signal):
//     - owned→shared transition: the first cross-thread contact is
//     never suppressed — re-arm and ship (the Contact callback
//     has already re-armed every other site that touched the
//     location and armed the location itself);
//     - absorbed (still owned): identical to the unsampled pipeline,
//     counted as an owner skip;
//     - forwarded but not tracked as shared (bounded-table overflow,
//     born-shared): never suppressed — the unsampled run ships every
//     such access and overflow locations emit no contact signal;
//     - shared and suppressible (see sitestate.CanSuppress): suppress
//     and remember the touch;
//     - shared and racy-shaped: the site stays demoted and the access
//     rides the cache — a hit is absorbed exactly as in the
//     unsampled pipeline, a miss ships and is cached. No re-arm is
//     needed: shipped history only grows, so the location keeps
//     refusing suppression and the forwarded recurrences complete
//     any race pair in the trie.
//
// Throttling therefore suppresses two provably-redundant classes:
// repeat traffic that cannot complete a race pair (read-read sharing,
// sole-toucher traffic — judged against both suppressed and shipped
// history), and all traffic on locations whose shipped history already
// proves a race report (see shipEntry.proven). Stable (recurring)
// races survive; the residual one-shot blind spot is documented in
// sitestate and docs/performance.md.
package detector

import (
	"racedet/internal/rt/event"
	"racedet/internal/rt/ownership"
)

// sampledAccess is the per-access path when throttling is on
// (f.sites != nil). It never mutates *a.
func (f *front) sampledAccess(a *event.Access) {
	loc := f.mergeLoc(a.Loc)
	id := f.sites.SiteID(a.Pos, a.Kind)
	if f.sites.Demoted(id) {
		if !f.sites.ConsumeArmed(loc) {
			f.stubAccess(a, loc, id)
			return
		}
		f.sites.Rearm(id)
	}
	// Armed: the unsampled filter, outcome observed.
	shipped := f.filter(a.Thread, loc, a.Kind)
	if shipped {
		f.shipSampled(a, loc)
	}
	f.sites.Observe(id, shipped)
}

// stubAccess is a demoted site's counting-only stub: ownership runs,
// the trie sees only what the stub may not suppress.
func (f *front) stubAccess(a *event.Access, loc event.Loc, id int32) {
	f.stats.Accesses++
	t := a.Thread
	forward, becameShared := f.owner.Filter(t, loc)
	switch {
	case becameShared:
		if !f.opts.NoCache {
			f.cache.EvictLocation(loc)
		}
		f.sites.Rearm(id)
		f.sites.ConsumeArmed(loc) // Contact armed it; this is the ship
		f.shipFromStub(a, loc)
	case !forward:
		f.stats.OwnerSkips++
		f.sites.Skipped()
	case f.owner.StateOf(loc) != ownership.Shared:
		f.shipFromStub(a, loc)
	case f.sites.Touch(id, loc, t, a.Kind == event.Write):
		f.sites.Suppress()
	// Racy-shaped against suppressed or shipped history: the location
	// is permanently unsuppressible (the shipped bits only grow), so
	// the site stays demoted and repeats ride the cache exactly as in
	// the unsampled pipeline. No re-arm: the forwarded event itself
	// completes the pair.
	case !f.opts.NoCache && f.cache.Lookup(t, loc, a.Kind):
		f.stats.CacheHits++
		f.sites.Skipped()
	default:
		f.shipFromStub(a, loc)
	}
}

// shipFromStub ships an access the demoted stub may not suppress.
func (f *front) shipFromStub(a *event.Access, loc event.Loc) {
	f.shipSampled(a, loc)
	f.sites.ForcedShip()
}

// shipSampled records a survivor in the per-location shipped history
// and delivers it. The unlocked bit comes from the lock tracker, not
// from a.Locks: producers leave that field empty, and only the lockset
// the trie will see under-approximates lock-freedom, as RecordShip
// requires.
func (f *front) shipSampled(a *event.Access, loc event.Loc) {
	t := a.Thread
	f.sites.RecordShip(loc, t, a.Kind == event.Write, len(f.locks.Held(t)) == 0)
	f.deliver(a, loc)
}
