// Package factcache persists static-analysis outcomes keyed by content
// digests of the lowered IR, so recompiles of unchanged code skip
// re-analysis (racedet -factcache <dir>).
//
// Two granularities:
//
//   - Program level: the digest covers the configuration fingerprint
//     and every function's lowered IR. On a hit the whole static phase
//     (points-to, call graph, escape, race analysis, elimination) is
//     skipped and the compile replays the traced-instruction sets,
//     static hints, and stats from the entry.
//
//   - Function level: on a program miss, the previous entry for the
//     same configuration seeds partial reuse. A function is *clean*
//     when its semantic digest — lowered IR, per-access race-set bits,
//     resolved callees per call site, thread-root bit — matches the
//     prior entry and so does every function in its connected
//     component of the (undirected) call graph; interprocedural facts
//     (summaries, relaxed barriers, entry covers, pass-2 pinning)
//     never cross component boundaries, so a fully-clean component's
//     elimination outcome is reproducible by construction. Clean
//     functions replay their traced sets and skip the elimination
//     sweep; only the dirty transitive closure recomputes. The global
//     stable-field set is part of the entry: if it changes, everything
//     is dirty.
//
// Entries are JSON files under the cache directory: one per program
// digest, plus a "latest" pointer per configuration fingerprint for
// the partial path.
package factcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"racedet/internal/instrument"
	"racedet/internal/ir"
)

// Stats reports what the cache did for one compile.
type Stats struct {
	// ProgramHit is true when the whole compile was replayed.
	ProgramHit bool
	// FnHits/FnMisses count functions replayed vs re-analyzed on the
	// partial path (both zero on a program hit).
	FnHits   int
	FnMisses int
	// WriteErrors counts failed Stores (full disk, unwritable dir).
	// A failed write degrades the cache to a no-op for the rest of the
	// compile — counted, never a failed analysis.
	WriteErrors int
}

// InstrKey addresses one instruction in pre-instrumentation IR: the
// block ID and the instruction's index counting non-trace instructions.
type InstrKey struct {
	Block int `json:"b"`
	Index int `json:"i"`
}

// FnEntry is one function's cached outcome.
type FnEntry struct {
	Name string `json:"name"`
	// Digest is the semantic digest (SemDigest).
	Digest string `json:"digest"`
	// Traced lists the access instructions whose traces survived
	// elimination, as pre-instrumentation positions.
	Traced []InstrKey `json:"traced,omitempty"`
	// Accesses/Inserted/Eliminated reproduce the per-function
	// instrumentation stats (Inserted counts pre-elimination traces).
	Accesses   int `json:"accesses"`
	Inserted   int `json:"inserted"`
	Eliminated int `json:"eliminated"`
}

// TierEntry is one kept access site's lock-discipline tier in
// portable position-keyed form (the cached counterpart of
// lockdiscipline.SiteTier).
type TierEntry struct {
	File  string `json:"file"`
	Line  int32  `json:"line"`
	Col   int32  `json:"col"`
	Write bool   `json:"write,omitempty"`
	Tier  uint8  `json:"tier"`
}

// Entry is one serialized compile outcome.
type Entry struct {
	Version       int                 `json:"version"`
	Config        string              `json:"config"`
	ProgramDigest string              `json:"program_digest"`
	StableDigest  string              `json:"stable_digest"`
	Fns           []FnEntry           `json:"fns"`
	HintIndex     map[string][]string `json:"hint_index,omitempty"`
	Elims         []instrument.Elim   `json:"elims,omitempty"`
	StaticStats   json.RawMessage     `json:"static_stats,omitempty"`
	LoopsPeeled   int                 `json:"loops_peeled"`
	// Discipline is the rendered lock-discipline report and Tiers the
	// per-site tier list; replaying them verbatim keeps -static-report
	// byte-identical on program-level hits.
	Discipline string      `json:"discipline,omitempty"`
	Tiers      []TierEntry `json:"tiers,omitempty"`
}

// entryVersion 2 added the discipline report, the tier entries, and
// the tier component of SemDigest; bumping it (it is part of the
// configuration fingerprint) invalidates every v1 cache.
const entryVersion = 2

// Cache is a handle on one cache directory + configuration.
type Cache struct {
	dir      string
	cfg      string
	disabled bool // a write failed; stores are skipped from then on
	Stats    Stats
}

// Fingerprint digests the configuration knobs that change static
// analysis output; entries only ever match within one fingerprint.
func Fingerprint(instrument, static, dominators, peeling, interproc bool) string {
	return digest(fmt.Sprintf("v%d:instr=%t:static=%t:dom=%t:peel=%t:interproc=%t",
		entryVersion, instrument, static, dominators, peeling, interproc))[:16]
}

// Open returns a cache handle; the directory is created lazily on the
// first Store.
func Open(dir, cfg string) *Cache {
	return &Cache{dir: dir, cfg: cfg}
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// FnDigest is the content digest of one function's lowered IR.
func FnDigest(fn *ir.Func) string {
	return digest(fn.String())
}

// SemDigest combines a function's content digest with the bits of
// whole-program analysis that feed its elimination and tiers: which
// of its accesses are in the static race set (in program order), each
// access's discipline tier, the resolved callee names of each call
// site, and whether it is a thread root.
func SemDigest(irDigest string, filterBits []bool, tiers []uint8, calleeNames []string, threadRoot bool) string {
	var b strings.Builder
	b.WriteString(irDigest)
	b.WriteString("|f:")
	for _, bit := range filterBits {
		if bit {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteString("|t:")
	for _, t := range tiers {
		b.WriteByte('0' + t)
	}
	b.WriteString("|c:")
	for _, n := range calleeNames {
		b.WriteString(n)
		b.WriteByte(',')
	}
	if threadRoot {
		b.WriteString("|root")
	}
	return digest(b.String())
}

// StableDigest digests the global init-only field set.
func StableDigest(fields []string) string {
	return digest(strings.Join(fields, "\n"))
}

// ProgramDigest covers the configuration and every function, in
// program order.
func (c *Cache) ProgramDigest(prog *ir.Program) string {
	var b strings.Builder
	b.WriteString(c.cfg)
	for _, fn := range prog.Funcs {
		b.WriteString(fn.Name)
		b.WriteByte('=')
		b.WriteString(FnDigest(fn))
		b.WriteByte('\n')
	}
	return digest(b.String())
}

func (c *Cache) entryPath(programDigest string) string {
	return filepath.Join(c.dir, "prog-"+programDigest+".json")
}

func (c *Cache) latestPath() string {
	return filepath.Join(c.dir, "latest-"+c.cfg+".json")
}

func readEntry(path string) (*Entry, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil || e.Version != entryVersion {
		return nil, false
	}
	return &e, true
}

// Lookup returns the entry for a program digest, if cached. The digest
// must be computed on the un-instrumented lowering (ProgramDigest before
// InsertTraces), since that is the state a later compile hashes. A hit
// sets Stats.ProgramHit.
func (c *Cache) Lookup(programDigest string) (*Entry, bool) {
	e, ok := readEntry(c.entryPath(programDigest))
	if !ok || e.Config != c.cfg {
		return nil, false
	}
	c.Stats.ProgramHit = true
	return e, true
}

// Latest returns the most recent entry stored under this
// configuration, for the partial-reuse path.
func (c *Cache) Latest() (*Entry, bool) {
	e, ok := readEntry(c.latestPath())
	if !ok || e.Config != c.cfg {
		return nil, false
	}
	return e, true
}

// Store persists the entry under the program digest (see Lookup: the
// digest of the un-instrumented lowering) and as the configuration's
// latest, via write-temp-fsync-then-atomic-rename so a crash or torn
// write never leaves a half-written entry where Lookup could read it.
// A failure (full disk, unwritable dir) is counted in Stats and
// degrades the cache to a no-op for the rest of the compile — a cache
// problem must cost warmth, never the analysis.
func (c *Cache) Store(programDigest string, e *Entry) {
	if c.disabled {
		return
	}
	e.Version = entryVersion
	e.Config = c.cfg
	e.ProgramDigest = programDigest
	data, err := json.Marshal(e)
	if err != nil {
		c.fail()
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		c.fail()
		return
	}
	write := func(path string) bool {
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return false
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			os.Remove(tmp)
			return false
		}
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return false
		}
		if err := f.Close(); err != nil {
			os.Remove(tmp)
			return false
		}
		if err := os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
			return false
		}
		return true
	}
	if !write(c.entryPath(e.ProgramDigest)) || !write(c.latestPath()) {
		c.fail()
	}
}

// fail records a degraded store: one counted error, then cache-off.
func (c *Cache) fail() {
	c.disabled = true
	c.Stats.WriteErrors++
}

// TracedSet captures a function's surviving traces as positions in
// pre-instrumentation IR: instruction indices that skip OpTrace, with
// a traced access identified by the OpTrace immediately after it.
func TracedSet(fn *ir.Func) []InstrKey {
	var out []InstrKey
	for _, b := range fn.Blocks {
		pre := 0
		for i, in := range b.Instrs {
			if in.Op == ir.OpTrace {
				continue
			}
			if in.IsAccess() && i+1 < len(b.Instrs) && b.Instrs[i+1].Op == ir.OpTrace {
				out = append(out, InstrKey{Block: b.ID, Index: pre})
			}
			pre++
		}
	}
	return out
}

// ReplayFilter turns a cached traced set into an InsertTraces filter
// for the same (un-instrumented) function. The second return value
// reports whether every key resolved; callers should treat false as a
// stale entry.
func ReplayFilter(fn *ir.Func, traced []InstrKey) (instrument.Filter, bool) {
	want := make(map[InstrKey]bool, len(traced))
	for _, k := range traced {
		want[k] = true
	}
	sel := make(map[*ir.Instr]bool, len(traced))
	found := 0
	for _, b := range fn.Blocks {
		for i, in := range b.Instrs {
			if want[InstrKey{Block: b.ID, Index: i}] {
				if !in.IsAccess() {
					return nil, false
				}
				sel[in] = true
				found++
			}
		}
	}
	if found != len(want) {
		return nil, false
	}
	return func(in *ir.Instr) bool { return sel[in] }, true
}

// Dirty computes the set of functions that must re-run elimination:
// functions whose semantic digest differs from the prior entry (or are
// new), expanded to their connected components in the undirected call
// graph described by edges. Returns nil (everything dirty) when the
// stable-field digests differ.
func Dirty(prior *Entry, stableDigest string, fns []*ir.Func, semDigest map[*ir.Func]string,
	edges map[*ir.Func][]*ir.Func) map[*ir.Func]bool {
	if prior == nil || prior.StableDigest != stableDigest {
		all := make(map[*ir.Func]bool, len(fns))
		for _, f := range fns {
			all[f] = true
		}
		return all
	}
	priorFns := make(map[string]string, len(prior.Fns))
	for _, fe := range prior.Fns {
		priorFns[fe.Name] = fe.Digest
	}
	dirty := make(map[*ir.Func]bool)
	var queue []*ir.Func
	for _, f := range fns {
		if priorFns[f.Name] != semDigest[f] {
			dirty[f] = true
			queue = append(queue, f)
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, g := range edges[f] {
			if !dirty[g] {
				dirty[g] = true
				queue = append(queue, g)
			}
		}
	}
	return dirty
}

// UndirectedCallGraph builds the symmetric adjacency used by Dirty
// from resolved call targets.
func UndirectedCallGraph(prog *ir.Program, callees func(*ir.Instr) []*ir.Func) map[*ir.Func][]*ir.Func {
	adj := make(map[*ir.Func]map[*ir.Func]bool)
	add := func(a, b *ir.Func) {
		if adj[a] == nil {
			adj[a] = make(map[*ir.Func]bool)
		}
		adj[a][b] = true
	}
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				for _, callee := range callees(in) {
					add(fn, callee)
					add(callee, fn)
				}
			}
		}
	}
	out := make(map[*ir.Func][]*ir.Func, len(adj))
	for f, set := range adj {
		ns := make([]*ir.Func, 0, len(set))
		for g := range set {
			ns = append(ns, g)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i].Name < ns[j].Name })
		out[f] = ns
	}
	return out
}
