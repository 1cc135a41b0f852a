package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"racedet/internal/bench"
)

// refKind is the meaning a verdict reference gives the reported racy
// fields or objects.
type refKind int

const (
	// refClean: no field may be reported (corpus EXPECT-CLEAN).
	refClean refKind = iota
	// refRacy: every listed field is reported (EXPECT-RACY; extra
	// fields are allowed, as in internal/corpus). A missing field is a
	// schedule miss on a seeded schedule (see scheduleMiss).
	refRacy
	// refNoDomOnly: the full pipeline must miss the listed fields
	// (EXPECT-RACY-NODOM-ONLY, the §7.2 counterexample).
	refNoDomOnly
	// refSchedDep: only some schedules expose the listed fields, so a
	// single run may report any subset of them and nothing else
	// (EXPECT-SCHED-DEP).
	refSchedDep
	// refObjects: Objects racy objects (the paper's Table 3) with every
	// listed field reported. With AtMost, a seeded schedule may report 1
	// to Objects, and under-reporting is a schedule miss; the
	// round-robin schedule must match exactly.
	refObjects
)

// ref is a verdict reference that does not come from the detector.
type ref struct {
	Kind    refKind
	Fields  []string
	Objects int
	AtMost  bool
}

// check reports whether one verdict — its racy field names and racy
// object count on the given scheduler seed — matches the reference.
func (r ref) check(fields map[string]bool, objects int, seed int64) bool {
	switch r.Kind {
	case refClean:
		return len(fields) == 0
	case refRacy:
		for _, f := range r.Fields {
			if !fields[f] {
				return false
			}
		}
		return true
	case refNoDomOnly:
		for _, f := range r.Fields {
			if fields[f] {
				return false
			}
		}
		return true
	case refSchedDep:
		allowed := map[string]bool{}
		for _, f := range r.Fields {
			allowed[f] = true
		}
		for f := range fields {
			if !allowed[f] {
				return false
			}
		}
		return true
	default:
		for _, f := range r.Fields {
			if !fields[f] {
				return false
			}
		}
		if r.AtMost && seed != 0 {
			return objects >= 1 && objects <= r.Objects
		}
		return objects == r.Objects
	}
}

// scheduleMiss reports whether a verdict that fails check only
// under-reports a race the reference marks schedule-dependent, on a
// seeded schedule. Such a verdict is counted as a schedule miss, not a
// wrong verdict: the paper's ownership filter (§7) does not check an
// object until a second thread touches it, so a schedule that runs one
// racing thread past its accesses before the other starts hides the
// race by design. On the round-robin schedule internal/corpus pins
// (seed 0) every reference holds exactly.
func (r ref) scheduleMiss(objects int, seed int64) bool {
	if seed == 0 {
		return false
	}
	return r.Kind == refRacy || (r.Kind == refObjects && r.AtMost && objects <= r.Objects)
}

// mismatch describes how a verdict differs from the reference (nil
// when it matches).
func (r ref) mismatch(name string, fields map[string]bool, objects int, seed int64) error {
	if r.check(fields, objects, seed) {
		return nil
	}
	got := make([]string, 0, len(fields))
	for f := range fields {
		got = append(got, f)
	}
	sort.Strings(got)
	return fmt.Errorf("%s: wrong verdict: want %s, got fields %v and %d racy objects", name, r, got, objects)
}

func (r ref) String() string {
	switch r.Kind {
	case refClean:
		return "clean"
	case refRacy:
		return "racy " + strings.Join(r.Fields, ",")
	case refNoDomOnly:
		return "not under Full: " + strings.Join(r.Fields, ",")
	case refSchedDep:
		return "at most " + strings.Join(r.Fields, ",")
	case refObjects:
		if r.AtMost {
			return fmt.Sprintf("1..%d racy objects", r.Objects)
		}
		return fmt.Sprintf("%d racy objects", r.Objects)
	default:
		return "?"
	}
}

// program is one benchmark input with its reference verdict.
type program struct {
	Name string
	File string
	Src  string
	Ref  ref
}

// table3Full is the Full column of Table 3 of Choi et al., "Efficient
// and Precise Datarace Detection for Multithreaded Object-Oriented
// Programs", PLDI 2002: the number of objects with dataraces reported
// per benchmark. The repository's MJ analogues reproduce these counts
// on the round-robin schedule.
var table3Full = map[string]int{
	"mtrt":     2,
	"tsp":      5,
	"sor2":     4,
	"elevator": 0,
	"hedc":     5,
}

// knownRaces are the races the paper discusses per benchmark, as
// internal/bench's TestKnownRaces pins them: each must be reported
// (hedc's on the round-robin schedule; see scheduleMiss).
var knownRaces = map[string][]string{
	"mtrt": {"RayTrace.threadCount", "ValidityCheckOutputStream.startOfLine"},
	"tsp":  {"TspSolver.MinTourLen"},
	"sor2": {"[]"},
	"hedc": {"Pool.size", "Task.thread_"},
}

// scheduleBoundCount marks benchmarks whose races depend on the
// schedule: only the objects two threads actually touch in a run race
// in it, so under a seeded schedule hedc reports 1 to 5 objects and
// now and then misses a known race. Table 3's count (one execution in
// the paper) is then an upper bound rather than an exact value.
var scheduleBoundCount = map[string]bool{"hedc": true}

// paperPrograms returns the named paper benchmarks with their Table 3
// references.
func paperPrograms(names ...string) ([]program, error) {
	var out []program
	for _, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			return nil, err
		}
		want, ok := table3Full[n]
		if !ok {
			return nil, fmt.Errorf("no Table 3 reference for %s", n)
		}
		out = append(out, program{Name: n, File: n + ".mj", Src: b.Source(),
			Ref: ref{Kind: refObjects, Objects: want, Fields: knownRaces[n], AtMost: scheduleBoundCount[n]}})
	}
	return out, nil
}

// corpusDir holds the idiom corpus, relative to the repository root.
const corpusDir = "internal/corpus/testdata"

var expectRE = regexp.MustCompile(`(?m)^// EXPECT-(RACY-NODOM-ONLY|SCHED-DEP|CLEAN|RACY)(?:: (.+))?$`)

// corpusPrograms loads every corpus idiom with the reference its
// EXPECT annotation states.
func corpusPrograms(root string) ([]program, error) {
	files, err := filepath.Glob(filepath.Join(root, corpusDir, "*.mj"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no corpus programs under %s", filepath.Join(root, corpusDir))
	}
	sort.Strings(files)
	var out []program
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		src := string(data)
		m := expectRE.FindStringSubmatch(src)
		if m == nil {
			return nil, fmt.Errorf("%s: missing EXPECT annotation", f)
		}
		r := ref{Kind: map[string]refKind{
			"CLEAN": refClean, "RACY": refRacy, "RACY-NODOM-ONLY": refNoDomOnly, "SCHED-DEP": refSchedDep,
		}[m[1]]}
		if r.Kind != refClean {
			for _, fld := range strings.Split(m[2], ",") {
				r.Fields = append(r.Fields, strings.TrimSpace(fld))
			}
		}
		name := strings.TrimSuffix(filepath.Base(f), ".mj")
		out = append(out, program{Name: name, File: name + ".mj", Src: src, Ref: r})
	}
	return out, nil
}

// interactiveMix is the cold-verdict and daemon-mix input set: the
// corpus idioms plus the paper's two interactive programs.
func interactiveMix(root string) ([]program, error) {
	corpus, err := corpusPrograms(root)
	if err != nil {
		return nil, err
	}
	paper, err := paperPrograms("elevator", "hedc")
	if err != nil {
		return nil, err
	}
	return append(corpus, paper...), nil
}
