package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"racedet/internal/core"
)

// allPrograms is every benchmark input: the corpus idioms and the five
// paper programs.
func allPrograms(t *testing.T) []program {
	t.Helper()
	corpus, err := corpusPrograms("..")
	if err != nil {
		t.Fatal(err)
	}
	paper, err := paperPrograms("mtrt", "tsp", "sor2", "elevator", "hedc")
	if err != nil {
		t.Fatal(err)
	}
	return append(corpus, paper...)
}

// TestMirrorGuard: the traced, layer-by-layer compile instruments every
// program exactly as core.Compile does.
func TestMirrorGuard(t *testing.T) {
	for _, p := range allPrograms(t) {
		if err := mirrorGuard(p); err != nil {
			t.Error(err)
		}
	}
}

// TestReferencesOnRoundRobin: on the round-robin schedule every
// reference holds strictly, with no schedule misses.
func TestReferencesOnRoundRobin(t *testing.T) {
	for _, p := range allPrograms(t) {
		pipe, err := core.Compile(p.File, p.Src, core.Full())
		if err != nil {
			t.Fatal(err)
		}
		if err := warmupErr(execFull(scope{}, pipe, p, 0)); err != nil {
			t.Error(err)
		}
	}
}

// TestReferenceKinds pins what each reference accepts.
func TestReferenceKinds(t *testing.T) {
	set := func(fs ...string) map[string]bool {
		m := map[string]bool{}
		for _, f := range fs {
			m[f] = true
		}
		return m
	}
	cases := []struct {
		ref     ref
		fields  map[string]bool
		objects int
		ok      bool
	}{
		{ref{Kind: refClean}, set(), 0, true},
		{ref{Kind: refClean}, set("A.x"), 1, false},
		{ref{Kind: refRacy, Fields: []string{"A.x"}}, set("A.x", "B.y"), 2, true},
		{ref{Kind: refRacy, Fields: []string{"A.x"}}, set("B.y"), 1, false},
		{ref{Kind: refNoDomOnly, Fields: []string{"A.x"}}, set(), 0, true},
		{ref{Kind: refNoDomOnly, Fields: []string{"A.x"}}, set("A.x"), 1, false},
		{ref{Kind: refSchedDep, Fields: []string{"A.x"}}, set(), 0, true},
		{ref{Kind: refSchedDep, Fields: []string{"A.x"}}, set("B.y"), 1, false},
		{ref{Kind: refObjects, Objects: 2}, set("A.x"), 2, true},
		{ref{Kind: refObjects, Objects: 2}, set("A.x"), 3, false},
		{ref{Kind: refObjects, Objects: 5, AtMost: true, Fields: []string{"A.x"}}, set("A.x"), 3, true},
		{ref{Kind: refObjects, Objects: 5, AtMost: true, Fields: []string{"A.x"}}, set("A.x"), 6, false},
		{ref{Kind: refObjects, Objects: 5, AtMost: true, Fields: []string{"A.x"}}, set(), 0, false},
	}
	for i, c := range cases {
		if got := c.ref.check(c.fields, c.objects, 7); got != c.ok {
			t.Errorf("case %d (%s): check = %v, want %v", i, c.ref, got, c.ok)
		}
	}
	racy := ref{Kind: refRacy, Fields: []string{"A.x"}}
	bound := ref{Kind: refObjects, Objects: 5, AtMost: true, Fields: []string{"A.x"}}
	exact := ref{Kind: refObjects, Objects: 2}
	if !racy.scheduleMiss(0, 7) || racy.scheduleMiss(0, 0) {
		t.Error("an EXPECT-RACY miss is a schedule miss on seeded schedules only")
	}
	if !bound.scheduleMiss(1, 7) || bound.scheduleMiss(6, 7) || bound.scheduleMiss(1, 0) {
		t.Error("an upper-bound reference forgives under-reporting on seeded schedules only")
	}
	if bound.check(map[string]bool{"A.x": true}, 3, 0) {
		t.Error("the round-robin schedule must match an upper-bound reference exactly")
	}
	if exact.scheduleMiss(1, 7) || (ref{Kind: refClean}).scheduleMiss(1, 7) {
		t.Error("exact and clean references never forgive a mismatch")
	}
}

// TestExactCounters: two traced runs with one seed repeat every count
// metric exactly, and every verdict keeps the filter invariant (a
// broken invariant fails the verdict).
func TestExactCounters(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs []*result
			for i := 0; i < 2; i++ {
				r, err := run(w, env{root: "..", tmp: t.TempDir(), seed: 3}, time.Millisecond, true)
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 {
					t.Fatalf("%d of %d verdicts failed: %s", r.Failed, r.Attempted, r.FirstFail)
				}
				runs = append(runs, r)
			}
			for _, d := range layerDefs {
				if !d.Exact {
					continue
				}
				a, b := runs[0].Metrics[d.Name], runs[1].Metrics[d.Name]
				if a != b {
					t.Errorf("%s: %v then %v", d.Name, a, b)
				}
			}
			for _, name := range []string{"interp.steps", "detector.accesses", "trie.events",
				"instrument.traces_emitted", "trace.bytes"} {
				if runs[0].Metrics[name] <= 0 {
					t.Errorf("%s = %v, want a positive count", name, runs[0].Metrics[name])
				}
			}
		})
	}
}

// TestBenchmarkJSON: BENCHMARK.json names exactly the workloads and
// metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range workloads {
		if !w.dropped {
			listed = append(listed, w.name)
		}
	}
	if len(spec.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program lists %d", len(spec.Workloads), len(listed))
	}
	for i, name := range listed {
		if spec.Workloads[i].Name != name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		var want []metricDef
		for _, d := range defs {
			if !d.LedgerOnly {
				want = append(want, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i,
					got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, layerDefs)
}
