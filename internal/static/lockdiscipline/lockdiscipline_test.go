package lockdiscipline_test

import (
	"strings"
	"testing"

	"racedet/internal/core"
	"racedet/internal/static/lockdiscipline"
)

// analyze compiles src under the Full configuration and returns its
// lock-discipline classification.
func analyze(t *testing.T, src string) *lockdiscipline.Result {
	t.Helper()
	p, err := core.Compile("t.mj", src, core.Full())
	if err != nil {
		t.Fatal(err)
	}
	if p.Discipline == nil {
		t.Fatal("Full compile produced no discipline result")
	}
	return p.Discipline
}

// Two threads write one field with no lock held.
const unguardedSrc = `
class Data { int f; }
class W extends Thread {
    Data d;
    W(Data d0) { d = d0; }
    void run() { d.f = 1; }
}
class Main {
    static void main() {
        Data d = new Data();
        W a = new W(d);
        W b = new W(d);
        a.start(); b.start();
        a.join(); b.join();
    }
}`

// Two threads write one field, each under its own lock.
const inconsistentSrc = `
class Data { int f; }
class Lock { int x; }
class L extends Thread {
    Data d; Lock l;
    L(Data d0, Lock l0) { d = d0; l = l0; }
    void run() { synchronized (l) { d.f = 1; } }
}
class R extends Thread {
    Data d; Lock l;
    R(Data d0, Lock l0) { d = d0; l = l0; }
    void run() { synchronized (l) { d.f = 2; } }
}
class Main {
    static void main() {
        Data d = new Data();
        L a = new L(d, new Lock());
        R b = new R(d, new Lock());
        a.start(); b.start();
        a.join(); b.join();
    }
}`

// A single-instance thread class whose constructor writes a field its
// run method reads: the only surviving pair is ordered by start().
const startOrderedSrc = `
class Job extends Thread {
    int n;
    Job() { n = 5; }
    void run() { print(n); }
}
class Main {
    static void main() {
        Job j = new Job();
        j.start();
        j.join();
        print(j.n);
    }
}`

func TestTierPerProgram(t *testing.T) {
	cases := []struct {
		name string
		src  string
		tier lockdiscipline.Tier
	}{
		{"unguarded", unguardedSrc, lockdiscipline.Unguarded},
		{"guarded-inconsistent", inconsistentSrc, lockdiscipline.GuardedInconsistent},
		{"guarded-consistent", startOrderedSrc, lockdiscipline.GuardedConsistent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := analyze(t, tc.src)
			if len(r.Pairs) == 0 || len(r.Tier) == 0 {
				t.Fatalf("no surviving pairs or kept sites:\n%s", r.Report())
			}
			for in, got := range r.Tier {
				if got != tc.tier {
					t.Errorf("site %s: tier %s, want %s", in.Pos, got, tc.tier)
				}
			}
			sites := map[lockdiscipline.Tier]int{
				lockdiscipline.Unguarded:           r.UnguardedSites,
				lockdiscipline.GuardedInconsistent: r.InconsistentSites,
				lockdiscipline.GuardedConsistent:   r.ConsistentSites,
			}
			for tier, n := range sites {
				want := 0
				if tier == tc.tier {
					want = len(r.Tier)
				}
				if n != want {
					t.Errorf("%s sites = %d, want %d", tier, n, want)
				}
			}
			for _, p := range r.Pairs {
				if tc.tier == lockdiscipline.GuardedConsistent {
					if !p.Demoted {
						t.Errorf("pair %s <-> %s is live in a guarded-consistent program", p.X, p.Y)
					}
				} else if p.Demoted || p.Tier != tc.tier {
					t.Errorf("pair %s <-> %s: tier %s demoted=%v, want live %s", p.X, p.Y, p.Tier, p.Demoted, tc.tier)
				}
			}
			if tc.tier == lockdiscipline.GuardedInconsistent {
				for _, p := range r.Pairs {
					if len(p.XLocks) == 0 || len(p.YLocks) == 0 {
						t.Errorf("inconsistent pair with an empty side: %v / %v", p.XLocks, p.YLocks)
					}
				}
			}
		})
	}
}

// TestStartOrderDemotion pins the may-happen-in-parallel refinement:
// the ctor-vs-run pair of a single-instance thread class is demoted,
// but not when the class is allocated in a loop (many instances) or
// starts itself in its constructor (an unsafe thread class).
func TestStartOrderDemotion(t *testing.T) {
	r := analyze(t, startOrderedSrc)
	if r.DemotedPairs != 1 || r.UnguardedPairs != 0 || r.InconsistentPairs != 0 {
		t.Fatalf("single instance: demoted=%d unguarded=%d inconsistent=%d, want 1/0/0",
			r.DemotedPairs, r.UnguardedPairs, r.InconsistentPairs)
	}

	manyInstances := strings.Replace(startOrderedSrc,
		"Job j = new Job();\n        j.start();\n        j.join();\n        print(j.n);",
		"for (int i = 0; i < 2; i++) {\n            Job j = new Job();\n            j.start();\n            j.join();\n            print(j.n);\n        }", 1)
	startInCtor := strings.Replace(
		strings.Replace(startOrderedSrc, "Job() { n = 5; }", "Job() { n = 5; start(); }", 1),
		"j.start();\n", "", 1)
	for name, src := range map[string]string{"many instances": manyInstances, "start in ctor": startInCtor} {
		if src == startOrderedSrc {
			t.Fatalf("%s: program rewrite did not apply", name)
		}
		r := analyze(t, src)
		if r.DemotedPairs != 0 || r.UnguardedPairs != 1 {
			t.Errorf("%s: demoted=%d unguarded=%d, want 0/1 (pair must stay live):\n%s",
				name, r.DemotedPairs, r.UnguardedPairs, r.Report())
		}
	}
}

// TestReportRankOrder checks that Report ranks pairs by severity —
// live unguarded, live guarded-inconsistent, then start-ordered — even
// when source order is the exact reverse.
func TestReportRankOrder(t *testing.T) {
	src := `
class Job extends Thread {
    int n;
    Job() { n = 5; }
    void run() { print(n); }
}
class Data { int f; int g; }
class Lock { int x; }
class L extends Thread {
    Data d; Lock l;
    L(Data d0, Lock l0) { d = d0; l = l0; }
    void run() { synchronized (l) { d.f = 1; } d.g = 1; }
}
class R extends Thread {
    Data d; Lock l;
    R(Data d0, Lock l0) { d = d0; l = l0; }
    void run() { synchronized (l) { d.f = 2; } d.g = 2; }
}
class Main {
    static void main() {
        Job j = new Job();
        j.start();
        Data d = new Data();
        L a = new L(d, new Lock());
        R b = new R(d, new Lock());
        a.start(); b.start();
        a.join(); b.join(); j.join();
        print(j.n);
    }
}`
	r := analyze(t, src)
	rep := r.Report()
	lines := strings.Split(strings.TrimSuffix(rep, "\n"), "\n")
	want := []string{
		"lock discipline: 3 surviving may-race pair(s): 1 unguarded, 1 guarded-inconsistent, 1 start-ordered (demoted)",
		"  [unguarded           ] Data.g: ",
		"  [guarded-inconsistent] Data.f: ",
		"  [start-ordered       ] Job.n: ",
		"site tiers: 2 unguarded, 2 guarded-inconsistent, 2 guarded-consistent",
	}
	if len(lines) != len(want) {
		t.Fatalf("report has %d lines, want %d:\n%s", len(lines), len(want), rep)
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
	if again := analyze(t, src).Report(); again != rep {
		t.Errorf("report differs across compiles:\n%s\n---\n%s", rep, again)
	}

	tiers := r.SiteTiers()
	if len(tiers) != len(r.Tier) {
		t.Fatalf("SiteTiers has %d entries, Tier map %d", len(tiers), len(r.Tier))
	}
	for i := 1; i < len(tiers); i++ {
		a, b := tiers[i-1], tiers[i]
		if a.File == b.File && (a.Line > b.Line || a.Line == b.Line && a.Col > b.Col) {
			t.Errorf("SiteTiers out of source order at %d: %+v before %+v", i, a, b)
		}
	}
}
