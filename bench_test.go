// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus the ablations DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Table 2 benches report wall time per full benchmark execution under
// each configuration; compare a benchmark's Full time against its Base
// time to get the paper's overhead percentages. The deterministic
// counters behind the same table are asserted in
// internal/bench/bench_test.go and printed by cmd/racebench.
package racedet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"racedet/internal/bench"
	"racedet/internal/core"
	"racedet/internal/rt/cache"
	"racedet/internal/rt/event"
	"racedet/internal/rt/trace"
	"racedet/internal/rt/trie"
)

// runPipeline benchmarks repeated executions of a compiled benchmark.
func runPipeline(b *testing.B, name string, cfg core.Config) {
	bm, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := core.Compile(name+".mj", bm.Source(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipe.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table 1: benchmark characteristics — front-end + static pipeline cost.

func BenchmarkTable1Compile(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			src := bm.Source()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(bm.Name+".mj", src, core.Full()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Table 2: runtime performance of the optimization ablations on the
// CPU-bound benchmarks (mtrt, tsp, sor2).

func BenchmarkTable2(b *testing.B) {
	for _, bm := range bench.All() {
		if !bm.CPUBound {
			continue
		}
		for _, c := range bench.Table2Configs() {
			name := fmt.Sprintf("%s/%s", bm.Name, c.Name)
			cfg := c.Cfg
			b.Run(name, func(b *testing.B) {
				runPipeline(b, bm.Name, cfg)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Sharded/batched back end: the same Full-configuration runs through
// the location-sharded detector and the per-thread batching front end.
// Compare against BenchmarkTable2/<name>/Full for the speedup; the
// differential test in internal/corpus pins the reports as identical.

func BenchmarkSharded(b *testing.B) {
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"Shards1", func() core.Config { c := core.Full(); c.Shards = 1; return c }()},
		{"Shards4", func() core.Config { c := core.Full(); c.Shards = 4; return c }()},
		{"Batch64", func() core.Config { c := core.Full(); c.BatchSize = 64; return c }()},
		{"Shards4Batch64", func() core.Config {
			c := core.Full()
			c.Shards = 4
			c.BatchSize = 64
			return c
		}()},
	}
	for _, bm := range bench.All() {
		if !bm.CPUBound {
			continue
		}
		for _, v := range variants {
			name := fmt.Sprintf("%s/%s", bm.Name, v.name)
			cfg := v.cfg
			b.Run(name, func(b *testing.B) {
				runPipeline(b, bm.Name, cfg)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Trace replay: the detector's per-access path with no interpreter and
// no compile. Each paper benchmark is recorded once under Full; every
// iteration replays the trace through a fresh detector, with a
// sequential decoder except in the ParallelDecode cases. ns/access is
// wall time per recorded access event.

func BenchmarkReplay(b *testing.B) {
	for _, name := range []string{"mtrt", "tsp", "sor2", "elevator", "hedc"} {
		bm, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		rec := core.Full()
		rec.TraceTo = &buf
		res, err := core.RunSource(name+".mj", bm.Source(), rec)
		if err != nil || res.Err != nil {
			b.Fatalf("%s: recording: %v/%v", name, err, res.Err)
		}
		rd, err := trace.NewReader(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		sharded := func(n int) core.Config {
			cfg := core.Full()
			cfg.Shards = n
			cfg.BatchSize = 64
			return cfg
		}
		// The ParallelDecode cases decode segments on GOMAXPROCS workers
		// while the detector consumes them. Shards1Batch64 against
		// Shards4Batch64 separates the gain of pipelining the front end
		// against the trie from that of spreading trie work over shards.
		for _, c := range []struct {
			name     string
			cfg      core.Config
			parallel int
		}{
			{"Full", core.Full(), 1},
			{"NoCache", core.Full().NoCache(), 1},
			{"ParallelDecode/Full", core.Full(), 0},
			{"ParallelDecode/Shards1Batch64", sharded(1), 0},
			{"ParallelDecode/Shards4Batch64", sharded(4), 0},
		} {
			cfg, parallel := c.cfg, c.parallel
			b.Run(name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				var accesses uint64
				for i := 0; i < b.N; i++ {
					rr, err := core.ReplayTrace(rd, cfg, parallel)
					if err != nil || rr.Err != nil {
						b.Fatalf("%v/%v", err, rr.Err)
					}
					accesses += rr.Interp.TraceEvents
				}
				if accesses > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Table 3: accuracy variants (the run must also produce the counts; we
// benchmark the detection cost of each variant on every benchmark).

func BenchmarkTable3(b *testing.B) {
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"Full", core.Full()},
		{"FieldsMerged", core.Full().MergedFields()},
		{"NoOwnership", core.Full().NoOwnership()},
	}
	for _, bm := range bench.All() {
		for _, v := range variants {
			name := fmt.Sprintf("%s/%s", bm.Name, v.name)
			cfg := v.cfg
			b.Run(name, func(b *testing.B) {
				runPipeline(b, bm.Name, cfg)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 2: the three-thread example through the whole pipeline.

const figure2Src = `
class Shared { int f; int g; }
class T1 extends Thread {
    Shared a; Shared b; Shared p;
    T1(Shared obj, Shared lock) { a = obj; b = obj; p = lock; }
    synchronized void foo() {
        a.f = 50;
        synchronized (p) { b.g = b.f; }
    }
    void run() { foo(); }
}
class T2 extends Thread {
    Shared d; Shared q;
    T2(Shared obj, Shared lock) { d = obj; q = lock; }
    void bar() { synchronized (q) { d.f = 10; } }
    void run() { bar(); }
}
class Main {
    static Shared x;
    static void main() {
        x = new Shared();
        x.f = 100;
        Shared lockP = new Shared();
        Shared lockQ = new Shared();
        Thread t1 = new T1(x, lockP);
        Thread t2 = new T2(x, lockQ);
        t1.start(); t2.start();
        t1.join(); t2.join();
        print(x.f);
    }
}`

func BenchmarkFigure2Detection(b *testing.B) {
	pipe, err := core.Compile("fig2.mj", figure2Src, core.Full())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipe.Run()
		if err != nil || res.Err != nil {
			b.Fatalf("%v/%v", err, res.Err)
		}
		if len(res.RacyObjects) != 1 {
			b.Fatal("figure 2 race lost")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 3: loop peeling — the array kernel with and without peeling.

const figure3Src = `
class A {
    int total;
    void fill(int[] a, int n) {
        for (int i = 0; i < n; i++) {
            a[i] = i;
        }
        total = n;
    }
}
class W extends Thread {
    A a; int[] buf;
    W(A a0, int[] b0) { a = a0; buf = b0; }
    void run() { a.fill(buf, buf.length); }
}
class Main {
    static void main() {
        A a = new A();
        int[] shared = new int[512];
        W w1 = new W(a, shared);
        W w2 = new W(a, shared);
        w1.start(); w2.start();
        w1.join(); w2.join();
        print(a.total);
    }
}`

func BenchmarkFigure3Peeling(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  core.Config
	}{
		{"WithPeeling", core.Full()},
		{"NoPeeling", core.Full().NoPeeling()},
		{"NoDominators", core.Full().NoDominators()},
	} {
		cfg := v.cfg
		b.Run(v.name, func(b *testing.B) {
			pipe, err := core.Compile("fig3.mj", figure3Src, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := pipe.Run()
				if err != nil || res.Err != nil {
					b.Fatalf("%v/%v", err, res.Err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Detector comparison (§8.3/§9): same program, four algorithms.

func BenchmarkDetectorComparison(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  core.Config
	}{
		{"Trie", core.Full()},
		{"Eraser", core.Full().WithDetector(core.DetEraser)},
		{"ObjectRace", core.Full().WithDetector(core.DetObjectRace)},
		{"HappensBefore", core.Full().WithDetector(core.DetVClock)},
	} {
		cfg := v.cfg
		b.Run(v.name, func(b *testing.B) {
			runPipeline(b, "hedc", cfg)
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: trie vs flat history (DESIGN.md §4.1). The flat reference
// stores every access per location and scans it on each event.

type flatDetector struct {
	history map[event.Loc][]event.Access
}

func (f *flatDetector) process(e event.Access) bool {
	h := f.history[e.Loc]
	race := false
	for _, p := range h {
		if event.IsRace(p, e) {
			race = true
			break
		}
	}
	f.history[e.Loc] = append(h, e)
	return race
}

// syntheticStream builds an event stream with heavy same-lockset
// repetition (what real programs produce).
func syntheticStream(n int) []event.Access {
	rng := rand.New(rand.NewSource(42))
	out := make([]event.Access, n)
	locksets := []event.Lockset{
		event.NewLockset(),
		event.NewLockset(100),
		event.NewLockset(100, 200),
		event.NewLockset(300),
	}
	for i := range out {
		out[i] = event.Access{
			Loc:    event.Loc{Obj: event.ObjID(rng.Intn(8) + 1), Slot: 0},
			Thread: event.ThreadID(rng.Intn(3)),
			Kind:   event.Kind(rng.Intn(2)),
			Locks:  locksets[rng.Intn(len(locksets))],
		}
	}
	return out
}

func BenchmarkAblationTrieVsFlat(b *testing.B) {
	stream := syntheticStream(20000)
	b.Run("Trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := trie.New()
			for j := range stream {
				d.Process(&stream[j])
			}
		}
	})
	b.Run("FlatHistory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := &flatDetector{history: make(map[event.Loc][]event.Access)}
			for _, e := range stream {
				d.process(e)
			}
		}
	})
}

// Ablation: the t⊥ space optimization (DESIGN.md §4.2).
func BenchmarkAblationTBot(b *testing.B) {
	stream := syntheticStream(20000)
	b.Run("WithTBot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := trie.New()
			for j := range stream {
				d.Process(&stream[j])
			}
		}
	})
	b.Run("NoTBot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := trie.NewNoTBot()
			for j := range stream {
				d.Process(&stream[j])
			}
		}
	})
}

// Ablation: §8.2's multi-location packing vs the per-location trie.
func BenchmarkAblationPackedTrie(b *testing.B) {
	stream := syntheticStream(20000)
	b.Run("PerLocation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := trie.New()
			for j := range stream {
				d.Process(&stream[j])
			}
		}
	})
	b.Run("Packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := trie.NewPacked()
			for j := range stream {
				d.Process(&stream[j])
			}
		}
	})
}

// Ablation: the cache hit path (the paper's "ten PowerPC instructions").
func BenchmarkCacheHitPath(b *testing.B) {
	c := cache.New()
	loc := event.Loc{Obj: 7, Slot: 0}
	c.Insert(1, loc, event.Read, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Lookup(1, loc, event.Read) {
			b.Fatal("must hit")
		}
	}
}

// Baseline interpreter speed (events per second context for Table 2).
func BenchmarkInterpreterBase(b *testing.B) {
	runPipeline(b, "sor2", core.Base())
}
