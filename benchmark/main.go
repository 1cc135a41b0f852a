// Command racedet-bench is the repository's end-to-end benchmark:
// closed-loop workloads whose unit of work is one verdict (a request
// that yields a race report), every verdict checked against a
// reference that does not come from the detector. With -trace 1 it
// instead reports per-layer metrics from spans it records around its
// own calls into each layer. See README.md in this directory.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload cold-verdict --seed 1 --seconds 45 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// heldOutSeed is the seed kept out of tuning: a later claim of a gain
// must also hold on it.
const heldOutSeed = 7907

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupReps = 9

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed: draws program order and scheduler seeds")
		seconds = flag.Float64("seconds", 45, "length of the timed loop")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1")
	}
	var todo []workload
	for _, w := range workloads {
		if *name == w.name || (*name == "all" && !w.dropped) {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatalf("unknown --workload %q (want one of %s, or all)", *name, strings.Join(names, ", "))
	}
	root, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	for _, w := range todo {
		res, err := run(w, env{root: root, tmp: filepath.Join(root, ".bench_build", "tmp"), seed: *seed},
			time.Duration(*seconds*float64(time.Second)), *traced == 1)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if err := res.print(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		if err := res.writeLedger(filepath.Join(root, ".bench_build", "ledger")); err != nil {
			fatalf("%v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "racedet-bench: "+format+"\n", args...)
	os.Exit(1)
}

// stamp identifies the host, toolchain, commit and seed of a result.
type stamp struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	HeldOutSeed int64   `json:"held_out_seed"`
	Traced      bool    `json:"traced"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seconds     float64 `json:"seconds"`
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// result is one workload run's outcome.
type result struct {
	Stamp     stamp                         `json:"stamp"`
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`
	Wrong     int                           `json:"wrong_verdicts"`
	SchedMiss int                           `json:"schedule_misses"`
	FirstFail string                        `json:"first_failure,omitempty"`
	Metrics   map[string]float64            `json:"metrics"`
	Exact     map[string]bool               `json:"exact"`
	Programs  map[string]map[string]float64 `json:"per_program,omitempty"`
	Spans     []span                        `json:"spans,omitempty"`
}

func (r *result) defs() []metricDef {
	if r.Stamp.Traced {
		return layerDefs
	}
	return endToEnd
}

// print writes the human-readable report and, last, the one-line JSON
// result.
func (r *result) print(f *os.File) error {
	w := bufio.NewWriter(f)
	s := r.Stamp
	fmt.Fprintf(w, "# workload=%s seed=%d held-out-seed=%d traced=%v GOMAXPROCS=%d NumCPU=%d go=%s commit=%s\n",
		s.Workload, s.Seed, s.HeldOutSeed, s.Traced, s.Gomaxprocs, s.NumCPU, s.GoVersion, s.Commit)
	out := map[string]map[string]any{}
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		note := ""
		if d.Exact {
			note = " (exact)"
		}
		if d.LedgerOnly {
			note += " (ledger only)"
		} else {
			out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		}
		fmt.Fprintf(w, "%-32s %14.6g %s%s\n", d.Name, v, d.Unit, note)
	}
	ratio := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Fprintf(w, "%-32s %14d count\n", "wrong_verdicts", r.Wrong)
	fmt.Fprintf(w, "%-32s %14.6g ratio\n", "fail_ratio", ratio)
	fmt.Fprintf(w, "%-32s %14d count\n", "schedule_misses", r.SchedMiss)
	fmt.Fprintf(w, "%-32s %14d count\n", "verdicts_attempted", r.Attempted)
	if r.FirstFail != "" {
		fmt.Fprintf(w, "# first failure: %s\n", r.FirstFail)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// writeLedger writes the full result, spans included, as JSON.
func (r *result) writeLedger(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Stamp.Workload, r.Stamp.Seed, map[bool]int{false: 0, true: 1}[r.Stamp.Traced])
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// run sets w up, runs its timed closed loop and derives the metrics.
func run(w workload, e env, dur time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	r := &result{
		Stamp: stamp{Workload: w.name, Seed: e.seed, HeldOutSeed: heldOutSeed, Traced: traced,
			Gomaxprocs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
			Commit: commit(), Seconds: dur.Seconds()},
		Metrics: map[string]float64{},
		Exact:   map[string]bool{},
	}
	var tr *tracer
	reps := setupReps
	if traced {
		tr, reps = newTracer(), 1
	}
	var inst instance
	var setupS []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(e, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	if traced {
		for _, p := range inst.programs() {
			if err := mirrorGuard(p); err != nil {
				inst.close()
				return nil, err
			}
		}
	}

	lr := runLoop(inst, w.clients, dur, tr)
	loopLayer := inst.layerMetrics()
	if err := inst.close(); err != nil {
		return nil, err
	}
	r.Attempted, r.Failed, r.Wrong, r.SchedMiss = lr.attempted, lr.failed, lr.wrong, lr.schedMisses
	if lr.firstFail != nil {
		r.FirstFail = lr.firstFail.Error()
	}

	if !traced {
		r.Metrics["verdict_ms_p50"] = quantile(lr.untraced, 0.5)
		r.Metrics["verdict_ms_p90"] = quantile(lr.untraced, 0.9)
		r.Metrics["verdicts_per_s"] = float64(len(lr.untraced)) / lr.elapsed.Seconds()
		r.Metrics["setup_s"] = median(setupS)
		r.Metrics["peak_rss_mb"] = peakRSSMB()
		return r, nil
	}

	probeLayer, err := probe(e, tr, inst.programs())
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	r.Spans = tr.spans
	ix := indexSpans(tr.spans)
	all := make([]int, len(tr.spans))
	byProgram := map[string][]int{}
	for i, s := range tr.spans {
		all[i] = i
		if s.Program != "" {
			byProgram[s.Program] = append(byProgram[s.Program], i)
		}
	}
	for k, v := range layerMetricsOf(ix, all) {
		r.Metrics[k] = v
	}
	// Loop-level service metrics: the workload's own daemon first.
	for _, m := range []map[string]float64{probeLayer, loopLayer} {
		for k, v := range m {
			r.Metrics[k] = v
		}
	}
	tracedP50 := quantile(lr.traced, 0.5)
	r.Metrics["compile.share"] = r.Metrics["compile.ms"] / tracedP50
	r.Metrics["tracing.overhead_pct"] = 100 * (tracedP50/quantile(lr.untraced, 0.5) - 1)
	n := float64(lr.attempted)
	r.Metrics["runtime.alloc_kb_per_verdict"] = lr.allocBytes / 1024 / n
	r.Metrics["runtime.gc_cycles_per_verdict"] = lr.gcCycles / n
	for _, d := range layerDefs {
		r.Exact[d.Name] = d.Exact
	}
	r.Programs = map[string]map[string]float64{}
	for p, cand := range byProgram {
		r.Programs[p] = layerMetricsOf(ix, cand)
	}
	for _, d := range layerDefs {
		if _, ok := r.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	return r, nil
}

// loopResult is what the timed closed loop observed.
type loopResult struct {
	untraced, traced         []float64 // verdict latencies, ms
	attempted, failed, wrong int
	schedMisses              int
	firstFail                error
	elapsed                  time.Duration
	allocBytes, gcCycles     float64
}

// runLoop drives each client as a closed loop: a client sends its next
// verdict only when the previous one completed. Clients stop at the
// first round boundary after dur, so every run holds whole rounds and
// the program mix does not depend on where the clock stopped. In a
// traced run even rounds are traced and odd rounds are not, which
// measures the tracing overhead under the same conditions.
func runLoop(inst instance, clients int, dur time.Duration, tr *tracer) loopResult {
	var (
		mu sync.Mutex
		lr loopResult
		wg sync.WaitGroup
	)
	n := inst.roundLen()
	minRounds := 1
	if tr != nil {
		minRounds = 2
	}
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(samples)
	alloc0, gc0 := samples[0].Value.Uint64(), samples[1].Value.Uint64()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				round := k / n
				if k%n == 0 && round >= minRounds && time.Now().After(deadline) {
					return
				}
				var sc scope
				if tr != nil && round%2 == 0 {
					sc = tr.root("verdict", c<<32|k)
				}
				o := inst.verdict(c, sc)
				sc.end(nil)
				ms := float64(o.latency.Nanoseconds()) / 1e6
				mu.Lock()
				lr.attempted++
				switch {
				case o.failed != nil:
					lr.failed++
					if lr.firstFail == nil {
						lr.firstFail = o.failed
					}
				case o.schedMiss:
					lr.schedMisses++
				case o.wrong != nil:
					lr.wrong++
					lr.failed++
					if lr.firstFail == nil {
						lr.firstFail = o.wrong
					}
				}
				if sc.t != nil {
					lr.traced = append(lr.traced, ms)
				} else {
					lr.untraced = append(lr.untraced, ms)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	lr.elapsed = time.Since(start)
	metrics.Read(samples)
	lr.allocBytes = float64(samples[0].Value.Uint64() - alloc0)
	lr.gcCycles = float64(samples[1].Value.Uint64() - gc0)
	return lr
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
