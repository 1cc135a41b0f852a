package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"testing"

	"racedet/internal/core"
	"racedet/internal/rt/detector"
)

// JSONResult is one (benchmark, configuration) measurement in the
// machine-readable report: the Go benchmark metrics plus the detection
// outcome, so a performance regression and a precision regression are
// both visible from the same artifact.
type JSONResult struct {
	Benchmark string `json:"benchmark"`
	Config    string `json:"config"`
	Shards    int    `json:"shards,omitempty"`
	BatchSize int    `json:"batch_size,omitempty"`
	// NsPerOp is the median over Reps independent measurements (the
	// reps are interleaved across configurations so load drift on the
	// host hits every configuration equally); NsMin/NsMax give the
	// spread. With Reps <= 1 it is the single measurement and the
	// spread fields are omitted.
	NsPerOp     int64 `json:"ns_per_op"`
	Reps        int   `json:"reps,omitempty"`
	NsMin       int64 `json:"ns_min,omitempty"`
	NsMax       int64 `json:"ns_max,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	RacyObjects int   `json:"racy_objects"`

	// Replay-throughput axis. EventsPerSec is the detection rate
	// derived from the median ns/op (present on the Replay* rows and
	// on live rows that count trace events, so the replay-vs-live
	// speedup is one division away); TraceBytes is the size of the
	// recorded binary trace a Replay* row streams.
	EventsPerSec int64 `json:"events_per_sec,omitempty"`
	TraceBytes   int   `json:"trace_bytes,omitempty"`

	// Static-phase outcome of the cell's compile (identical across
	// reps): wall time of the analyses and the emitted-trace budget.
	// TracesEmitted = TracesInserted - TracesEliminated is the count
	// the NoInterproc-vs-Full comparison gates on.
	StaticAnalysisNs int64 `json:"static_analysis_ns,omitempty"`
	TracesInserted   int   `json:"traces_inserted,omitempty"`
	TracesEliminated int   `json:"traces_eliminated,omitempty"`
	TracesEmitted    int   `json:"traces_emitted,omitempty"`
	ElimInterproc    int   `json:"elim_interproc,omitempty"`

	// QueueHighWater is the deepest shard queue of the sharded
	// configurations, in batches (last run of the measurement; omitted
	// when zero).
	QueueHighWater int `json:"queue_high_water,omitempty"`

	// Filter axis (last run of the measurement): every observed event
	// is shipped to the trie, a cache hit, or an owner skip.
	EventsObserved uint64 `json:"events_observed,omitempty"`
	EventsShipped  uint64 `json:"events_shipped,omitempty"`
}

// JSONReport is the top-level structure of the bench JSON artifact
// (BENCH_PR2.json and successors).
type JSONReport struct {
	Note    string       `json:"note"`
	Results []JSONResult `json:"results"`
}

// ReadJSON parses a report previously written by WriteJSON, so tools
// downstream of the artifact (the CI perf gate) share the schema with
// the writer instead of re-declaring it.
func ReadJSON(r io.Reader) (*JSONReport, error) {
	var rep JSONReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("parsing bench report: %w", err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("parsing bench report: no results")
	}
	return &rep, nil
}

// JSONOptions parameterizes the parallel variants of the measured
// matrix. The zero value selects the defaults (4 shards, batch 64,
// one measurement rep).
type JSONOptions struct {
	Shards    int
	BatchSize int
	// BenchReps is how many times each (benchmark, config) cell is
	// measured. The reps are interleaved — every cell is measured once
	// before any cell is measured twice — so slow phases of a noisy
	// host spread across all configurations instead of biasing whichever
	// one they landed on; the report carries the median and the spread.
	BenchReps int
}

func (o JSONOptions) withDefaults() JSONOptions {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.BenchReps <= 0 {
		o.BenchReps = 1
	}
	return o
}

// jsonConfigs is the measured matrix: the paper's Table 2 ablations
// plus the parallel back-end variants introduced with the sharded
// detector.
func jsonConfigs(o JSONOptions) []struct {
	Name string
	Cfg  core.Config
} {
	o = o.withDefaults()
	configs := Table2Configs()
	sharded := core.Full()
	sharded.Shards = o.Shards
	batched := core.Full()
	batched.BatchSize = o.BatchSize
	both := core.Full()
	both.Shards = o.Shards
	both.BatchSize = o.BatchSize
	add := func(name string, cfg core.Config) struct {
		Name string
		Cfg  core.Config
	} {
		return struct {
			Name string
			Cfg  core.Config
		}{name, cfg}
	}
	return append(configs,
		add(fmt.Sprintf("FullSharded%d", o.Shards), sharded),
		add(fmt.Sprintf("FullBatched%d", o.BatchSize), batched),
		add(fmt.Sprintf("FullSharded%dBatched%d", o.Shards, o.BatchSize), both),
	)
}

// measureStaticAnalysis adds one "StaticAnalysis" pseudo-configuration
// row per benchmark: ns/op of the whole compile phase (parse through
// instrumentation) under the Full configuration, so the perf gate can
// watch static-analysis wall time alongside the runtime columns.
func measureStaticAnalysis(o JSONOptions) ([]JSONResult, error) {
	var out []JSONResult
	for _, b := range All() {
		var ns, allocs, bytes []int64
		var pipe *core.Pipeline
		for rep := 0; rep < o.BenchReps; rep++ {
			var compErr error
			br := testing.Benchmark(func(tb *testing.B) {
				tb.ReportAllocs()
				for i := 0; i < tb.N; i++ {
					p, err := core.Compile(b.Name+".mj", b.Source(), core.Full())
					if err != nil {
						compErr = err
						tb.FailNow()
					}
					pipe = p
				}
			})
			if compErr != nil {
				return nil, fmt.Errorf("bench %s/StaticAnalysis: %w", b.Name, compErr)
			}
			ns = append(ns, br.NsPerOp())
			allocs = append(allocs, br.AllocsPerOp())
			bytes = append(bytes, br.AllocedBytesPerOp())
		}
		r := JSONResult{
			Benchmark:        b.Name,
			Config:           "StaticAnalysis",
			NsPerOp:          median(ns),
			AllocsPerOp:      median(allocs),
			BytesPerOp:       median(bytes),
			StaticAnalysisNs: pipe.StaticStats.AnalysisNs,
			TracesInserted:   pipe.InstrStats.Inserted,
			TracesEliminated: pipe.InstrStats.Eliminated,
			TracesEmitted:    pipe.InstrStats.Inserted - pipe.InstrStats.Eliminated,
			ElimInterproc:    pipe.StaticStats.ElimInterproc,
		}
		if o.BenchReps > 1 {
			r.Reps = o.BenchReps
			r.NsMin, r.NsMax = minMax(ns)
		}
		out = append(out, r)
	}
	return out, nil
}

// median returns the middle element of the samples (the lower middle
// for even counts, so the result is always an observed value).
func median(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

func minMax(xs []int64) (lo, hi int64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// jsonCell is one (benchmark, configuration) measurement target: the
// pipeline is compiled once and re-measured on every rep.
type jsonCell struct {
	bench   string
	cfgName string
	cfg     core.Config
	pipe    *core.Pipeline

	ns, allocs, bytes []int64
	racy              int
	events            uint64
	rec               detector.RecoveryStats
	det               detector.Stats
}

func (cl *jsonCell) measure() error {
	var runErr error
	br := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			rr, err := cl.pipe.RunConfig(cl.cfg)
			if err != nil {
				runErr = err
				tb.FailNow()
			}
			if rr.Err != nil {
				runErr = rr.Err
				tb.FailNow()
			}
			cl.racy = len(rr.RacyObjects)
			cl.events = rr.Interp.TraceEvents
			cl.rec = rr.DetectorStats.Recovery
			cl.det = rr.DetectorStats
		}
	})
	if runErr != nil {
		return fmt.Errorf("bench %s/%s: %w", cl.bench, cl.cfgName, runErr)
	}
	cl.ns = append(cl.ns, br.NsPerOp())
	cl.allocs = append(cl.allocs, br.AllocsPerOp())
	cl.bytes = append(cl.bytes, br.AllocedBytesPerOp())
	return nil
}

// WriteJSON measures all five paper benchmarks under the JSON config
// matrix with the testing package's benchmark driver and writes the
// report to w. With BenchReps > 1 every cell is measured that many
// times, reps interleaved across cells, and the report carries the
// median with min/max spread.
func WriteJSON(w io.Writer, opts JSONOptions) error {
	o := opts.withDefaults()
	var cells []*jsonCell
	for _, b := range All() {
		for _, c := range jsonConfigs(opts) {
			pipe, err := core.Compile(b.Name+".mj", b.Source(), c.Cfg)
			if err != nil {
				return fmt.Errorf("bench %s/%s: %w", b.Name, c.Name, err)
			}
			cells = append(cells, &jsonCell{bench: b.Name, cfgName: c.Name, cfg: c.Cfg, pipe: pipe})
		}
	}
	rcells, err := replayCells(opts)
	if err != nil {
		return err
	}
	for rep := 0; rep < o.BenchReps; rep++ {
		for _, cl := range cells {
			if err := cl.measure(); err != nil {
				return err
			}
		}
		for _, cl := range rcells {
			if err := cl.measure(); err != nil {
				return err
			}
		}
	}

	rep := JSONReport{
		Note: "racebench machine-readable results; regenerate with: racebench -json <path>",
	}
	for _, cl := range cells {
		r := JSONResult{
			Benchmark:        cl.bench,
			Config:           cl.cfgName,
			Shards:           cl.cfg.Shards,
			BatchSize:        cl.cfg.BatchSize,
			NsPerOp:          median(cl.ns),
			AllocsPerOp:      median(cl.allocs),
			BytesPerOp:       median(cl.bytes),
			RacyObjects:      cl.racy,
			StaticAnalysisNs: cl.pipe.StaticStats.AnalysisNs,
			TracesInserted:   cl.pipe.InstrStats.Inserted,
			TracesEliminated: cl.pipe.InstrStats.Eliminated,
			TracesEmitted:    cl.pipe.InstrStats.Inserted - cl.pipe.InstrStats.Eliminated,
			ElimInterproc:    cl.pipe.StaticStats.ElimInterproc,
			QueueHighWater:   cl.rec.QueueHighWater,
			EventsPerSec:     eventsPerSec(cl.events, median(cl.ns)),
			EventsObserved:   cl.det.Accesses,
			EventsShipped:    cl.det.Shipped,
		}
		if o.BenchReps > 1 {
			r.Reps = o.BenchReps
			r.NsMin, r.NsMax = minMax(cl.ns)
		}
		rep.Results = append(rep.Results, r)
	}
	for _, cl := range rcells {
		r := JSONResult{
			Benchmark:    cl.bench,
			Config:       cl.cfgName,
			Shards:       cl.cfg.Shards,
			BatchSize:    cl.cfg.BatchSize,
			NsPerOp:      median(cl.ns),
			AllocsPerOp:  median(cl.allocs),
			BytesPerOp:   median(cl.bytes),
			RacyObjects:  cl.racy,
			EventsPerSec: eventsPerSec(cl.events, median(cl.ns)),
			TraceBytes:   cl.traceBytes,
		}
		if o.BenchReps > 1 {
			r.Reps = o.BenchReps
			r.NsMin, r.NsMax = minMax(cl.ns)
		}
		rep.Results = append(rep.Results, r)
	}
	static, err := measureStaticAnalysis(o)
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, static...)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
