package main

import (
	"math"
	"sort"
)

// metricDef is one metric's name, unit and whether it repeats exactly
// for a given seed (counts do; timings do not). LedgerOnly marks
// counters that read 0 on an undisturbed run (retries, shed jobs,
// restarts...): the ledger and the printed table keep them, the JSON
// result and BENCHMARK.json do not.
type metricDef struct {
	Name       string
	Unit       string
	Exact      bool
	LedgerOnly bool
}

// endToEnd are the metrics a user of the system sees.
var endToEnd = []metricDef{
	{Name: "verdict_ms_p50", Unit: "ms"},
	{Name: "verdict_ms_p90", Unit: "ms"},
	{Name: "verdicts_per_s", Unit: "1/s"},
	{Name: "setup_s", Unit: "s"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

// layerTimes maps a per-layer time metric to the span it measures.
// Leaf spans give self time; "compile" is reported whole.
var layerTimes = []struct{ metric, span string }{
	{"lang.parse_ms", "lang.parse"},
	{"lang.check_ms", "lang.check"},
	{"instrument.peel_ms", "instrument.peel"},
	{"lower.ms", "lower"},
	{"pointsto.ms", "pointsto"},
	{"icfg.build_ms", "icfg.build"},
	{"icfg.mustlock_ms", "icfg.mustlock"},
	{"escape.ms", "escape"},
	{"racestatic.ms", "racestatic"},
	{"lockdiscipline.ms", "lockdiscipline"},
	{"instrument.insert_ms", "instrument.insert"},
	{"instrument.elim_ms", "instrument.elim"},
	{"compile.ms", "compile"},
	{"interp.base_ms", "interp.base"},
	{"trace.record_ms", "trace.record"},
	{"trace.decode_ms", "trace.decode"},
}

// layerCounts are exact per-program counts attached to spans; a
// workload reports their mean over its distinct programs.
var layerCounts = []string{
	"lang.tokens", "instrument.loops_peeled", "lower.ir_instrs", "pointsto.abs_objects",
	"icfg.nodes", "racestatic.sites", "racestatic.pairs",
	"instrument.traces_inserted", "instrument.traces_eliminated", "instrument.traces_emitted",
	"interp.steps", "interp.trace_events",
	"detector.accesses", "detector.cache_hits", "detector.owner_skips", "detector.shipped",
	"detector.absorb_ratio", "detector.owner_locations",
	"trie.events", "trie.nodes", "trie.locations",
	"trace.bytes", "trace.events", "sharded.checkpoints",
}

// layerDefs lists every per-layer metric with its unit.
var layerDefs = func() []metricDef {
	var out []metricDef
	for _, t := range layerTimes {
		out = append(out, metricDef{Name: t.metric, Unit: "ms"})
	}
	for _, c := range layerCounts {
		unit := "count"
		switch c {
		case "detector.absorb_ratio":
			unit = "ratio"
		case "trace.bytes":
			unit = "bytes"
		}
		out = append(out, metricDef{Name: c, Unit: unit, Exact: true, LedgerOnly: c == "sharded.checkpoints"})
	}
	return append(out,
		metricDef{Name: "compile.share", Unit: "ratio"},
		metricDef{Name: "interp.ns_per_step", Unit: "ns"},
		metricDef{Name: "detector.added_ms", Unit: "ms"},
		metricDef{Name: "detector.overhead_x", Unit: "x"},
		metricDef{Name: "detector.replay_ms", Unit: "ms"},
		metricDef{Name: "trace.decode_events_per_s", Unit: "1/s"},
		metricDef{Name: "service.exec_ms", Unit: "ms"},
		metricDef{Name: "service.outside_exec_ms", Unit: "ms"},
		metricDef{Name: "service.wal_records_per_job", Unit: "count"},
		metricDef{Name: "service.wal_fsync_max_ms", Unit: "ms"},
		metricDef{Name: "service.sessions_peak", Unit: "count"},
		metricDef{Name: "service.queue_high_water", Unit: "count", LedgerOnly: true},
		metricDef{Name: "service.retries", Unit: "count", LedgerOnly: true},
		metricDef{Name: "service.shed", Unit: "count", LedgerOnly: true},
		metricDef{Name: "sharded.backpressure_stalls", Unit: "count", LedgerOnly: true},
		metricDef{Name: "sharded.worker_restarts", Unit: "count", LedgerOnly: true},
		metricDef{Name: "runtime.alloc_kb_per_verdict", Unit: "KB"},
		metricDef{Name: "runtime.gc_cycles_per_verdict", Unit: "count"},
		metricDef{Name: "tracing.overhead_pct", Unit: "%"},
	)
}()

// origin ranks where a span came from: a metric is taken from verdict
// spans when the workload's verdicts reach the layer, else from the
// set-up, else from the off-path probe.
var originRank = map[string]int{"verdict": 0, "setup": 1, "probe": 2}

// spanIndex is the set of spans a run recorded, with each span's root.
type spanIndex struct {
	spans []span
	self  []float64
	rank  []int // originRank of the span's root
	op    []int // Op of the span's root
}

func indexSpans(spans []span) *spanIndex {
	n := len(spans)
	ix := &spanIndex{spans: spans, self: selfMs(spans), rank: make([]int, n), op: make([]int, n)}
	for i, s := range spans {
		if s.Parent < 0 {
			ix.rank[i], ix.op[i] = originRank[s.Name], s.Op
		} else {
			ix.rank[i], ix.op[i] = ix.rank[s.Parent], ix.op[s.Parent]
		}
	}
	return ix
}

// pick returns the spans of cand that match keep and share the best
// origin among those that match.
func (ix *spanIndex) pick(cand []int, keep func(i int) bool) []int {
	best := math.MaxInt
	for _, i := range cand {
		if keep(i) && ix.rank[i] < best {
			best = ix.rank[i]
		}
	}
	var out []int
	for _, i := range cand {
		if keep(i) && ix.rank[i] == best {
			out = append(out, i)
		}
	}
	return out
}

// layerMetricsOf derives the per-layer metrics from the spans cand: all
// of a run's spans, or one program's.
func layerMetricsOf(ix *spanIndex, cand []int) map[string]float64 {
	named := func(name string) func(int) bool {
		return func(i int) bool { return ix.spans[i].Name == name }
	}
	hasCount := func(c string) func(int) bool {
		return func(i int) bool { _, ok := ix.spans[i].Counts[c]; return ok }
	}
	out := map[string]float64{}

	for _, t := range layerTimes {
		// Sum a layer's spans under one parent (the re-check after
		// peeling is a second lang.check), then take the median.
		perParent := map[int]float64{}
		var order []int
		for _, i := range ix.pick(cand, named(t.span)) {
			p := ix.spans[i].Parent
			if _, ok := perParent[p]; !ok {
				order = append(order, p)
			}
			v := ix.self[i]
			if t.span == "compile" {
				v = ix.spans[i].durMs()
			}
			perParent[p] += v
		}
		var vals []float64
		for _, p := range order {
			vals = append(vals, perParent[p])
		}
		if len(vals) > 0 {
			out[t.metric] = median(vals)
		}
	}

	for _, c := range layerCounts {
		// Per program, the span of the earliest op carries the count:
		// the op streams are seeded, so it is the same span on every run
		// of a seed however the clients interleaved.
		first := map[string]int{}
		var programs []string
		for _, i := range ix.pick(cand, hasCount(c)) {
			p := ix.spans[i].Program
			j, ok := first[p]
			if !ok {
				programs = append(programs, p)
			}
			if !ok || ix.op[i] < ix.op[j] {
				first[p] = i
			}
		}
		var vals []float64
		for _, p := range programs {
			vals = append(vals, ix.spans[first[p]].Counts[c])
		}
		if len(vals) > 0 {
			out[c] = mean(vals)
		}
	}

	// Timings carried as counts of service jobs: median over jobs.
	for _, c := range []string{"service.exec_ms", "service.outside_exec_ms"} {
		var vals []float64
		for _, i := range ix.pick(cand, hasCount(c)) {
			vals = append(vals, ix.spans[i].Counts[c])
		}
		if len(vals) > 0 {
			out[c] = median(vals)
		}
	}

	var perStep, decodeRate []float64
	for _, i := range ix.pick(cand, hasCount("interp.base_steps")) {
		if steps := ix.spans[i].Counts["interp.base_steps"]; steps > 0 {
			perStep = append(perStep, ix.spans[i].durMs()*1e6/steps)
		}
	}
	for _, i := range ix.pick(cand, named("trace.decode")) {
		if d := ix.spans[i].durMs(); d > 0 {
			decodeRate = append(decodeRate, ix.spans[i].Counts["trace.events"]/(d/1e3))
		}
	}
	if len(perStep) > 0 {
		out["interp.ns_per_step"] = median(perStep)
	}
	if len(decodeRate) > 0 {
		out["trace.decode_events_per_s"] = median(decodeRate)
	}

	// Sibling pairs under one parent: Full over Base on the same seed,
	// and a replay over the decode of the same trace.
	added, ratio := ix.pairs(cand, "interp.base", "exec.full")
	if len(added) > 0 {
		out["detector.added_ms"] = median(added)
		out["detector.overhead_x"] = median(ratio)
	}
	if replayMs, _ := ix.pairs(cand, "trace.decode", "replay"); len(replayMs) > 0 {
		out["detector.replay_ms"] = median(replayMs)
	}
	return out
}

// pairs finds spans named first and second under one parent, in the
// best origin that has both, and returns second−first and
// second/first for each pair.
func (ix *spanIndex) pairs(cand []int, first, second string) (diff, ratio []float64) {
	firstOf := map[int]int{}
	for _, i := range cand {
		if s := ix.spans[i]; s.Name == first {
			firstOf[s.Parent] = i
		}
	}
	hasPair := func(i int) bool {
		_, ok := firstOf[ix.spans[i].Parent]
		return ix.spans[i].Name == second && ok
	}
	for _, i := range ix.pick(cand, hasPair) {
		a, b := ix.spans[firstOf[ix.spans[i].Parent]].durMs(), ix.spans[i].durMs()
		diff = append(diff, b-a)
		if a > 0 {
			ratio = append(ratio, b/a)
		}
	}
	return diff, ratio
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
