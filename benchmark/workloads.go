package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"racedet/internal/core"
	"racedet/internal/rt/detector"
	"racedet/internal/rt/event"
	"racedet/internal/rt/trace"
	"racedet/internal/service"
)

// env is what every workload's set-up receives.
type env struct {
	root string // repository root: inputs are read from it
	tmp  string // scratch directory inside the checkout
	seed int64  // workload seed: draws program order and scheduler seeds
}

// outcome is one verdict's result as the closed loop sees it.
type outcome struct {
	latency time.Duration
	failed  error // errored, shed or degraded; nil otherwise
	wrong   error // racy set differs from the reference; nil otherwise
	// schedMiss marks an EXPECT-RACY program whose seeded schedule hid
	// every race from the ownership filter (see refRacy).
	schedMiss bool
}

// instance is a set-up workload, ready to serve verdicts.
type instance interface {
	// verdict runs client c's next verdict, tracing into sc when sc
	// is live.
	verdict(c int, sc scope) outcome
	// roundLen is the number of ops in one round of a client's stream.
	roundLen() int
	// programs lists the distinct inputs (for the off-path probe).
	programs() []program
	// layerMetrics returns per-layer metrics measured over the whole
	// loop rather than per verdict (nil when there are none).
	layerMetrics() map[string]float64
	close() error
}

// workload is one closed-loop input set; README.md gives the reason for
// each. A dropped workload runs only when named: its run-to-run spread
// on a shared 2-CPU host exceeded the largest bound BENCHMARK.json
// allows, so BENCHMARK.json does not list it.
type workload struct {
	name    string
	clients int
	setup   func(e env, tr *tracer) (instance, error)
	dropped bool
}

var workloads = []workload{
	{name: "table2-exec", clients: 1, setup: setupTable2, dropped: true},
	{name: "cold-verdict", clients: 1, setup: setupCold},
	{name: "replay-sweep", clients: 1, setup: setupReplay},
	{name: "daemon-mix", clients: 2, setup: setupDaemon, dropped: true},
}

// opStream is one client's seeded op sequence: every round visits each
// of n ops once, in a fresh seeded order, so the program mix of a run
// does not depend on the seed.
type opStream struct {
	rng  *rand.Rand
	n    int
	perm []int
	pos  int
}

func newOpStream(seed int64, client, n int) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), n: n}
}

// next returns the next op and a scheduler seed for it.
func (s *opStream) next() (op int, schedSeed int64) {
	if s.pos == len(s.perm) {
		s.perm = s.rng.Perm(s.n)
		s.pos = 0
	}
	op = s.perm[s.pos]
	s.pos++
	return op, s.rng.Int63n(1<<30) + 1
}

// fieldSet returns the racy field names of a run's reports.
func fieldSet(rr *core.RunResult) map[string]bool {
	out := map[string]bool{}
	for _, r := range rr.Reports {
		out[r.Access.FieldName] = true
	}
	return out
}

// filterInvariant checks the detector's accounting identity: every
// access is shipped, absorbed by the cache or the ownership filter, or
// suppressed by sampling.
func filterInvariant(ds detector.Stats) error {
	if ds.Accesses != ds.Shipped+ds.CacheHits+ds.OwnerSkips+ds.Sample.Suppressed {
		return fmt.Errorf("filter invariant broken: accesses %d != shipped %d + cache hits %d + owner skips %d + suppressed %d",
			ds.Accesses, ds.Shipped, ds.CacheHits, ds.OwnerSkips, ds.Sample.Suppressed)
	}
	return nil
}

// detectorCounts are the exact counts of one detector run.
func detectorCounts(rr *core.RunResult) map[string]float64 {
	ds := rr.DetectorStats
	m := map[string]float64{
		"detector.accesses":        float64(ds.Accesses),
		"detector.cache_hits":      float64(ds.CacheHits),
		"detector.owner_skips":     float64(ds.OwnerSkips),
		"detector.shipped":         float64(ds.Shipped),
		"detector.owner_locations": float64(ds.OwnerLocations),
		"trie.events":              float64(ds.Trie.Events),
		"trie.nodes":               float64(rr.TrieNodes),
		"trie.locations":           float64(rr.TrieLocations),
	}
	if ds.Accesses > 0 {
		m["detector.absorb_ratio"] = float64(ds.CacheHits+ds.OwnerSkips) / float64(ds.Accesses)
	}
	return m
}

// runCounts adds the interpreter's counts to the detector's.
func runCounts(rr *core.RunResult) map[string]float64 {
	m := detectorCounts(rr)
	m["interp.steps"] = float64(rr.Interp.Steps)
	m["interp.trace_events"] = float64(rr.Interp.TraceEvents)
	return m
}

// classify checks a verdict's racy fields and object count against p's
// reference.
func classify(p program, fields map[string]bool, objects int, seed int64) outcome {
	if p.Ref.check(fields, objects, seed) {
		return outcome{}
	}
	if p.Ref.scheduleMiss(objects, seed) {
		return outcome{schedMiss: true}
	}
	return outcome{wrong: p.Ref.mismatch(p.Name, fields, objects, seed)}
}

// judge turns a detector run on the given scheduler seed into an
// outcome against p's reference.
func judge(p program, rr *core.RunResult, err error, seed int64) outcome {
	switch {
	case err != nil:
		return outcome{failed: fmt.Errorf("%s: %w", p.Name, err)}
	case rr.Err != nil:
		return outcome{failed: fmt.Errorf("%s: runtime: %w", p.Name, rr.Err)}
	}
	if err := filterInvariant(rr.DetectorStats); err != nil {
		return outcome{failed: fmt.Errorf("%s: %w", p.Name, err)}
	}
	return classify(p, fieldSet(rr), len(rr.RacyObjects), seed)
}

// execFull runs a compiled pipeline under Full with the given seed,
// inside an "exec.full" span.
func execFull(sc scope, pipe *core.Pipeline, p program, seed int64) outcome {
	es := sc.child("exec.full")
	rr, err := pipe.RunConfig(core.Full().WithSeed(seed))
	var counts map[string]float64
	if err == nil {
		counts = runCounts(rr)
	}
	es.end(counts)
	return judge(p, rr, err, seed)
}

// execBase runs an uninstrumented pipeline inside an "interp.base" span.
func execBase(sc scope, pipe *core.Pipeline, p program, seed int64) error {
	bs := sc.child("interp.base")
	rr, err := pipe.RunConfig(core.Base().WithSeed(seed))
	var counts map[string]float64
	if err == nil {
		counts = map[string]float64{"interp.base_steps": float64(rr.Interp.Steps)}
	}
	bs.end(counts)
	if err == nil && rr.Err != nil {
		err = rr.Err
	}
	if err != nil {
		return fmt.Errorf("%s base: %w", p.Name, err)
	}
	return nil
}

// compileFull compiles p under Full: layer by layer with spans when sc
// is live, through core.Compile otherwise.
func compileFull(sc scope, p program) (*core.Pipeline, error) {
	if sc.t != nil {
		return tracedCompile(sc, p)
	}
	return core.Compile(p.File, p.Src, core.Full())
}

// ---------------------------------------------------------------------------
// table2-exec

type table2 struct {
	progs []program
	full  []*core.Pipeline
	base  []*core.Pipeline
	ops   *opStream
}

func setupTable2(e env, tr *tracer) (instance, error) {
	progs, err := paperPrograms("mtrt", "tsp", "sor2")
	if err != nil {
		return nil, err
	}
	w := &table2{progs: progs, ops: newOpStream(e.seed, 0, len(progs))}
	sc := tr.root("setup", 0)
	defer sc.end(nil)
	for _, p := range progs {
		ps := sc.child("setup.program").named(p.Name)
		full, err := compileFull(ps, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		base, err := core.Compile(p.File, p.Src, core.Base())
		if err != nil {
			return nil, fmt.Errorf("%s base: %w", p.Name, err)
		}
		// Warm-up round: fills caches and checks the reference once.
		if err := execBase(scope{}, base, p, 0); err != nil {
			return nil, err
		}
		if err := warmupErr(execFull(scope{}, full, p, 0)); err != nil {
			return nil, err
		}
		ps.end(nil)
		w.full = append(w.full, full)
		w.base = append(w.base, base)
	}
	return w, nil
}

func (w *table2) verdict(_ int, sc scope) outcome {
	i, seed := w.ops.next()
	p := w.progs[i]
	sc = sc.named(p.Name)
	if err := execBase(sc, w.base[i], p, seed); err != nil {
		return outcome{failed: err}
	}
	// Every Full run starts from the same heap state, as in
	// internal/bench's Table 2 harness.
	runtime.GC()
	start := time.Now()
	o := execFull(sc, w.full[i], p, seed)
	o.latency = time.Since(start)
	return o
}

func (w *table2) roundLen() int                    { return len(w.progs) }
func (w *table2) programs() []program              { return w.progs }
func (w *table2) layerMetrics() map[string]float64 { return nil }
func (w *table2) close() error                     { return nil }

// ---------------------------------------------------------------------------
// cold-verdict

type cold struct {
	progs []program
	ops   *opStream
}

func setupCold(e env, tr *tracer) (instance, error) {
	progs, err := interactiveMix(e.root)
	if err != nil {
		return nil, err
	}
	w := &cold{progs: progs, ops: newOpStream(e.seed, 0, len(progs))}
	for _, p := range progs {
		if err := warmupErr(w.run(scope{}, p, 0)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *cold) run(sc scope, p program, seed int64) outcome {
	pipe, err := compileFull(sc, p)
	if err != nil {
		return outcome{failed: fmt.Errorf("%s: %w", p.Name, err)}
	}
	return execFull(sc, pipe, p, seed)
}

func (w *cold) verdict(_ int, sc scope) outcome {
	i, seed := w.ops.next()
	p := w.progs[i]
	sc = sc.named(p.Name)
	start := time.Now()
	o := w.run(sc, p, seed)
	o.latency = time.Since(start)
	return o
}

func (w *cold) roundLen() int                    { return len(w.progs) }
func (w *cold) programs() []program              { return w.progs }
func (w *cold) layerMetrics() map[string]float64 { return nil }
func (w *cold) close() error                     { return nil }

// ---------------------------------------------------------------------------
// replay-sweep

type replay struct {
	progs   []program
	readers []*trace.Reader
	seeds   []int64 // each trace's recording scheduler seed
	workers int
	ops     *opStream
}

// replayConfigs are the two detector uses replay-sweep alternates: Full
// is dominated by cache hits, NoCache sends every event to the trie.
var replayConfigs = []struct {
	name string
	cfg  core.Config
}{
	{"Full", core.Full()},
	{"NoCache", core.Full().NoCache()},
}

// record runs p under Full with a binary trace recorder attached,
// inside a "trace.record" span, and returns the opened trace.
func record(sc scope, p program, seed int64) (*trace.Reader, error) {
	pipe, err := compileFull(sc, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	var buf bytes.Buffer
	cfg := core.Full().WithSeed(seed)
	cfg.TraceTo = &buf
	rs := sc.child("trace.record")
	rr, err := pipe.RunConfig(cfg)
	var counts map[string]float64
	if err == nil {
		counts = runCounts(rr)
		counts["trace.bytes"] = float64(buf.Len())
	}
	rs.end(counts)
	if o := judge(p, rr, err, seed); o.failed != nil || o.wrong != nil {
		return nil, fmt.Errorf("%s: recorded run: failed=%v wrong=%v", p.Name, o.failed, o.wrong)
	}
	r, err := trace.NewReader(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return r, nil
}

// replayOnce replays r under cfg. When sc is live it first decodes the
// trace into a null sink, so detector time is the difference.
func replayOnce(sc scope, p program, r *trace.Reader, seed int64, cfg core.Config, workers int) outcome {
	if sc.t != nil {
		ds := sc.child("trace.decode")
		st, err := r.Replay(event.NullSink{}, workers)
		ds.end(map[string]float64{"trace.events": float64(st.Events), "trace.bytes": float64(st.Bytes)})
		if err != nil {
			return outcome{failed: fmt.Errorf("%s decode: %w", p.Name, err)}
		}
	}
	rs := sc.child("replay")
	rr, err := core.ReplayTrace(r, cfg, workers)
	var counts map[string]float64
	if err == nil {
		counts = detectorCounts(rr)
	}
	rs.end(counts)
	return judge(p, rr, err, seed)
}

func setupReplay(e env, tr *tracer) (instance, error) {
	progs, err := paperPrograms("mtrt", "tsp", "sor2", "elevator", "hedc")
	if err != nil {
		return nil, err
	}
	w := &replay{progs: progs, workers: runtime.NumCPU(),
		ops: newOpStream(e.seed, 0, len(progs)*len(replayConfigs))}
	seeds := rand.New(rand.NewSource(e.seed))
	sc := tr.root("setup", 0)
	defer sc.end(nil)
	for _, p := range progs {
		ps := sc.child("setup.program").named(p.Name)
		seed := seeds.Int63n(1<<30) + 1
		r, err := record(ps, p, seed)
		ps.end(nil)
		if err != nil {
			return nil, err
		}
		w.readers = append(w.readers, r)
		w.seeds = append(w.seeds, seed)
	}
	for i, p := range progs {
		for _, c := range replayConfigs {
			if err := warmupErr(replayOnce(scope{}, p, w.readers[i], w.seeds[i], c.cfg, w.workers)); err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
		}
	}
	return w, nil
}

func (w *replay) verdict(_ int, sc scope) outcome {
	op, _ := w.ops.next()
	i, c := op/len(replayConfigs), replayConfigs[op%len(replayConfigs)]
	p := w.progs[i]
	sc = sc.named(p.Name + "/" + c.name)
	start := time.Now()
	o := replayOnce(sc, p, w.readers[i], w.seeds[i], c.cfg, w.workers)
	o.latency = time.Since(start)
	return o
}

func (w *replay) roundLen() int                    { return len(w.progs) * len(replayConfigs) }
func (w *replay) programs() []program              { return w.progs }
func (w *replay) layerMetrics() map[string]float64 { return nil }
func (w *replay) close() error                     { return nil }

// ---------------------------------------------------------------------------
// daemon-mix

// daemon is an in-process racedetd on loopback with its defaults: WAL
// fsync "always", sharded back end with 2 shards and JournalCap 4096.
type daemon struct {
	srv    *service.Server
	client *service.Client
	tr     *http.Transport
	dir    string
	served chan error
	walAt  uint64 // WAL records when the timed loop started
	jobsAt uint64
}

func startDaemon(tmp string, clients int) (*daemon, error) {
	dir, err := os.MkdirTemp(tmp, "racedetd-")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: service.New(service.Options{StateDir: filepath.Join(dir, "state")}), dir: dir}
	if _, err := d.srv.Recover(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("recover: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Drain(0)
		os.RemoveAll(dir)
		return nil, err
	}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.tr = &http.Transport{MaxIdleConnsPerHost: clients}
	d.client = &service.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: d.tr}}
	return d, nil
}

// job posts p as a source job inside a "service.job" span.
func (d *daemon) job(sc scope, p program, seed int64) outcome {
	js := sc.child("service.job")
	start := time.Now()
	res, err := d.client.Analyze(service.JobRequest{File: p.File, Source: p.Src, Seed: seed})
	lat := time.Since(start)
	var counts map[string]float64
	if err == nil {
		st := res.Stats
		counts = map[string]float64{
			"service.exec_ms":         float64(res.DurationNs) / 1e6,
			"service.outside_exec_ms": float64(lat.Nanoseconds()-res.DurationNs) / 1e6,
			"interp.steps":            float64(st.Instructions),
			"interp.trace_events":     float64(st.TraceEvents),
			"detector.cache_hits":     float64(st.CacheHits),
			"detector.owner_skips":    float64(st.OwnerSkips),
			"trie.events":             float64(st.TrieEvents),
			"sharded.checkpoints":     float64(st.Checkpoints),
		}
	}
	js.end(counts)
	o := outcome{latency: lat}
	var u *service.Unavailable
	switch {
	case errors.As(err, &u):
		o.failed = fmt.Errorf("%s: shed: %w", p.Name, err)
	case err != nil:
		o.failed = fmt.Errorf("%s: %w", p.Name, err)
	case res.CompileError != "" || res.RuntimeError != "":
		o.failed = fmt.Errorf("%s: %s%s", p.Name, res.CompileError, res.RuntimeError)
	case res.Degraded:
		o.failed = fmt.Errorf("%s: degraded: %s", p.Name, res.DegradedReason)
	case res.Stats.TraceEvents != res.Stats.EventsShipped+res.Stats.CacheHits+res.Stats.OwnerSkips+res.Stats.EventsSuppressed:
		o.failed = fmt.Errorf("%s: filter invariant broken: %+v", p.Name, res.Stats)
	default:
		fields := map[string]bool{}
		for _, r := range res.Races {
			fields[r.Field] = true
		}
		c := classify(p, fields, res.RacyObjects, seed)
		o.wrong, o.schedMiss = c.wrong, c.schedMiss
	}
	return o
}

// mark starts the window layerMetrics reports over.
func (d *daemon) mark() {
	m := d.srv.Metrics()
	d.walAt, d.jobsAt = m.WalRecords, m.JobsAdmitted
}

func (d *daemon) layerMetrics() map[string]float64 {
	m := d.srv.Metrics()
	out := map[string]float64{
		"service.wal_fsync_max_ms":    float64(m.WalFsyncMaxNs) / 1e6,
		"service.queue_high_water":    float64(m.QueueHighWater),
		"service.sessions_peak":       float64(m.SessionsPeak),
		"service.retries":             float64(m.SessionRetries),
		"service.shed":                float64(m.JobsShed),
		"sharded.backpressure_stalls": float64(m.BackpressureStalls),
		"sharded.worker_restarts":     float64(m.WorkerRestarts),
	}
	if jobs := m.JobsAdmitted - d.jobsAt; jobs > 0 {
		out["service.wal_records_per_job"] = float64(m.WalRecords-d.walAt) / float64(jobs)
	}
	return out
}

func (d *daemon) stop() error {
	rep := d.srv.Drain(10 * time.Second)
	err := <-d.served
	d.tr.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	if err == nil && !rep.Clean {
		err = fmt.Errorf("daemon drain not clean: %d aborted", len(rep.Aborted))
	}
	return err
}

type daemonMix struct {
	progs []program
	d     *daemon
	ops   []*opStream
}

func setupDaemon(e env, tr *tracer) (instance, error) {
	progs, err := interactiveMix(e.root)
	if err != nil {
		return nil, err
	}
	const clients = 2
	d, err := startDaemon(e.tmp, clients)
	if err != nil {
		return nil, err
	}
	w := &daemonMix{progs: progs, d: d}
	for c := 0; c < clients; c++ {
		w.ops = append(w.ops, newOpStream(e.seed, c, len(progs)))
	}
	for _, p := range progs {
		if err := warmupErr(d.job(scope{}, p, 0)); err != nil {
			d.stop()
			return nil, err
		}
	}
	d.mark()
	return w, nil
}

func (w *daemonMix) verdict(c int, sc scope) outcome {
	i, seed := w.ops[c].next()
	p := w.progs[i]
	sc = sc.named(p.Name)
	return w.d.job(sc, p, seed)
}

func (w *daemonMix) roundLen() int                    { return len(w.progs) }
func (w *daemonMix) programs() []program              { return w.progs }
func (w *daemonMix) layerMetrics() map[string]float64 { return w.d.layerMetrics() }
func (w *daemonMix) close() error                     { return w.d.stop() }

// ---------------------------------------------------------------------------
// Off-path probe

// probe measures, once per distinct program, every layer: compile,
// Base and Full execution on one seed, record/decode/replay, and one
// daemon job. Metrics prefer spans from verdicts, then set-up, so the
// probe only fills in the layers a workload's verdicts do not reach.
func probe(e env, tr *tracer, progs []program) (map[string]float64, error) {
	d, err := startDaemon(e.tmp, 1)
	if err != nil {
		return nil, err
	}
	seeds := rand.New(rand.NewSource(e.seed + 1))
	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	d.mark()
	for _, p := range progs {
		seed := seeds.Int63n(1<<30) + 1
		sc := tr.root("probe", 0).named(p.Name)
		pipe, err := tracedCompile(sc, p)
		fail(err)
		if err == nil {
			base, err := core.Compile(p.File, p.Src, core.Base())
			fail(err)
			if err == nil {
				fail(execBase(sc, base, p, seed))
				fail(verdictErr(execFull(sc, pipe, p, seed)))
			}
		}
		r, err := record(sc, p, seed)
		fail(err)
		if err == nil {
			fail(verdictErr(replayOnce(sc, p, r, seed, core.Full(), runtime.NumCPU())))
		}
		fail(verdictErr(d.job(sc, p, seed)))
		sc.end(nil)
	}
	m := d.layerMetrics()
	fail(d.stop())
	return m, firstErr
}

// warmupErr checks a set-up verdict. Set-up verdicts run on the
// round-robin schedule (seed 0), where classify forgives no schedule
// miss — except replay-sweep's, which replay its seeded recordings.
func warmupErr(o outcome) error {
	if err := verdictErr(o); err != nil {
		return fmt.Errorf("warm-up verdict: %w", err)
	}
	return nil
}

func verdictErr(o outcome) error {
	if o.failed != nil {
		return o.failed
	}
	return o.wrong
}
