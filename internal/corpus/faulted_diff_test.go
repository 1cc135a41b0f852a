package corpus

import (
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"racedet"
	"racedet/internal/bench"
	"racedet/internal/faultinject"
	"racedet/internal/service"
)

// faultedSeeds is the seed sweep of the recovery differential tests.
func faultedSeeds() []int64 {
	seeds := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if testing.Short() {
		seeds = seeds[:2]
	}
	return seeds
}

// analyzeFaulted posts one job to a fresh in-process daemon whose
// session runner panics on the job's first `times` attempts, and
// returns the result with the daemon's counters after the job.
func analyzeFaulted(t *testing.T, retryBudget int, times string, req service.JobRequest) (*service.JobResult, service.Snapshot) {
	t.Helper()
	plan, err := faultinject.Parse("session-panic:job=1,times=" + times)
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Options{
		RetryBudget:  retryBudget,
		RetryBackoff: time.Millisecond,
		Faults:       plan,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res, err := (&service.Client{Base: ts.URL}).Analyze(req)
	if err != nil {
		t.Fatalf("seed %d: transport error: %v", req.Seed, err)
	}
	return res, srv.Metrics()
}

// TestBenchmarksFaultInjectedMatchesSerial is the recovery differential
// on the five paper benchmarks: a daemon session whose first two
// attempts panic is retried by the session layer, and its verdict must
// equal a clean one-shot run of the serial detector at the same seed.
func TestBenchmarksFaultInjectedMatchesSerial(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			file, src := b.Name+".mj", b.Source()
			for _, seed := range faultedSeeds() {
				want, err := racedet.Detect(file, src, racedet.Options{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d one-shot: %v", seed, err)
				}
				res, m := analyzeFaulted(t, 3, "2", service.JobRequest{File: file, Source: src, Seed: seed})
				if res.Degraded || res.CompileError != "" || res.RuntimeError != "" {
					t.Fatalf("seed %d: session not recovered: %+v", seed, res)
				}
				if !reflect.DeepEqual(res.Races, want.Races) {
					t.Errorf("seed %d: races diverge from one-shot (%d vs %d)", seed, len(res.Races), len(want.Races))
				}
				if res.RacyObjects != want.RacyObjects {
					t.Errorf("seed %d: racy objects = %d, want %d", seed, res.RacyObjects, want.RacyObjects)
				}
				if res.Retries != 2 || m.SessionPanics != 2 {
					t.Errorf("seed %d: retries=%d session_panics=%d, want 2/2", seed, res.Retries, m.SessionPanics)
				}
			}
		})
	}
}

// TestCorpusDegradedCompletes pins the never-lose-the-analysis
// guarantee: when a session panics more often than the retry budget
// allows, the job still completes — degraded, with the Eraser pass's
// verdict, counted in jobs_degraded — and never as a transport error.
func TestCorpusDegradedCompletes(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			file := e.name + ".mj"
			for _, seed := range faultedSeeds() {
				want, err := racedet.Detect(file, e.src, racedet.Options{Seed: seed, Detector: racedet.Eraser})
				if err != nil {
					t.Fatalf("seed %d one-shot Eraser: %v", seed, err)
				}
				res, m := analyzeFaulted(t, 1, "2", service.JobRequest{File: file, Source: e.src, Seed: seed})
				if !res.Degraded || res.DegradedReason == "" {
					t.Fatalf("seed %d: panics past the budget did not degrade: %+v", seed, res)
				}
				if res.CompileError != "" || res.RuntimeError != "" {
					t.Fatalf("seed %d: degraded pass failed: %+v", seed, res)
				}
				if !reflect.DeepEqual(res.BaselineReports, want.BaselineReports) {
					t.Errorf("seed %d: degraded verdict differs from one-shot Eraser:\n got %v\nwant %v",
						seed, res.BaselineReports, want.BaselineReports)
				}
				if m.JobsDegraded != 1 || m.Terminal() != m.JobsAdmitted {
					t.Errorf("seed %d: degraded=%d terminal=%d admitted=%d",
						seed, m.JobsDegraded, m.Terminal(), m.JobsAdmitted)
				}
			}
		})
	}
}
