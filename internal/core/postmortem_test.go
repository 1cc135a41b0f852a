package core

import (
	"bytes"
	"regexp"
	"testing"
	"time"

	"racedet/internal/lang/token"
	"racedet/internal/rt/event"
	"racedet/internal/rt/postmortem"
	"racedet/internal/rt/trace"
)

// recordTrace runs src under cfg with TraceTo set and returns the live
// result plus the opened trace.
func recordTrace(t *testing.T, file, src string, cfg Config) (*RunResult, *trace.Reader) {
	t.Helper()
	var buf bytes.Buffer
	cfg.TraceTo = &buf
	live, err := RunSource(file, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live.Err != nil {
		t.Fatal(live.Err)
	}
	tr, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return live, tr
}

// TestPostMortemMatchesOnTheFly records the racy smoke program's event
// trace during an on-the-fly run, replays it off-line, and checks the
// reports agree — the §1 post-mortem mode.
func TestPostMortemMatchesOnTheFly(t *testing.T) {
	online, tr := recordTrace(t, "racy.mj", racySrc, Full())
	if tr.TotalEvents() == 0 {
		t.Fatal("no events recorded")
	}

	offline, err := ReplayTrace(tr, Full(), 1)
	if err != nil {
		t.Fatal(err)
	}

	if len(online.RacyObjects) != len(offline.RacyObjects) {
		t.Fatalf("online %v vs offline %v racy objects", online.RacyObjects, offline.RacyObjects)
	}
	for i := range online.RacyObjects {
		if online.RacyObjects[i] != offline.RacyObjects[i] {
			t.Fatalf("racy objects differ: %v vs %v", online.RacyObjects, offline.RacyObjects)
		}
	}
	if len(offline.Reports) == 0 || offline.Reports[0].Access.FieldName != "Data.f" {
		t.Fatalf("offline reports = %v", offline.Reports)
	}
}

// TestPostMortemFullRace reconstructs the complete racing-pair set
// from the trace (§2.5's FullRace, deliberately not computed on the
// fly).
func TestPostMortemFullRace(t *testing.T) {
	_, tr := recordTrace(t, "racy.mj", racySrc, Full())

	pairs, err := postmortem.FullRace(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("FullRace found nothing")
	}
	// Every pair is on Data.f, between distinct threads.
	for _, p := range pairs {
		if p.First.FieldName != "Data.f" || p.Second.FieldName != "Data.f" {
			t.Errorf("unexpected pair %v", p)
		}
		if p.First.Thread == p.Second.Thread {
			t.Errorf("same-thread pair %v", p)
		}
	}
}

// TestRecordingDoesNotChangeDetection guards the MultiSink wiring: the
// trace writer disables the inlined cache fast path (MultiSink has
// none), which must not alter what is reported.
func TestRecordingDoesNotChangeDetection(t *testing.T) {
	plain, err := RunSource("racy.mj", racySrc, Full())
	if err != nil || plain.Err != nil {
		t.Fatalf("%v/%v", err, plain.Err)
	}
	recorded, _ := recordTrace(t, "racy.mj", racySrc, Full())
	if len(plain.RacyObjects) != len(recorded.RacyObjects) {
		t.Errorf("recording changed detection: %v vs %v", plain.RacyObjects, recorded.RacyObjects)
	}
}

// TestPostMortemPositionFidelity records under a source path with a
// space and colons — the characters a whitespace- or colon-split log
// format would mangle — and checks that every FullRace pair and every
// replayed report carries the exact file/line/column of the live
// run's reports.
func TestPostMortemPositionFidelity(t *testing.T) {
	const file = "dir/my prog:v2.mj"
	live, tr := recordTrace(t, file, racySrc, Full())
	if len(live.Reports) == 0 {
		t.Fatal("live run reported nothing")
	}
	for _, r := range live.Reports {
		if r.Access.Pos.File != file || r.Access.Pos.Line <= 0 || r.Access.Pos.Col <= 0 {
			t.Fatalf("live report position %+v", r.Access.Pos)
		}
	}

	replayed, err := ReplayTrace(tr, Full(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed.Reports) != len(live.Reports) {
		t.Fatalf("replay %d reports, live %d", len(replayed.Reports), len(live.Reports))
	}
	for i, r := range replayed.Reports {
		if r.Access.Pos != live.Reports[i].Access.Pos {
			t.Errorf("replayed report %d at %+v, live at %+v", i, r.Access.Pos, live.Reports[i].Access.Pos)
		}
	}

	pairs, err := postmortem.FullRace(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("FullRace found nothing")
	}
	// Each reported access must reappear, position and all, as one
	// side of a FullRace pair.
	type site struct {
		loc    event.Loc
		thread event.ThreadID
		pos    token.Pos
	}
	sides := map[site]bool{}
	for _, p := range pairs {
		for _, a := range [2]event.Access{p.First, p.Second} {
			if a.Pos.File != file || a.Pos.Line <= 0 || a.Pos.Col <= 0 {
				t.Errorf("FullRace pair position %+v, want file %q", a.Pos, file)
			}
			sides[site{a.Loc, a.Thread, a.Pos}] = true
		}
	}
	for _, r := range live.Reports {
		if !sides[site{r.Access.Loc, r.Access.Thread, r.Access.Pos}] {
			t.Errorf("live report %v has no FullRace pair side at %s", r.Access.Loc, r.Access.Pos)
		}
	}
}

// TestReplayShardPanicSurfacesErr: a worker panic while a trace replays
// into the sharded back end must end the replay, not hang it, and the
// result's Err must name the dead shard.
func TestReplayShardPanicSurfacesErr(t *testing.T) {
	_, tr := recordTrace(t, "racy.mj", racySrc, Full())
	cfg := Full()
	cfg.Shards = 4
	cfg.FaultSpec = "panic:shard=*,event=1"

	type outcome struct {
		rr  *RunResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rr, err := ReplayTrace(tr, cfg, 2)
		done <- outcome{rr, err}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("replay with a dead shard did not return")
	}
	if got.err != nil {
		t.Fatalf("ReplayTrace: %v", got.err)
	}
	if got.rr.Err == nil || !regexp.MustCompile(`detector shard \d+: panic`).MatchString(got.rr.Err.Error()) {
		t.Fatalf("result Err = %v, want one naming the dead shard", got.rr.Err)
	}
}
