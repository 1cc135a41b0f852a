package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIFlagValidation pins the usage-error contract: explicit
// nonsense values for the back-end flags are rejected up front with a
// clear message on stderr and exit code 3, before any compilation or
// execution happens.
func TestCLIFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	prog := writeProg(t, racyProg)
	// A log in the removed text format is not a trace.
	notTrace := writeProg(t, "S 0 -1\nS 1 0\nS 2 0\nA 1 7 0 W Data.f prog.mj:6:18\nA 2 7 0 W Data.f prog.mj:6:18\n")

	cases := []struct {
		name string
		args []string
		want string // substring required on stderr
	}{
		{"shards zero", []string{"-shards", "0", prog}, "-shards must be >= 1"},
		{"shards negative", []string{"-shards", "-4", prog}, "-shards must be >= 1"},
		{"batch zero", []string{"-batch", "0", prog}, "-batch must be >= 1"},
		{"batch negative", []string{"-shards", "2", "-batch", "-8", prog}, "-batch must be >= 1"},
		{"journal negative", []string{"-shards", "2", "-journal", "-1", prog}, "-journal must be >= 0"},
		{"retry budget negative", []string{"-shards", "2", "-retry-budget", "-1", prog}, "-retry-budget must be >= 0"},
		{"inject without shards", []string{"-inject", "panic:shard=0,event=1", prog}, "-inject targets the sharded back end"},
		{"inject bad spec", []string{"-shards", "2", "-inject", "panic:shard=0", prog}, "fault"},
		{"unknown flag", []string{"-no-such-flag", prog}, "flag"},
		{"record and replay-trace", []string{"-record", "t.mjtrace", "-replay-trace", "t.mjtrace"}, "-record and -replay-trace are mutually exclusive"},
		// -fullrace is a mode of -replay-trace; there is no -replay.
		{"replay and replay-trace", []string{"-replay", "t.log", "-replay-trace", "t.mjtrace"}, "flag provided but not defined: -replay"},
		{"fuzz and replay-trace", []string{"-fuzz", "4", "-replay-trace", "t.mjtrace"}, "-fuzz explores live schedules"},
		{"fullrace and replay-trace", []string{"-fullrace", "-replay-trace", notTrace}, "bad magic: not a .mjtrace file"},
		{"fullrace without replay-trace", []string{"-fullrace", prog}, "-fullrace requires -replay-trace"},
		{"fullrace and ablate", []string{"-fullrace", "-replay-trace", "t.mjtrace", "-ablate", "Full,NoCache"}, "-fullrace does not depend on the detector configuration"},
		{"ablate without replay-trace", []string{"-ablate", "Full,NoCache", prog}, "-ablate requires -replay-trace"},
		{"replay-workers zero", []string{"-replay-workers", "0", "-replay-trace", "t.mjtrace"}, "-replay-workers must be >= 1"},
		{"replay-workers negative", []string{"-replay-workers", "-2", "-replay-trace", "t.mjtrace"}, "-replay-workers must be >= 1"},
		{"fuzz and record", []string{"-fuzz", "4", "-record", filepath.Join(t.TempDir(), "x.mjtrace"), prog}, "-record captures a single run"},
		// The sampling flags were removed: every former use of them is
		// now an unknown flag, not a silently ignored or unsampled run.
		{"sample-k zero", []string{"-sample-k", "0", prog}, "flag provided but not defined: -sample-k"},
		{"sample-k negative", []string{"-sample-k", "-4", prog}, "flag provided but not defined: -sample-k"},
		{"sample-budget zero", []string{"-sample-budget", "0", prog}, "flag provided but not defined: -sample-budget"},
		{"sample-budget negative", []string{"-sample-budget", "-0.5", prog}, "flag provided but not defined: -sample-budget"},
		{"sample-budget over one", []string{"-sample-budget", "1.5", prog}, "flag provided but not defined: -sample-budget"},
		{"sampling without ownership", []string{"-sample-k", "4", "-noownership", prog}, "flag provided but not defined: -sample-k"},
		{"sampling and ablate", []string{"-sample-k", "4", "-replay-trace", "t.mjtrace", "-ablate", "Full"}, "flag provided but not defined: -sample-k"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected a usage failure, got err=%v\n%s", err, out)
			}
			if ee.ExitCode() != exitInternal {
				t.Fatalf("exit = %d, want %d (usage error)\n%s", ee.ExitCode(), exitInternal, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, out)
			}
		})
	}

	// Defaults stay legal: not passing the flags at all must not trip
	// the explicit-value validation.
	if out, err := exec.Command(bin, "-q", prog).CombinedOutput(); err != nil {
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != exitRaces {
			t.Fatalf("default flags: exit = %v, want %d\n%s", err, exitRaces, out)
		}
	}
}

// TestCLIInjectSmoke runs the fault-injection path end to end: a
// worker panic is injected mid-stream, the supervisor recovers, and
// the race is still reported exactly as without the fault.
func TestCLIInjectSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	prog := writeProg(t, racyProg)

	// Recovered run: same verdict and report as an undisturbed one.
	out, err := exec.Command(bin, "-q", "-stats", "-shards", "2",
		"-inject", "panic:shard=*,event=1", prog).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != exitRaces {
		t.Fatalf("recovered run exit = %v, want %d\n%s", err, exitRaces, out)
	}
	text := string(out)
	if !strings.Contains(text, "datarace on Data.f") {
		t.Errorf("recovered run lost the race report:\n%s", text)
	}
	if !strings.Contains(text, "recovery:") || !strings.Contains(text, "restarts=1") {
		t.Errorf("-stats missing the recovery line:\n%s", text)
	}

	// Budget-zero run: the shard degrades but the analysis completes.
	out, err = exec.Command(bin, "-q", "-stats", "-shards", "2", "-retry-budget", "0",
		"-inject", "panic:shard=*,event=1", prog).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != exitRaces {
		t.Fatalf("degraded run exit = %v, want %d (analysis must survive)\n%s", err, exitRaces, out)
	}
	if !strings.Contains(string(out), "degradedShards=1") {
		t.Errorf("degraded run missing the degradation counter:\n%s", out)
	}
}
