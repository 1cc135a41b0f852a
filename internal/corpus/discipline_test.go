package corpus

import (
	"testing"

	"racedet/internal/core"
)

// TestDisciplineReportDeterministic pins the byte-stability contract
// of the ranked lock-discipline report: two cold compiles agree, and a
// warm fact-cache compile (every function replayed from the cache)
// reproduces the cold report byte for byte.
func TestDisciplineReportDeterministic(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			p1, err := core.Compile(e.name+".mj", e.src, core.Full())
			if err != nil {
				t.Fatal(err)
			}
			p2, err := core.Compile(e.name+".mj", e.src, core.Full())
			if err != nil {
				t.Fatal(err)
			}
			cold := p1.DisciplineReport()
			if cold != p2.DisciplineReport() {
				t.Errorf("discipline report differs across cold compiles:\n--- first ---\n%s\n--- second ---\n%s",
					cold, p2.DisciplineReport())
			}

			dir := t.TempDir()
			cfg := core.Full()
			cfg.FactCacheDir = dir
			seed, err := core.Compile(e.name+".mj", e.src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := seed.DisciplineReport(); got != cold {
				t.Errorf("cache-seeding compile diverges from cold:\n--- cold ---\n%s\n--- seeding ---\n%s", cold, got)
			}
			warm, err := core.Compile(e.name+".mj", e.src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.CacheStats.ProgramHit && warm.CacheStats.FnHits == 0 {
				t.Fatalf("second compile took no cache hits (misses=%d) — warm path untested", warm.CacheStats.FnMisses)
			}
			if got := warm.DisciplineReport(); got != cold {
				t.Errorf("warm cache compile diverges from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, got)
			}
		})
	}
}
