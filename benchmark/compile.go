package main

import (
	"fmt"

	"racedet/internal/core"
	"racedet/internal/escape"
	"racedet/internal/icfg"
	"racedet/internal/instrument"
	"racedet/internal/lang/ast"
	"racedet/internal/lang/lexer"
	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
	"racedet/internal/pointsto"
	"racedet/internal/racestatic"
	"racedet/internal/static/lockdiscipline"
)

// tracedCompile is core.Compile for core.Full() with no fact cache,
// calling the layers one by one in core.Compile's order so each gets
// its own span under a "compile" span. The returned pipeline runs like
// one from core.Compile; mirrorGuard checks that it instruments the
// program identically.
func tracedCompile(parent scope, p program) (*core.Pipeline, error) {
	sc := parent.child("compile")
	pipe, err := compileLayers(sc, p)
	sc.end(nil)
	if err != nil || sc.t == nil {
		return pipe, err
	}
	// Counted after the span closed, so counting costs no layer time.
	toks, _ := lexer.ScanAll(p.File, p.Src)
	sc.setCounts(map[string]float64{
		"lang.tokens":                  float64(len(toks)),
		"instrument.loops_peeled":      float64(pipe.InstrStats.LoopsPeeled),
		"pointsto.abs_objects":         float64(len(pipe.Pts.Objects())),
		"icfg.nodes":                   float64(len(pipe.ICG.Nodes())),
		"racestatic.sites":             float64(len(pipe.Static.Sites)),
		"racestatic.pairs":             float64(len(pipe.Static.Pairs)),
		"instrument.traces_inserted":   float64(pipe.InstrStats.Inserted),
		"instrument.traces_eliminated": float64(pipe.InstrStats.Eliminated),
		"instrument.traces_emitted":    float64(pipe.InstrStats.Inserted - pipe.InstrStats.Eliminated),
	})
	return pipe, nil
}

func compileLayers(sc scope, p program) (*core.Pipeline, error) {
	ps := sc.child("lang.parse")
	prog, err := parser.Parse(p.File, p.Src)
	ps.end(nil)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	cs := sc.child("lang.check")
	sp, err := sem.Check(prog)
	cs.end(nil)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	pipe := &core.Pipeline{Config: core.Full(), File: p.File, AST: prog, Sem: sp}

	pl := sc.child("instrument.peel")
	isField := func(id *ast.Ident) bool { return sp.IdentRef[id].Kind == sem.RefField }
	pipe.InstrStats.LoopsPeeled = instrument.PeelLoops(prog, isField)
	pl.end(nil)
	// The re-check after peeling counts as sem.Check time.
	rc := sc.child("lang.check")
	sp, err = sem.Check(prog)
	rc.end(nil)
	if err != nil {
		return nil, fmt.Errorf("re-check after peeling: %w", err)
	}
	pipe.Sem = sp

	lo := sc.child("lower")
	pipe.Lower = lower.Lower(sp)
	pipe.Prog = pipe.Lower.Prog
	lo.end(nil)
	if lo.t != nil {
		n := 0
		for _, fn := range pipe.Prog.Funcs {
			for _, b := range fn.Blocks {
				n += len(b.Instrs)
			}
		}
		lo.setCounts(map[string]float64{"lower.ir_instrs": float64(n)})
	}

	sc.call("pointsto", func() { pipe.Pts = pointsto.Analyze(pipe.Prog) })
	sc.call("icfg.build", func() { pipe.ICG = icfg.Build(pipe.Prog, pipe.Lower, pipe.Pts) })
	sc.call("escape", func() { pipe.Esc = escape.Analyze(pipe.Prog, pipe.Pts) })
	var opt racestatic.Options
	sc.call("icfg.mustlock", func() { opt.MustLock = icfg.BuildMustLock(pipe.ICG) })
	sc.call("racestatic", func() { pipe.Static = racestatic.AnalyzeOpts(pipe.Prog, pipe.Pts, pipe.ICG, pipe.Esc, opt) })
	sc.call("lockdiscipline", func() {
		pipe.Discipline = lockdiscipline.Analyze(pipe.Static, pipe.ICG, opt.MustLock, pipe.Esc, pipe.Pts)
	})
	pipe.StaticStats.AccessSites = len(pipe.Static.Sites)
	pipe.StaticStats.RaceSetSize = len(pipe.Static.InRaceSet)
	pipe.StaticStats.PairCount = len(pipe.Static.Pairs)

	// The interprocedural summaries serve elimination; core.Compile
	// builds them before insertion, so the mirror does too.
	var ip *instrument.Interproc
	sc.call("instrument.elim", func() { ip = instrument.BuildInterproc(pipe.Prog, pipe.Pts) })
	ins := sc.child("instrument.insert")
	filter := pipe.Static.Filter()
	for _, fn := range pipe.Prog.Funcs {
		st := instrument.InsertTraces(fn, filter)
		pipe.InstrStats.Accesses += st.Accesses
		pipe.InstrStats.Inserted += st.Inserted
	}
	ins.end(nil)
	el := sc.child("instrument.elim")
	n, rep := instrument.EliminateProgramWith(pipe.Prog, ip, nil)
	el.end(nil)
	pipe.InstrStats.Eliminated = n
	pipe.ElimReport = rep
	pipe.StaticStats.ElimIntra, pipe.StaticStats.ElimPeel, pipe.StaticStats.ElimInterproc = rep.Counts()

	return pipe, nil
}

// compileCounts are the instrumentation and static counts the mirror
// guard compares.
type compileCounts struct {
	Inserted, Eliminated, Emitted, Pairs int
}

func countsOf(p *core.Pipeline) compileCounts {
	return compileCounts{
		Inserted:   p.InstrStats.Inserted,
		Eliminated: p.InstrStats.Eliminated,
		Emitted:    p.InstrStats.Inserted - p.InstrStats.Eliminated,
		Pairs:      p.StaticStats.PairCount,
	}
}

// mirrorGuard fails unless tracedCompile yields the same traces
// inserted, eliminated and emitted, and the same race-pair count, as
// core.Compile on p — so the per-layer times cannot drift from the
// real pipeline.
func mirrorGuard(p program) error {
	real, err := core.Compile(p.File, p.Src, core.Full())
	if err != nil {
		return fmt.Errorf("%s: core.Compile: %w", p.Name, err)
	}
	mirror, err := tracedCompile(scope{}, p)
	if err != nil {
		return fmt.Errorf("%s: traced compile: %w", p.Name, err)
	}
	if got, want := countsOf(mirror), countsOf(real); got != want {
		return fmt.Errorf("%s: traced compile diverges from core.Compile: got %+v, want %+v", p.Name, got, want)
	}
	return nil
}
