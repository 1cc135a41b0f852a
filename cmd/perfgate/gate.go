package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"racedet/internal/bench"
)

func loadReport(path string) (*bench.JSONReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bench.ReadJSON(f)
}

// parseConfigs turns a comma-separated -configs list into the gated set.
func parseConfigs(list string) map[string]bool {
	gated := map[string]bool{}
	for _, c := range strings.Split(list, ",") {
		if c = strings.TrimSpace(c); c != "" {
			gated[c] = true
		}
	}
	return gated
}

// row is one (benchmark, config) comparison between the two artifacts.
type row struct {
	Benchmark string
	Config    string
	BaseNs    int64
	CurNs     int64
	Gated     bool
	Missing   bool // cell present in the baseline but not measured now
}

// Ratio is current/baseline ns/op; 1.0 means unchanged, 1.30 means 30%
// slower than the baseline.
func (r row) Ratio() float64 { return float64(r.CurNs) / float64(r.BaseNs) }

// compare walks every cell of the baseline and looks it up in the
// current artifact. A gated cell missing from the current artifact is
// a violation (a gate that silently skips cells protects nothing), as
// is a gated cell whose ns/op grew beyond the threshold.
//
// Degenerate artifacts downgrade to warnings instead of blowing up
// the gate: a baseline cell with no measurement (ns/op <= 0, e.g. a
// hand-edited or truncated baseline) is skipped with a warning rather
// than producing an infinite ratio; cells that exist only in the
// current artifact are reported as warnings (adding a configuration
// must not require regenerating the baseline first, but the gap
// should be visible); and a gated configuration with zero usable
// baseline cells is warned about, because a gate with nothing to
// compare against protects nothing.
func compare(base, cur *bench.JSONReport, gated map[string]bool, threshold float64) (rows []row, violations, warnings []string) {
	curNs := make(map[string]int64, len(cur.Results))
	for _, r := range cur.Results {
		curNs[r.Benchmark+"/"+r.Config] = r.NsPerOp
	}
	baseSeen := make(map[string]bool, len(base.Results))
	gatedCells := make(map[string]int, len(gated))
	for _, b := range base.Results {
		key := b.Benchmark + "/" + b.Config
		baseSeen[key] = true
		if b.NsPerOp <= 0 {
			warnings = append(warnings,
				fmt.Sprintf("%s: baseline has no measurement (ns/op=%d); cell skipped", key, b.NsPerOp))
			continue
		}
		r := row{
			Benchmark: b.Benchmark,
			Config:    b.Config,
			BaseNs:    b.NsPerOp,
			Gated:     gated[b.Config],
		}
		if r.Gated {
			gatedCells[b.Config]++
		}
		ns, ok := curNs[key]
		if !ok {
			r.Missing = true
			if r.Gated {
				violations = append(violations,
					fmt.Sprintf("%s: gated cell missing from current artifact", key))
			}
		} else {
			r.CurNs = ns
			if r.Gated && r.Ratio() > 1+threshold {
				violations = append(violations,
					fmt.Sprintf("%s: %d -> %d ns/op (%.2fx, limit %.2fx)",
						key, r.BaseNs, r.CurNs, r.Ratio(), 1+threshold))
			}
		}
		rows = append(rows, r)
	}
	gatedNames := make([]string, 0, len(gated))
	for c := range gated {
		gatedNames = append(gatedNames, c)
	}
	sort.Strings(gatedNames)
	for _, c := range gatedNames {
		if gatedCells[c] == 0 {
			warnings = append(warnings,
				fmt.Sprintf("gated config %q has no usable baseline cells; the gate cannot protect it", c))
		}
	}
	for _, r := range cur.Results {
		if key := r.Benchmark + "/" + r.Config; !baseSeen[key] {
			warnings = append(warnings,
				fmt.Sprintf("%s: present only in current artifact (no baseline, not gated)", key))
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Gated != rows[j].Gated {
			return rows[i].Gated
		}
		if rows[i].Benchmark != rows[j].Benchmark {
			return rows[i].Benchmark < rows[j].Benchmark
		}
		return rows[i].Config < rows[j].Config
	})
	return rows, violations, warnings
}

func countGated(rows []row) int {
	n := 0
	for _, r := range rows {
		if r.Gated {
			n++
		}
	}
	return n
}

func printRows(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tconfig\tbaseline ns/op\tcurrent ns/op\tratio\tgated")
	for _, r := range rows {
		gate := ""
		if r.Gated {
			gate = "*"
		}
		if r.Missing {
			fmt.Fprintf(tw, "%s\t%s\t%d\t(missing)\t\t%s\n", r.Benchmark, r.Config, r.BaseNs, gate)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.2fx\t%s\n", r.Benchmark, r.Config, r.BaseNs, r.CurNs, r.Ratio(), gate)
	}
	tw.Flush()
}
