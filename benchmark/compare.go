// snapmark -compare old.json new.json.
package main

import (
	"fmt"
	"io"
)

// verdict classifies one workload × metric pair. Lower is better for every
// end-to-end metric, so a positive delta is a slowdown.
func verdict(delta, spread, bound float64) string {
	switch {
	case delta > bound:
		return "regressed"
	case spread > bound:
		return "unresolved" // the spread is wider than the bound: no finding either way
	case delta < -spread:
		return "improved"
	default:
		return "unchanged"
	}
}

// spreadOf is a row's recorded interquartile spread as a share of its median.
func spreadOf(r row) float64 {
	if r.Median == 0 {
		return 0
	}
	return (r.Q3 - r.Q1) / r.Median
}

// endToEndRuns indexes a file's untraced runs by workload.
func endToEndRuns(f *resultFile) map[string]*result {
	out := map[string]*result{}
	for _, r := range f.Runs {
		if !r.Trace {
			out[r.Workload] = r
		}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, both values, the
// delta, the wider of the two recorded spreads and the bound, and reports
// whether anything regressed. A workload or metric the old file has and the
// new one lacks is a regression, and so are more failed operations than
// before; a parallel row that either run marks invalid is printed and never
// compared.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	oldFile, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	newFile, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	olds, news := endToEndRuns(oldFile), endToEndRuns(newFile)
	fmt.Fprintf(w, "%-15s %-24s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "old", "new", "delta", "spread", "bound", "verdict")
	for _, sp := range specs {
		o, n := olds[sp.name], news[sp.name]
		if o == nil {
			continue // nothing to compare against
		}
		if n == nil {
			fmt.Fprintf(w, "%-15s regressed: the new file has no run of this workload\n", sp.name)
			regressed = true
			continue
		}
		if n.Failed > o.Failed {
			fmt.Fprintf(w, "%-15s regressed: %d failed operations, %d before\n", sp.name, n.Failed, o.Failed)
			regressed = true
		}
		for _, d := range endToEnd {
			or, inOld := o.Rows[d.Name]
			if !inOld || or.Value == 0 {
				continue
			}
			nr, inNew := n.Rows[d.Name]
			if !inNew {
				fmt.Fprintf(w, "%-15s %-24s %14.4f %14s  regressed: not measured by the new run\n", sp.name, d.Name, or.Value, "-")
				regressed = true
				continue
			}
			delta := nr.Value/or.Value - 1
			spread := max(spreadOf(or), spreadOf(nr))
			v := verdict(delta, spread, d.Bound)
			if invalid(or) || invalid(nr) {
				v = "not compared: row not valid on this host (would be " + v + ")"
			} else if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-24s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				sp.name, d.Name, or.Value, nr.Value, 100*delta, 100*spread, 100*d.Bound, v)
		}
	}
	return regressed, nil
}

func invalid(r row) bool { return r.Valid != nil && !*r.Valid }
