package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// RenderTimeSeries prints a TimeSeries as aligned per-window rows, one
// block of columns per system — the textual equivalent of the paper's
// three-panel time plots.
func RenderTimeSeries(w io.Writer, ts *TimeSeries) {
	fmt.Fprintf(w, "\n== %s ==\n", ts.Title)
	for _, ev := range ts.Events {
		fmt.Fprintf(w, "   event: %s\n", ev)
	}
	systems := make([]string, 0, len(ts.Rows))
	for name := range ts.Rows {
		systems = append(systems, name)
	}
	sort.Slice(systems, func(i, j int) bool {
		return systemOrder(systems[i]) < systemOrder(systems[j])
	})
	fmt.Fprintf(w, "%8s", "t(s)")
	for _, name := range systems {
		fmt.Fprintf(w, " | %28s", fmt.Sprintf("%s thr/s  p80(ms)  sec%%", abbrev(name)))
	}
	fmt.Fprintln(w)
	maxRows := 0
	for _, rows := range ts.Rows {
		if len(rows) > maxRows {
			maxRows = len(rows)
		}
	}
	for i := 0; i < maxRows; i++ {
		var start time.Duration
		for _, rows := range ts.Rows {
			if i < len(rows) {
				start = rows[i].Start
				break
			}
		}
		fmt.Fprintf(w, "%8.0f", start.Seconds())
		for _, name := range systems {
			rows := ts.Rows[name]
			if i < len(rows) {
				r := rows[i]
				fmt.Fprintf(w, " | %10.0f %8.1f %7.1f", r.Throughput,
					float64(r.P80)/float64(time.Millisecond), r.PctSecondary)
			} else {
				fmt.Fprintf(w, " | %28s", "")
			}
		}
		fmt.Fprintln(w)
	}
	if gate, ok := ts.Extra["gate"]; ok {
		var gatedAt []string
		for _, xy := range gate {
			if xy.Y > 0 {
				gatedAt = append(gatedAt, fmt.Sprintf("%.0fs", xy.X))
			}
		}
		if len(gatedAt) > 0 {
			fmt.Fprintf(w, "   staleness gate active (all reads to primary) at: %s\n",
				strings.Join(gatedAt, " "))
		}
	}
	for _, note := range ts.Notes {
		fmt.Fprintf(w, "   %s\n", note)
	}
}

func systemOrder(name string) int {
	switch name {
	case "Primary":
		return 0
	case "Secondary":
		return 1
	default:
		return 2
	}
}

func abbrev(name string) string {
	switch name {
	case "Primary":
		return "P"
	case "Secondary":
		return "S"
	case "Decongestant":
		return "D"
	}
	return name
}

// RenderSweep prints a Sweep as one row per x value with all series as
// columns (sorted by name).
func RenderSweep(w io.Writer, sw *Sweep) {
	fmt.Fprintf(w, "\n== %s ==\n", sw.Title)
	keys := map[string]bool{}
	for _, pt := range sw.Points {
		for k := range pt.Values {
			keys[k] = true
		}
	}
	cols := make([]string, 0, len(keys))
	for k := range keys {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	fmt.Fprintf(w, "%10s", sw.XLabel)
	for _, c := range cols {
		fmt.Fprintf(w, "  %26s", c)
	}
	fmt.Fprintln(w)
	for _, pt := range sw.Points {
		fmt.Fprintf(w, "%10.0f", pt.X)
		for _, c := range cols {
			fmt.Fprintf(w, "  %26.1f", pt.Values[c])
		}
		fmt.Fprintln(w)
	}
}

// RenderStaleness prints a StalenessResult: the estimate and observed
// series side by side on a shared per-second timeline, plus the bound
// summary.
func RenderStaleness(w io.Writer, res *StalenessResult) {
	fmt.Fprintf(w, "\n== %s ==\n", res.Title)
	if res.BoundSecs > 0 {
		fmt.Fprintf(w, "   client staleness bound: %ds\n", res.BoundSecs)
	}
	// Index observed samples to whole seconds (max per second).
	obs := map[int]float64{}
	for _, xy := range res.Observed {
		sec := int(xy.X)
		if xy.Y > obs[sec] {
			obs[sec] = xy.Y
		}
	}
	fmt.Fprintf(w, "%8s %14s %18s\n", "t(s)", "estimate(s)", "client-observed(s)")
	for _, xy := range res.Estimate {
		sec := int(xy.X)
		o, ok := obs[sec]
		if ok {
			fmt.Fprintf(w, "%8d %14.0f %18.2f\n", sec, xy.Y, o)
		} else {
			fmt.Fprintf(w, "%8d %14.0f %18s\n", sec, xy.Y, "-")
		}
	}
	fmt.Fprintf(w, "   samples=%d violations(above bound)=%d gated_seconds=%d\n",
		res.SampleCount, res.ViolationCount, res.GatedSeconds)
	for _, note := range res.Notes {
		fmt.Fprintf(w, "   %s\n", note)
	}
}

// SummarizeTimeSeries reduces a TimeSeries to per-system steady-state
// values over [from, to) — used by EXPERIMENTS.md and the benches.
func SummarizeTimeSeries(ts *TimeSeries, from, to time.Duration) map[string]Row {
	out := map[string]Row{}
	for name, rows := range ts.Rows {
		var thr, pct float64
		var p80 time.Duration
		n := 0
		for _, r := range rows {
			if r.Start < from || (to > 0 && r.Start >= to) {
				continue
			}
			thr += r.Throughput
			pct += r.PctSecondary
			if r.P80 > p80 {
				p80 = r.P80
			}
			n++
		}
		if n > 0 {
			out[name] = Row{Throughput: thr / float64(n), P80: p80, PctSecondary: pct / float64(n)}
		}
	}
	return out
}
