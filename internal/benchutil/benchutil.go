// Package benchutil provides the measurement harness used by cmd/carbench
// and the testing.B benches: wall-clock series with a per-point timeout
// (the paper aborted its 7-rule measurement after half an hour; we abort
// configurably and report "did not finish"), plus plain-text table
// rendering for EXPERIMENTS.md.
package benchutil

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Point is one measurement in a parameter sweep.
type Point struct {
	X        int           // the swept parameter (e.g. number of rules)
	Duration time.Duration // wall clock of the measured call
	TimedOut bool          // the call did not finish within the budget
	Err      error         // the call failed
	Extra    string        // free-form annotation (e.g. result count)
}

// Label renders the point's duration column.
func (p Point) Label() string {
	switch {
	case p.Err != nil:
		return "error: " + p.Err.Error()
	case p.TimedOut:
		return fmt.Sprintf("DNF (>%s)", p.Duration.Round(time.Millisecond))
	default:
		return p.Duration.Round(time.Microsecond).String()
	}
}

// RunSeries sweeps xs, calling fn for each value with a timeout budget.
// fn runs in a goroutine; on timeout the point is marked TimedOut and the
// sweep stops (larger x would only be slower), mirroring the paper's "did
// not finish within half an hour" cut-off. The abandoned goroutine is left
// to finish in the background, so fn must be side-effect-safe.
func RunSeries(xs []int, timeout time.Duration, fn func(x int) (string, error)) []Point {
	var out []Point
	for _, x := range xs {
		type outcome struct {
			extra string
			err   error
		}
		done := make(chan outcome, 1)
		start := time.Now()
		go func(x int) {
			extra, err := fn(x)
			done <- outcome{extra, err}
		}(x)
		select {
		case oc := <-done:
			out = append(out, Point{X: x, Duration: time.Since(start), Err: oc.err, Extra: oc.extra})
			if oc.err != nil {
				return out
			}
		case <-time.After(timeout):
			out = append(out, Point{X: x, Duration: timeout, TimedOut: true})
			return out
		}
	}
	return out
}

// Table renders rows of cells with aligned columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table to w.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return "| " + strings.Join(parts, " | ") + " |"
	}
	fmt.Fprintln(w, line(t.Header))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintln(w, line(sep))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// GrowthFactors annotates consecutive finished points with their runtime
// ratio — the "×2 per rule" shape check for the scalability experiment.
func GrowthFactors(points []Point) []float64 {
	var out []float64
	for i := 1; i < len(points); i++ {
		if points[i].TimedOut || points[i-1].TimedOut || points[i].Err != nil || points[i-1].Err != nil {
			break
		}
		prev := points[i-1].Duration.Seconds()
		if prev <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, points[i].Duration.Seconds()/prev)
	}
	return out
}
