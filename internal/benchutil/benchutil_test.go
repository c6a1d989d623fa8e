package benchutil

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRunSeriesCompletes(t *testing.T) {
	pts := RunSeries([]int{1, 2, 3}, time.Second, func(x int) (string, error) {
		return fmt.Sprintf("x=%d", x), nil
	})
	if len(pts) != 3 {
		t.Fatalf("points = %v", pts)
	}
	for i, p := range pts {
		if p.TimedOut || p.Err != nil || p.Extra != fmt.Sprintf("x=%d", i+1) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
}

func TestRunSeriesTimeoutStopsSweep(t *testing.T) {
	pts := RunSeries([]int{1, 2, 3}, 30*time.Millisecond, func(x int) (string, error) {
		if x >= 2 {
			time.Sleep(time.Second)
		}
		return "", nil
	})
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if !pts[1].TimedOut {
		t.Fatalf("second point = %+v", pts[1])
	}
	if !strings.Contains(pts[1].Label(), "DNF") {
		t.Fatalf("label = %q", pts[1].Label())
	}
}

func TestRunSeriesErrorStopsSweep(t *testing.T) {
	boom := errors.New("boom")
	pts := RunSeries([]int{1, 2, 3}, time.Second, func(x int) (string, error) {
		if x == 2 {
			return "", boom
		}
		return "", nil
	})
	if len(pts) != 2 || pts[1].Err == nil {
		t.Fatalf("points = %v", pts)
	}
	if !strings.Contains(pts[1].Label(), "boom") {
		t.Fatalf("label = %q", pts[1].Label())
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"rules", "time"}}
	tab.Add("1", "12ms")
	tab.Add("10", "1.5s")
	var b strings.Builder
	tab.Write(&b)
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("output = %q", out)
	}
	if !strings.HasPrefix(lines[0], "| rules | time") {
		t.Fatalf("header = %q", lines[0])
	}
	// Columns aligned: all lines same length.
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Fatalf("misaligned: %q vs %q", l, lines[0])
		}
	}
}

func TestSeriesTable(t *testing.T) {
	pts := []Point{
		{X: 1, Duration: time.Millisecond, Extra: "300 rows"},
		{X: 2, Duration: 2 * time.Millisecond},
	}
	tab := SeriesTable("rules", pts)
	if len(tab.Rows) != 2 || tab.Rows[0][2] != "300 rows" {
		t.Fatalf("table = %+v", tab)
	}
}

func TestGrowthFactors(t *testing.T) {
	pts := []Point{
		{X: 1, Duration: 10 * time.Millisecond},
		{X: 2, Duration: 20 * time.Millisecond},
		{X: 3, Duration: 80 * time.Millisecond},
		{X: 4, TimedOut: true, Duration: time.Second},
	}
	fs := GrowthFactors(pts)
	if len(fs) != 2 {
		t.Fatalf("factors = %v", fs)
	}
	if fs[0] < 1.9 || fs[0] > 2.1 || fs[1] < 3.9 || fs[1] > 4.1 {
		t.Fatalf("factors = %v", fs)
	}
}

// SeriesTable renders a sweep as a table with the given axis name.
func SeriesTable(axis string, points []Point) *Table {
	t := &Table{Header: []string{axis, "time", "note"}}
	for _, p := range points {
		t.Add(fmt.Sprintf("%d", p.X), p.Label(), p.Extra)
	}
	return t
}
