package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// gates parses a gates table for a test.
func gates(t *testing.T, table string) []Gate {
	t.Helper()
	g, err := parseGates([]byte(table))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// only runs one row and returns its verdict.
func only(t *testing.T, oldData, newData string, table string) Verdict {
	t.Helper()
	rep, err := Compare([]byte(oldData), []byte(newData), gates(t, table))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Gates) != 1 {
		t.Fatalf("%d verdicts, want 1", len(rep.Gates))
	}
	if v := rep.Gates[0]; v.Fail != (rep.Failed == 1) {
		t.Fatalf("verdict fail=%v but report counts %d failed", v.Fail, rep.Failed)
	}
	return rep.Gates[0]
}

const everything20 = `[{"kind":"regression","pattern":"Benchmark","ns":0.20,"reason":"r"}]`

const baseline = `
goos: linux
BenchmarkServeRankCached/cached-8     1000000    600 ns/op
BenchmarkServeRankCached/cached-8     1000000    610 ns/op
BenchmarkServeRankCached/cached-8     1000000   9999 ns/op
BenchmarkServeRankConcurrent/sessions=4-8   50000   2000 ns/op
BenchmarkServeRankConcurrent/sessions=4-8   50000   2100 ns/op
BenchmarkGone-8   1   100 ns/op
PASS
`

func TestCompareWithinBudget(t *testing.T) {
	candidate := `
BenchmarkServeRankCached/cached-8     1000000    650 ns/op
BenchmarkServeRankCached/cached-8     1000000    640 ns/op
BenchmarkServeRankConcurrent/sessions=4-8   50000   2050 ns/op
BenchmarkFresh-8   1   1 ns/op
`
	v := only(t, baseline, candidate, everything20)
	if v.Fail {
		t.Fatalf("row failed: %+v", v)
	}
	if len(v.Benchmarks) != 2 {
		t.Fatalf("compared %d benchmarks, want 2", len(v.Benchmarks))
	}
	// The baseline median of cached is 610 (the 9999 outlier must not
	// drag the median); 645/610 ≈ +5.7%.
	r := result(t, v, "BenchmarkServeRankCached/cached")
	if r.OldNsOp != 610 {
		t.Fatalf("baseline median = %g, want 610 (outlier-robust)", r.OldNsOp)
	}
	if r.Delta < 0.05 || r.Delta > 0.07 {
		t.Fatalf("delta = %g, want ≈0.057", r.Delta)
	}
	if len(v.OnlyOld) != 1 || v.OnlyOld[0] != "BenchmarkGone" {
		t.Fatalf("only_old = %v", v.OnlyOld)
	}
	if len(v.OnlyNew) != 1 || v.OnlyNew[0] != "BenchmarkFresh" {
		t.Fatalf("only_new = %v", v.OnlyNew)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	candidate := `
BenchmarkServeRankCached/cached-8     1000000    800 ns/op
BenchmarkServeRankConcurrent/sessions=4-8   50000   2050 ns/op
`
	v := only(t, baseline, candidate, everything20)
	if !v.Fail {
		t.Fatal("800 vs 610 ns/op (+31%) passed a +20% row")
	}
	for _, r := range v.Benchmarks {
		if r.Regression != (r.Name == "BenchmarkServeRankCached/cached") {
			t.Fatalf("%s regression = %v", r.Name, r.Regression)
		}
	}
	// A row sees only the benchmarks its pattern matches, as -bench does: by
	// top-level name, so a $ anchors before the first '/'.
	v = only(t, baseline, candidate, `[{"kind":"regression","pattern":"Concurrent$","ns":0.20,"reason":"r"}]`)
	if v.Fail || len(v.Benchmarks) != 1 || v.Benchmarks[0].Name != "BenchmarkServeRankConcurrent/sessions=4" {
		t.Fatalf("Concurrent$ row: %+v", v)
	}
	// A pattern that matches nothing in either run is a stale row.
	v = only(t, baseline, candidate, `[{"kind":"regression","pattern":"BenchmarkRenamed","ns":0.20,"reason":"r"}]`)
	if !v.Fail || len(v.Missing) != 1 {
		t.Fatalf("a row matching nothing passed: %+v", v)
	}
}

func TestCompareScientificNotationAndEmpty(t *testing.T) {
	if _, err := Compare([]byte("no benches here"), []byte(""), gates(t, everything20)); err == nil {
		t.Fatal("empty inputs accepted")
	}
	if _, err := Compare([]byte(baseline), []byte("FAIL"), gates(t, everything20)); err == nil {
		t.Fatal("a candidate without results accepted")
	}
	v := only(t, "BenchmarkBig-8  1  1.5e+06 ns/op", "BenchmarkBig-8  1  1.6e+06 ns/op", everything20)
	if len(v.Benchmarks) != 1 || v.Benchmarks[0].OldNsOp != 1.5e6 {
		t.Fatalf("scientific notation parsed as %+v", v.Benchmarks)
	}
}

// --- -benchmem column parsing and the alloc gates --------------------------

const oldMemBench = `
goos: linux
BenchmarkRankFast-8    1000    100.0 ns/op    64 B/op    2 allocs/op
BenchmarkRankFast-8    1000    110.0 ns/op    64 B/op    2 allocs/op
BenchmarkRankFast-8    1000    120.0 ns/op    64 B/op    2 allocs/op
BenchmarkNoMem-8       1000    50.0 ns/op
BenchmarkZero-8        1000    10.0 ns/op    0 B/op    0 allocs/op
`

const newMemBench = `
BenchmarkRankFast-8    1000    115.0 ns/op    96 B/op    3 allocs/op
BenchmarkRankFast-8    1000    112.0 ns/op    96 B/op    3 allocs/op
BenchmarkRankFast-8    1000    118.0 ns/op    96 B/op    3 allocs/op
BenchmarkNoMem-8       1000    51.0 ns/op
BenchmarkZero-8        1000    11.0 ns/op    0 B/op    0 allocs/op
`

const allocs10 = `[{"kind":"regression","pattern":"Benchmark","ns":0.20,"allocs":0.10,"reason":"r"}]`

func result(t *testing.T, v Verdict, name string) Result {
	t.Helper()
	for _, r := range v.Benchmarks {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("benchmark %s missing from verdict", name)
	return Result{}
}

func TestCompareParsesMemColumns(t *testing.T) {
	v := only(t, oldMemBench, newMemBench, everything20)
	r := result(t, v, "BenchmarkRankFast")
	if r.OldNsOp != 110 || r.NewNsOp != 115 {
		t.Fatalf("ns/op medians = %v, %v; want 110, 115", r.OldNsOp, r.NewNsOp)
	}
	if r.OldAllocsOp == nil || *r.OldAllocsOp != 2 || r.NewAllocsOp == nil || *r.NewAllocsOp != 3 {
		t.Fatalf("allocs/op medians = %v, %v; want 2, 3", r.OldAllocsOp, r.NewAllocsOp)
	}
	if r.AllocRegression {
		t.Fatal("alloc gate fired on a row without an allocs bound")
	}
	if nm := result(t, v, "BenchmarkNoMem"); nm.OldAllocsOp != nil {
		t.Fatal("benchmark without -benchmem columns got alloc medians")
	}
	if v.Fail {
		t.Fatalf("unexpected failure: %+v", v)
	}
}

func TestCompareAllocThreshold(t *testing.T) {
	v := only(t, oldMemBench, newMemBench, allocs10)
	if r := result(t, v, "BenchmarkRankFast"); !r.AllocRegression {
		t.Fatal("2 → 3 allocs/op should exceed a 10% alloc threshold")
	}
	if !v.Fail {
		t.Fatal("an alloc regression passed the row")
	}
	// A benchmark missing memstats on either side must not fire the gate.
	if r := result(t, v, "BenchmarkNoMem"); r.AllocRegression {
		t.Fatal("alloc gate fired without -benchmem columns")
	}
	// Zero-to-zero stays clean; zero-to-nonzero regresses.
	if r := result(t, v, "BenchmarkZero"); r.AllocRegression {
		t.Fatal("0 → 0 allocs/op flagged")
	}
	grew := strings.Replace(newMemBench, "BenchmarkZero-8        1000    11.0 ns/op    0 B/op    0 allocs/op",
		"BenchmarkZero-8        1000    11.0 ns/op    16 B/op    1 allocs/op", 1)
	v = only(t, oldMemBench, grew, allocs10)
	if r := result(t, v, "BenchmarkZero"); !r.AllocRegression {
		t.Fatal("0 → 1 allocs/op not flagged")
	}
}

func TestCompareMaxAllocsCaps(t *testing.T) {
	table := `[
		{"kind":"cap","name":"BenchmarkZero","max_allocs":0,"reason":"r"},
		{"kind":"cap","name":"BenchmarkRankFast","max_allocs":2,"reason":"r"}]`
	// A cap reads the candidate alone: no baseline is needed.
	rep, err := Compare(nil, []byte(newMemBench), gates(t, table))
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Gates[0]; c.Fail || *c.AllocsOp != 0 {
		t.Fatalf("zero cap: %+v", c)
	}
	if c := rep.Gates[1]; !c.Fail || *c.AllocsOp != 3 {
		t.Fatalf("rankfast cap: %+v", c)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
}

func TestCompareMissingCapFails(t *testing.T) {
	v := only(t, "", newMemBench, `[{"kind":"cap","name":"BenchmarkVanished","max_allocs":0,"reason":"r"}]`)
	if !v.Fail || len(v.Missing) != 1 {
		t.Fatalf("a vanished capped benchmark must fail the check: %+v", v)
	}
	// A cap over a benchmark that ran without -benchmem is equally missing.
	v = only(t, "", newMemBench, `[{"kind":"cap","name":"BenchmarkNoMem","max_allocs":0,"reason":"r"}]`)
	if !v.Fail || len(v.Missing) != 1 {
		t.Fatalf("cap over mem-less benchmark: %+v", v)
	}
	// A cap names a whole benchmark: BenchmarkRank is not BenchmarkRankFast.
	v = only(t, "", newMemBench, `[{"kind":"cap","name":"BenchmarkRank","max_allocs":9,"reason":"r"}]`)
	if !v.Fail || len(v.Missing) != 1 {
		t.Fatalf("cap matched a longer name: %+v", v)
	}
}

// --- same-run ratio rows -----------------------------------------------------

// formerRenames are the same-run comparisons CI once made by renaming one
// benchmark's lines to the other's name with grep | sed and diffing them as
// "old" (den) and "new" (num). Each is a ratio row of the table now; the
// journal-overhead rename compared every sub-benchmark the two shared, so it
// is two rows.
var formerRenames = []struct{ step, num, den string }{
	{"session apply flat in the session count", "BenchmarkSessionApply/sessions=4096", "BenchmarkSessionApply/sessions=64"},
	{"vocabulary-write rank cost shared across users", "BenchmarkVocabWriteRank/users=16", "BenchmarkVocabWriteRank/users=1"},
	{"top-k speedup >= 2x over full sort", "BenchmarkPlanRankTopK/candidates=10000/top10", "BenchmarkPlanRankTopK/candidates=10000/full"},
	{"rotated context's poll <= 1.25x an unchanged set's", "BenchmarkPlanRankAfterApply/rotated/candidates=1000", "BenchmarkPlanRankAfterApply/same/candidates=1000"},
	{"membership look-up flat in the concept's rows", "BenchmarkMembershipEvent/rows=4096", "BenchmarkMembershipEvent/rows=64"},
	{"compile after apply flat in the catalog", "BenchmarkPlanCompileAfterApply/programs=3000", "BenchmarkPlanCompileAfterApply/programs=300"},
	{"membership patch <= 1/3 of the full evaluation", "BenchmarkMembersPatch", "BenchmarkMembersQuery"},
	{"journal overhead <5% (uncached)", "BenchmarkServeRankWithJournal/uncached", "BenchmarkServeRankCached/uncached"},
	{"journal overhead <5% (cached)", "BenchmarkServeRankWithJournal/cached", "BenchmarkServeRankCached/cached"},
}

// line renders five -count samples of one benchmark at ns ns/op.
func line(name string, ns float64) string {
	return strings.Repeat(fmt.Sprintf("%s-2  1000  %.1f ns/op  0 B/op  0 allocs/op\n", name, ns), 5)
}

// TestCompareRatioRows holds each former rename's row of the embedded table
// to a candidate just inside its bound (passes), just outside it (fails),
// and without its numerator or its denominator (fails: a rename with one
// side missing filed the other under only_old and exited 0).
func TestCompareRatioRows(t *testing.T) {
	table, err := parseGates(gatesJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range formerRenames {
		t.Run(fr.step, func(t *testing.T) {
			var row []Gate
			for _, g := range table {
				if g.Kind == kindRatio && g.Num == fr.num && g.Den == fr.den {
					row = append(row, g)
				}
			}
			if len(row) != 1 {
				t.Fatalf("%d ratio rows for %s / %s, want 1", len(row), fr.num, fr.den)
			}
			const den = 1000.0
			limit := den * (1 + *row[0].Bound)
			for _, tc := range []struct {
				name      string
				candidate string
				fail      bool
			}{
				{"in bound", line(fr.num, limit*0.98) + line(fr.den, den), false},
				{"out of bound", line(fr.num, limit*1.02) + line(fr.den, den), true},
				{"missing numerator", line(fr.den, den), true},
				{"missing denominator", line(fr.num, limit*0.98), true},
			} {
				rep, err := Compare(nil, []byte(tc.candidate), row)
				if err != nil {
					t.Fatal(err)
				}
				if v := rep.Gates[0]; v.Fail != tc.fail {
					t.Errorf("%s: fail = %v, want %v (%+v)", tc.name, v.Fail, tc.fail, v)
				}
			}
		})
	}
}

// TestCompareIgnoresOnlyTheProcSuffix feeds the same samples with and
// without the -N GOMAXPROCS suffix (go test leaves it off under -cpu 1) and
// wants identical verdicts; users=1 must never pick up users=16's lines.
func TestCompareIgnoresOnlyTheProcSuffix(t *testing.T) {
	table := gates(t, `[
		{"kind":"regression","pattern":"BenchmarkVocabWriteRank","ns":0.20,"allocs":0.05,"reason":"r"},
		{"kind":"cap","name":"BenchmarkVocabWriteRank/users=1","max_allocs":10,"reason":"r"},
		{"kind":"ratio","num":"BenchmarkVocabWriteRank/users=16","den":"BenchmarkVocabWriteRank/users=1","bound":-0.5,"reason":"r"}]`)
	run := func(suffix string, users1, users16 float64, allocs16 int) string {
		return fmt.Sprintf("BenchmarkVocabWriteRank/users=1%s  100  %.0f ns/op  512 B/op  8 allocs/op\n", suffix, users1) +
			fmt.Sprintf("BenchmarkVocabWriteRank/users=16%s  100  %.0f ns/op  512 B/op  %d allocs/op\n", suffix, users16, allocs16)
	}
	oldRun := func(suffix string) string { return run(suffix, 200e3, 50e3, 8) }
	for _, tc := range []struct {
		name            string
		users1, users16 float64
		allocs16        int
		fail            bool
	}{
		{"all hold", 200e3, 50e3, 8, false},
		{"sharing lost and users=16 allocates more", 200e3, 150e3, 40, true},
	} {
		var reports []Report
		for _, suffix := range []string{"", "-1", "-8"} {
			rep, err := Compare([]byte(oldRun(suffix)), []byte(run(suffix, tc.users1, tc.users16, tc.allocs16)), table)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, rep)
		}
		for i, rep := range reports[1:] {
			if !reflect.DeepEqual(rep, reports[0]) {
				t.Fatalf("%s: verdicts differ with the suffix:\n%+v\n%+v", tc.name, reports[0], reports[i+1])
			}
		}
		rep := reports[0]
		if c := rep.Gates[1]; *c.AllocsOp != 8 || c.Fail {
			t.Fatalf("%s: users=1 cap read %+v", tc.name, c)
		}
		if got := rep.Gates[2].DenNsOp; got != tc.users1 {
			t.Fatalf("%s: ratio denominator %g, want users=1's %g", tc.name, got, tc.users1)
		}
		if rep.Gates[0].Fail != tc.fail || rep.Gates[2].Fail != tc.fail {
			t.Fatalf("%s: regression and ratio rows fail = %v, %v; want %v", tc.name, rep.Gates[0].Fail, rep.Gates[2].Fail, tc.fail)
		}
	}
}
