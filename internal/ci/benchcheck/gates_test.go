package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestParseCaps(t *testing.T) {
	g := gates(t, `[{"kind":"cap","name":"BenchmarkPlanScoreLargeCatalog/warm/candidates=1000","max_allocs":0,"reason":"r"}]`)
	if g[0].Name != "BenchmarkPlanScoreLargeCatalog/warm/candidates=1000" || *g[0].MaxAllocs != 0 {
		t.Fatalf("cap row = %+v", g[0])
	}
	// A row that lacks what its kind needs, or carries a field no kind has,
	// fails the run rather than gating nothing.
	for _, bad := range []string{
		`{"kind":"cap","max_allocs":0,"reason":"r"}`,
		`{"kind":"cap","name":"BenchmarkX","reason":"r"}`,
		`{"kind":"cap","name":"BenchmarkX","max_allocs":-1,"reason":"r"}`,
		`{"kind":"cap","name":"BenchmarkX","max_allocs":"x","reason":"r"}`,
		`{"kind":"cap","name":"BenchmarkX","allocs":0,"reason":"r"}`,
		`{"kind":"cap","name":"BenchmarkX","max_allocs":0}`,
		`{"kind":"cap","name":"BenchmarkX","max_allocs":0,"cap":1,"reason":"r"}`,
		`{"kind":"regression","ns":0.2,"reason":"r"}`,
		`{"kind":"regression","pattern":"BenchmarkX","reason":"r"}`,
		`{"kind":"regression","pattern":"Benchmark(","ns":0.2,"reason":"r"}`,
		`{"kind":"ratio","num":"BenchmarkX","bound":0.2,"reason":"r"}`,
		`{"kind":"ratio","num":"BenchmarkX","den":"BenchmarkY","reason":"r"}`,
		`{"kind":"threshold","name":"BenchmarkX","reason":"r"}`,
	} {
		if _, err := parseGates([]byte("[" + bad + "]")); err == nil {
			t.Errorf("parseGates accepted %s", bad)
		}
	}
}

// describe renders a row's kind, names and bound on one line.
func describe(g Gate) string {
	switch g.Kind {
	case kindRegression:
		s := fmt.Sprintf("regression %s ns %+g", g.Pattern, *g.Ns)
		if g.Allocs != nil {
			s += fmt.Sprintf(" allocs %+g", *g.Allocs)
		}
		return s
	case kindCap:
		return fmt.Sprintf("cap %s %g", g.Name, *g.MaxAllocs)
	default:
		return fmt.Sprintf("ratio %s / %s %+g", g.Num, g.Den, *g.Bound)
	}
}

// TestGatesTable pins the embedded table row by row: a bound moves only
// with an edit to this list.
func TestGatesTable(t *testing.T) {
	want := []string{
		"regression BenchmarkServeRankCached|BenchmarkServeRankConcurrent|BenchmarkServeRankSharded|BenchmarkSessionApply|BenchmarkVocabWriteRank ns +0.2 allocs +0.05",
		"regression BenchmarkFactorizedPlanCompile|BenchmarkPlanScoreLargeCatalog|BenchmarkPlanRankTopK|BenchmarkPlanRankAfterApply|BenchmarkPlanCompileAfterApply|BenchmarkPlanCompileAfterAssert|BenchmarkServeRankBatch|BenchmarkMembersQuery|BenchmarkMembersPatch|BenchmarkMembershipEvent ns +0.2",
		"regression BenchmarkJournalAppend$|BenchmarkJournalDeclareAssert|BenchmarkJournalReplay|BenchmarkServeRankWithJournal|BenchmarkServeRankCached ns +0.2",
		"cap BenchmarkServeRankCached/cached 2",
		"cap BenchmarkServeRankCached/http 51",
		"cap BenchmarkPlanScoreLargeCatalog/warm/candidates=100 0",
		"cap BenchmarkPlanScoreLargeCatalog/warm/candidates=1000 0",
		"cap BenchmarkPlanScoreLargeCatalog/warm/candidates=300 0",
		"cap BenchmarkPlanScoreLargeCatalog/warm/candidates=300/target=genre 0",
		"cap BenchmarkPlanCompileAfterApply/programs=300 25",
		"cap BenchmarkMembershipEvent/rows=4096 0",
		"ratio BenchmarkSessionApply/sessions=4096 / BenchmarkSessionApply/sessions=64 +1",
		"ratio BenchmarkVocabWriteRank/users=16 / BenchmarkVocabWriteRank/users=1 -0.5",
		"ratio BenchmarkPlanRankTopK/candidates=10000/top10 / BenchmarkPlanRankTopK/candidates=10000/full -0.5",
		"ratio BenchmarkPlanRankAfterApply/rotated/candidates=1000 / BenchmarkPlanRankAfterApply/same/candidates=1000 +0.25",
		"ratio BenchmarkMembershipEvent/rows=4096 / BenchmarkMembershipEvent/rows=64 +1",
		"ratio BenchmarkPlanCompileAfterApply/programs=3000 / BenchmarkPlanCompileAfterApply/programs=300 +0.25",
		"ratio BenchmarkMembersPatch / BenchmarkMembersQuery -0.67",
		"ratio BenchmarkServeRankWithJournal/uncached / BenchmarkServeRankCached/uncached +0.05",
		"ratio BenchmarkServeRankWithJournal/cached / BenchmarkServeRankCached/cached +0.05",
	}
	table, err := parseGates(gatesJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != len(want) {
		t.Errorf("%d rows, want %d", len(table), len(want))
	}
	for i := 0; i < len(table) && i < len(want); i++ {
		if got := describe(table[i]); got != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// moduleRoot is the repository root, three levels above this package.
const moduleRoot = "../../.."

// benchFuncs maps every top-level benchmark defined in the module's
// _test.go files to the package directories defining it, as go test names
// them ("." or "./internal/core"). Nested modules (bench/) are not walked.
func benchFuncs(t *testing.T) map[string][]string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w*)\(b \*testing\.B\)`)
	out := map[string][]string{}
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != moduleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != moduleRoot {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleRoot, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "."
		if rel != "." {
			pkg = "./" + filepath.ToSlash(rel)
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			out[string(m[1])] = append(out[string(m[1])], pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// jobRun is one go test invocation of the gates job: its -bench pattern and
// package.
type jobRun struct {
	bench *regexp.Regexp
	pkg   string
}

// gateRuns reads the go test invocations of bench() in ci.yml's bench-gates
// job: the runs whose output benchcheck is given.
func gateRuns(t *testing.T) []jobRun {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(moduleRoot, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	job := strings.Index(text, "\n  bench-gates:\n")
	if job < 0 {
		t.Fatal("ci.yml has no bench-gates job")
	}
	start := strings.Index(text[job:], "bench() {\n")
	if start < 0 {
		t.Fatal("the bench-gates job defines no bench() function")
	}
	fn, _, ok := strings.Cut(text[job+start:], "\n          }\n")
	if !ok {
		t.Fatal("bench() in the bench-gates job is not closed")
	}
	fn = strings.ReplaceAll(fn, "\\\n", " ")
	benchFlag := regexp.MustCompile(`-bench '([^']*)'`)
	var runs []jobRun
	for _, line := range strings.Split(fn, "\n") {
		if !strings.Contains(line, "go test ") {
			continue
		}
		m := benchFlag.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("go test without a quoted -bench pattern in bench(): %s", line)
		}
		fields := strings.Fields(line)
		runs = append(runs, jobRun{bench: regexp.MustCompile(m[1]), pkg: fields[len(fields)-1]})
	}
	if len(runs) == 0 {
		t.Fatal("bench() in the bench-gates job runs no go test")
	}
	return runs
}

// TestGatesNameBenchmarksTheJobRuns is the guard against a stale row: every
// top-level benchmark a row of gates.json names must be defined once in the
// module and run by the bench-gates job, so a renamed, moved or deleted
// benchmark fails here rather than first on a pull request's CI run.
func TestGatesNameBenchmarksTheJobRuns(t *testing.T) {
	table, err := parseGates(gatesJSON)
	if err != nil {
		t.Fatal(err)
	}
	defined := benchFuncs(t)
	runs := gateRuns(t)
	ran := func(name string) {
		t.Helper()
		pkgs := defined[name]
		if len(pkgs) != 1 {
			t.Errorf("%s is defined in %d places %v, want 1", name, len(pkgs), pkgs)
			return
		}
		for _, r := range runs {
			if r.pkg == pkgs[0] && r.bench.MatchString(name) {
				return
			}
		}
		t.Errorf("%s (%s) is run by no go test in the bench-gates job", name, pkgs[0])
	}
	top := func(name string) string {
		top, _, _ := strings.Cut(name, "/")
		return top
	}
	for _, g := range table {
		switch g.Kind {
		case kindRegression:
			// Each alternative of the pattern must still match a benchmark.
			for _, alt := range strings.Split(g.Pattern, "|") {
				re := regexp.MustCompile(alt)
				n := 0
				for name := range defined {
					if re.MatchString(name) {
						n++
						ran(name)
					}
				}
				if n == 0 {
					t.Errorf("regression pattern %q: %q matches no benchmark", g.Pattern, alt)
				}
			}
		case kindCap:
			ran(top(g.Name))
		case kindRatio:
			ran(top(g.Num))
			ran(top(g.Den))
		}
	}
}
