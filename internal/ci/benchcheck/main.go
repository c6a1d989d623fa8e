// Command benchcheck holds two `go test -bench` output files to the table of
// micro-gates in gates.json and fails (exit 1) when any row fails. CI's
// bench-gates job runs it once, next to benchstat: benchstat renders the
// human-readable comparison, benchcheck is the machine gate — it takes the
// per-benchmark median over the -count repetitions (robust against one
// noisy run, no statistics dependency) and emits a JSON report that the
// workflow uploads with the raw outputs.
//
// Usage:
//
//	benchcheck -old base.txt -new head.txt [-json BENCH_gates.json]
//
// -old is the merge base's run and -new the pull request's, both of the same
// benchmarks. A row is one of three kinds (see Gate): a regression gate
// against the baseline, an absolute allocs/op cap on the candidate, or a
// ratio of two candidate benchmarks from the same run. A row whose
// benchmarks are missing from the candidate fails; a benchmark missing from
// only one side of a regression row is reported and never fails it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		oldPath  = flag.String("old", "", "baseline bench output (merge base)")
		newPath  = flag.String("new", "", "candidate bench output (pull request)")
		jsonPath = flag.String("json", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: need -old and -new")
		os.Exit(2)
	}
	report, err := run(*oldPath, *newPath, *jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	for _, v := range report.Gates {
		printVerdict(v)
	}
	if report.Failed > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d of %d gate(s) failed\n", report.Failed, len(report.Gates))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchcheck: %d gate(s) held\n", len(report.Gates))
}

// run holds the two files to the embedded table and writes the JSON report.
func run(oldPath, newPath, jsonPath string) (Report, error) {
	gates, err := parseGates(gatesJSON)
	if err != nil {
		return Report{}, err
	}
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return Report{}, err
	}
	newData, err := os.ReadFile(newPath)
	if err != nil {
		return Report{}, err
	}
	report, err := Compare(oldData, newData, gates)
	if err != nil {
		return Report{}, err
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return Report{}, err
	}
	out = append(out, '\n')
	if jsonPath == "" {
		_, err = os.Stdout.Write(out)
	} else {
		err = os.WriteFile(jsonPath, out, 0o644)
	}
	return report, err
}

// printVerdict writes one row's outcome to standard error, with its reason
// when it failed.
func printVerdict(v Verdict) {
	mark := "ok  "
	if v.Fail {
		mark = "FAIL"
	}
	switch v.Kind {
	case kindRegression:
		fmt.Fprintf(os.Stderr, "%s regression %s (ns/op ≤ %+.0f%%", mark, v.Pattern, 100**v.Ns)
		if v.Allocs != nil {
			fmt.Fprintf(os.Stderr, ", allocs/op ≤ %+.0f%%", 100**v.Allocs)
		}
		fmt.Fprintln(os.Stderr, ")")
		for _, b := range v.Benchmarks {
			m := " "
			if b.Regression || b.AllocRegression {
				m = "!"
			}
			line := fmt.Sprintf("   %s %-60s %12.0f → %12.0f ns/op (%+.1f%%)", m, b.Name, b.OldNsOp, b.NewNsOp, 100*b.Delta)
			if b.OldAllocsOp != nil {
				line += fmt.Sprintf("   %.0f → %.0f allocs/op", *b.OldAllocsOp, *b.NewAllocsOp)
			}
			fmt.Fprintln(os.Stderr, line)
		}
		for _, name := range v.OnlyNew {
			fmt.Fprintf(os.Stderr, "     %-60s no baseline\n", name)
		}
		for _, name := range v.OnlyOld {
			fmt.Fprintf(os.Stderr, "     %-60s gone from the candidate\n", name)
		}
	case kindCap:
		fmt.Fprintf(os.Stderr, "%s cap %s ≤ %.0f allocs/op", mark, v.Name, *v.MaxAllocs)
		if v.AllocsOp != nil {
			fmt.Fprintf(os.Stderr, ": %.0f", *v.AllocsOp)
		}
		fmt.Fprintln(os.Stderr)
	case kindRatio:
		fmt.Fprintf(os.Stderr, "%s ratio %s / %s: %.0f / %.0f ns/op (%+.1f%%, bound %+.0f%%)\n",
			mark, v.Num, v.Den, v.NumNsOp, v.DenNsOp, 100*v.Delta, 100**v.Bound)
	}
	for _, name := range v.Missing {
		fmt.Fprintf(os.Stderr, "     missing: %s\n", name)
	}
	if v.Fail {
		fmt.Fprintf(os.Stderr, "     why this gate: %s\n", v.Reason)
	}
}
