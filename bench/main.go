// Command bench is the repo's end-to-end benchmark: it builds the serving
// stack as cmd/carserved does, drives it over loopback HTTP with four
// fixed, seeded op lists, verifies the outputs and prints every metric in
// BENCHMARK.json by name and unit. README.md is the manual.
//
//	go run . -seed 1                      # all four workloads, e2e + per-layer
//	go run . -workload hot-read -trace 0  # one workload, end-to-end metrics only
//	go run . -agree 5                     # two sets of 5 runs, cell by cell
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

const (
	// processors is the run's GOMAXPROCS: on one processor client and
	// server take turns on one thread, and no request waits for a second
	// vCPU to wake (README, "One processor").
	processors = 1
	coldSetups = 6 // setup_s is the fastest
	recoveries = 3 // of a per-layer run; recovery.fastest_s is the fastest
	outDir     = "out"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that its deferred clean-up (profiles,
// the temp dir) happens before the process exits.
func run() int {
	var (
		names      = flag.String("workload", "", "comma-separated workloads to run (default: all four)")
		seed       = flag.Int64("seed", 1, "seed of every generated input")
		seconds    = flag.Float64("seconds", refSeconds, "sizes the fixed op lists: cycle counts scale by seconds/15 (not a wall-clock bound)")
		scale      = flag.Float64("scale", 1, "further multiplies the cycle counts; local smoke runs only")
		trace      = flag.String("trace", "", "0: end-to-end metrics only (one recovery); 1: per-layer metrics only (one set-up; probes, traced replay); default both")
		dataDir    = flag.String("datadir", "", "parent of the data directories (default: a fresh directory under os.TempDir)")
		agree      = flag.Int("agree", 0, "run two sets of N runs per workload and compare their medians cell by cell")
		child      = flag.String("child", "", "internal: run one timed boot, setup or recover, and print it (see child.go)")
		image      = flag.String("image", "", "internal: the crash image a -child recover boots from")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
		return 1
	}
	if flag.NArg() > 0 {
		return fail("unexpected argument %q", flag.Arg(0))
	}

	var selected []*workload
	if *names == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		wl, ok := findWorkload(name)
		if !ok {
			return fail("unknown workload %q", name)
		}
		selected = append(selected, wl)
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		return fail("-trace takes 0 or 1, not %q", *trace)
	}
	factor := *seconds / refSeconds * *scale
	if !(factor > 0) {
		return fail("-seconds and -scale must be positive")
	}
	runtime.GOMAXPROCS(processors)
	if *child != "" {
		if len(selected) != 1 || *dataDir == "" {
			return fail("-child needs one -workload and a -datadir")
		}
		if err := runChild(*child, selected[0], *seed, *dataDir, *image); err != nil {
			return fail("%s child: %v", *child, err)
		}
		return 0
	}

	if *agree > 0 {
		return runAgree(selected, *agree, *seconds, *scale)
	}
	if len(selected) > 1 {
		if *cpuProfile != "" || *memProfile != "" {
			return fail("profile one workload at a time (-workload)")
		}
		return runEach(selected)
	}
	wl := selected[0]

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	dir := *dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "carbench-e2e-")
		if err != nil {
			return fail("%v", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// Each metric set pays only for its own repeated boots: setup_s is
	// end-to-end, recovery.* per-layer. One recovery always runs, for the
	// bit-identical check.
	cfg := runConfig{
		wl:      wl,
		seed:    *seed,
		setups:  coldSetups,
		recover: recoveries,
		layers:  *trace != "0",
		dataDir: filepath.Join(dir, wl.name),
		outDir:  outDir,
	}
	cfg.warm, cfg.cycles = wl.size(factor)
	switch *trace {
	case "0":
		cfg.recover = 1
	case "1":
		cfg.setups = 1
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return fail("%s: %v", wl.name, err)
	}
	if err := report(os.Stdout, cfg, res, *trace); err != nil {
		return fail("%s: %v", wl.name, err)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail("%v", err)
		}
		f.Close()
	}
	if !res.correct() || res.failed > 0 {
		return 1
	}
	return 0
}

// runEach runs every selected workload in a process of its own, passing the
// other flags through. The serving layer's per-server subscription evaluator
// has no stop, so every stack a process has built stays reachable: one
// process per workload — which is also how the driver runs them — keeps a
// workload's rss_mb and GC load clear of its predecessors'.
func runEach(selected []*workload) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	for _, wl := range selected {
		args := []string{"-workload", wl.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			status = 1
		}
	}
	return status
}

// jsonResult is the line the driver parses: the last line of stdout.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run for people, then for the driver. trace selects the
// metric sets as the -trace flag does.
func report(w io.Writer, cfg runConfig, res *runResult, trace string) error {
	var defs []metricDef
	if trace != "1" {
		for _, d := range endToEnd {
			defs = append(defs, d.metricDef)
		}
	}
	if trace != "0" {
		defs = append(defs, perLayer...)
	}

	fmt.Fprintf(w, "== %s: seed %d, %d warm-up + %d timed cycles of %d steps, %d ops attempted, %d failed ==\n",
		cfg.wl.name, cfg.seed, cfg.warm, cfg.cycles, len(cfg.wl.cycle), res.attempted, res.failed)
	out := jsonResult{
		Correct:   res.correct(),
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (got %v)", d.name, v)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		note := ""
		if n, ok := res.samples[d.name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %s%s\n", d.name, v, d.unit, note)
	}
	for _, note := range res.notes {
		fmt.Fprintf(w, "  %s\n", note)
	}
	if res.firstErr != nil {
		fmt.Fprintf(w, "  first failed op: %v\n", res.firstErr)
	}
	for _, err := range res.checkErrs {
		fmt.Fprintf(w, "  CHECK FAILED: %v\n", err)
	}
	if res.correct() {
		fmt.Fprintln(w, "  checks: cached flags, naive equivalence, probe fold, recovery — all hold")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
