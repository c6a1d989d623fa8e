// Command carbench regenerates every table and figure of the paper's
// evaluation, printing paper-reported values next to measured ones (the
// per-experiment index lives in DESIGN.md §4; the results are recorded in
// EXPERIMENTS.md).
//
// Usage:
//
//	carbench [-exp all|e1|e2|e3|a1|a2|a3|a4|overload|chaos] [-timeout 30s] [-maxrules 8] [-small]
//
// e1: Table 1 worked example          e2: Figure 1 history abstraction
// e3: §5 scalability (view ranker)    a1: ranker ablation sweep
// a2: §6 λ-weighting sweep            a3: σ-miner convergence
// a4: Monte Carlo accuracy vs budget
//
// overload: the admission-control demonstration — drive offered rank load
// far past the configured limits (-ratelimit/-maxinflight/-maxqueue for an
// in-process daemon, or -target for a running carserved) and print goodput,
// shed rate and admitted-request p50/p99 for an overload phase followed by
// a paced recovery phase, plus machine-readable OVERLOAD lines consumed by
// scripts/smoke_overload.sh. Excess load must come back as fast 429s with
// Retry-After while admitted requests stay at in-SLO latency.
//
// chaos: the failure-domain demonstration — point the client at a running
// carserved started with -chaos (-target), arm disk faults (journal writes
// and fsyncs fail) plus one rank-path panic over /v1/chaos, and verify the
// blast radius from outside: reads keep serving from memory, writes shed
// 503 + Retry-After, the daemon never dies, and after clearing the faults
// the disk probe re-arms the WAL and writes succeed again. Prints
// machine-readable CHAOS lines consumed by scripts/smoke_chaos.sh.
//
// The serving layer's micro-measurements — journal overhead, batch
// amortization, top-k selection — are `go test -bench` benchmarks that CI
// gates (BenchmarkServeRankWithJournal, BenchmarkServeRankBatch,
// BenchmarkPlanRankTopK), not carbench modes.
//
// -cpuprofile/-memprofile write pprof profiles for any run, e.g.
// `carbench -exp overload -small -cpuprofile cpu.out` then `go tool pprof`.
// The daemon's end-to-end throughput is bench/'s (`sh bench/run.sh`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: all, e1, e2, e3, a1, a2, a3, a4, overload, chaos (load generators; not in 'all')")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-point budget for sweeps (the paper aborted at 30min)")
		maxRules = flag.Int("maxrules", 8, "largest rule count in the scalability sweeps")
		small    = flag.Bool("small", false, "use the scaled-down dataset instead of the paper's ~11k tuples")
		seed     = flag.Int64("seed", 42, "random seed for synthetic histories")

		clients     = flag.Int("clients", 16, "overload/chaos: concurrent goroutine clients")
		benchdur    = flag.Duration("benchdur", 5*time.Second, "overload/chaos: load-generation duration (per phase)")
		cachesize   = flag.Int("cachesize", 0, "overload: rank cache capacity of the in-process daemon (0 = default, -1 = disabled)")
		target      = flag.String("target", "", "overload/chaos: base URL of a running carserved (overload boots an in-process daemon when empty; chaos requires a target started with -chaos)")
		users       = flag.Int("users", 8, "overload/chaos: distinct user IDs the clients share (fewer users = harder per-user rate pressure)")
		lowclients  = flag.Int("lowclients", 2, "overload: paced clients in the recovery phase")
		ratelimit   = flag.Float64("ratelimit", 50, "overload: per-user req/s budget for the in-process daemon")
		maxinflight = flag.Int("maxinflight", 32, "overload: in-flight request cap for the in-process daemon")
		maxqueue    = flag.Int("maxqueue", 64, "overload: waiting-request cap for the in-process daemon")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit (pprof format)")
	)
	flag.Parse()

	var stops []func()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memprofile != "" {
		stops = append(stops, func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "carbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "carbench: memprofile:", err)
			}
		})
	}
	if len(stops) > 0 {
		// Flushed on the normal return path *and* by exitOn before
		// os.Exit, which would otherwise skip the defers and leave a
		// truncated CPU profile / no heap profile on a failed run.
		var once sync.Once
		flushProfiles = func() {
			once.Do(func() {
				for _, stop := range stops {
					stop()
				}
			})
		}
		defer flushProfiles()
	}

	spec, preload := workload.DefaultSpec(), "paper"
	if *small {
		spec, preload = workload.SmallSpec(), "small"
	}

	run := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	ran := false

	if run("e1") {
		ran = true
		section("E1 — Table 1 / §4.2 worked example (weekend breakfast)")
		res, err := experiments.RunE1()
		exitOn(err)
		res.Table().Write(os.Stdout)
		fmt.Printf("max |paper − measured| = %.2e\n", res.MaxError())
	}

	if run("e2") {
		ran = true
		section("E2 — Figure 1: workday-morning history abstraction")
		res, err := experiments.RunE2(5000, *seed)
		exitOn(err)
		res.Table().Write(os.Stdout)
		fmt.Printf("(mined from %d synthetic episodes)\n", res.Episodes)
	}

	if run("e3") {
		ran = true
		section("E3 — §5 scalability: query time vs number of rules (big preference view)")
		cfg := experiments.E3Config{Spec: spec, MaxRules: *maxRules, Timeout: *timeout, Ranker: "view"}
		fmt.Printf("dataset: %d persons, %d programs (~paper's 11k tuples: %v); timeout %s/point\n",
			spec.Persons, spec.Programs, !*small, *timeout)
		res, err := experiments.RunE3(cfg)
		exitOn(err)
		res.Table().Write(os.Stdout)
		if len(res.Growth) > 0 {
			fmt.Print("growth factor per added rule:")
			for _, g := range res.Growth {
				fmt.Printf(" ×%.1f", g)
			}
			fmt.Println()
		}
		fmt.Println(experiments.PaperE3)
	}

	if run("a1") {
		ran = true
		section("A1 — ablation: view vs naive vs factorized ranker")
		res, err := experiments.RunA1(spec, *maxRules, *timeout)
		exitOn(err)
		res.Table().Write(os.Stdout)
		fmt.Println("expected shape: view/naive blow up exponentially; factorized stays flat (§6 pruning + factorization)")
	}

	if run("a2") {
		ran = true
		section("A2 — ablation: λ-weighting of query-dependent vs context score (§6)")
		res, err := experiments.RunA2(*seed)
		exitOn(err)
		res.Table().Write(os.Stdout)
		fmt.Printf("best λ in sweep: %.2f (truth blends both signals; extremes lose)\n", res.BestAt)
	}

	if run("a3") {
		ran = true
		section("A3 — ablation: σ-miner convergence (§6 mining/learning preferences)")
		res, err := experiments.RunA3([]int{10, 100, 1000, 10000}, *seed)
		exitOn(err)
		res.Table().Write(os.Stdout)
	}

	if run("a4") {
		ran = true
		section("A4 — ablation: Monte Carlo ranking accuracy vs sample budget")
		res, err := experiments.RunA4(workload.SmallSpec(), 6, []int{100, 1000, 10000, 100000}, *seed)
		exitOn(err)
		fmt.Printf("rules: %d; baseline: exact factorized scores\n", res.Rules)
		res.Table().Write(os.Stdout)
	}

	if strings.EqualFold(*exp, "overload") {
		ran = true
		section("OVERLOAD — admission control: goodput, shed rate and latency under excess offered load")
		exitOn(runOverloadLoadgen(overloadConfig{
			Target:      *target,
			Preload:     preload,
			Spec:        spec,
			Rules:       *maxRules,
			Clients:     *clients,
			LowClients:  *lowclients,
			Duration:    *benchdur,
			Users:       *users,
			CacheSize:   *cachesize,
			RateLimit:   *ratelimit,
			MaxInFlight: *maxinflight,
			MaxQueue:    *maxqueue,
		}))
	}

	if strings.EqualFold(*exp, "chaos") {
		ran = true
		section("CHAOS — fault injection: reads in-SLO and writes shed 503 under disk faults, then full recovery")
		exitOn(runChaosLoadgen(chaosConfig{
			Target:   *target,
			Clients:  *clients,
			Users:    *users,
			Duration: *benchdur,
		}))
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "carbench: unknown experiment %q\n", *exp)
		flag.Usage()
		flushProfiles()
		os.Exit(2)
	}
}

// flushProfiles stops and writes any -cpuprofile/-memprofile output; a
// no-op until main arms it. Exit paths must call it because os.Exit skips
// deferred functions.
var flushProfiles = func() {}

func section(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbench:", err)
		flushProfiles()
		os.Exit(1)
	}
}
