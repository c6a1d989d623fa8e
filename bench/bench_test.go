package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: spawn
// re-executes os.Executable() with the benchmark's flags for every child
// boot.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// smokeScale is the issue's -scale 0.01: a warm-up cycle and one to four
// timed ones per workload.
const smokeScale = 0.01

func smokeRun(t *testing.T, wl *workload, seed int64, layers bool) (runConfig, *runResult) {
	t.Helper()
	cfg := runConfig{
		wl:      wl,
		seed:    seed,
		setups:  1,
		recover: 1,
		layers:  layers,
		dataDir: t.TempDir(),
		outDir:  t.TempDir(),
	}
	cfg.warm, cfg.cycles = wl.size(smokeScale)
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	if res.failed > 0 || !res.correct() {
		t.Fatalf("%s: %d failed ops (first: %v), check errors: %v", wl.name, res.failed, res.firstErr, res.checkErrs)
	}
	return cfg, res
}

// reported parses the result line report prints last.
func reported(t *testing.T, cfg runConfig, res *runResult, trace string) jsonResult {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, cfg, res, trace); err != nil {
		t.Fatalf("%s: report: %v", cfg.wl.name, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", cfg.wl.name, err)
	}
	return out
}

// repeatable are the count metrics that one seed must reproduce exactly:
// with one closed-loop client and no timers, the journal, the plan cache,
// rank-cache misses and the pushed events see the same sequence every run.
// serve.rankcache.hits is left out with serve.subscription.evals: the
// evaluator looks idle subscriptions up in the rank cache on every pass, and
// how many passes a burst of applies coalesces into depends on timing (at
// full length context-churn differs by a few hits in 5 000).
var repeatable = []string{
	"serve.rankcache.misses", "serve.rankcache.evictions",
	"serve.plancache.hits", "serve.plancache.refreshed", "serve.plancache.compiles",
	"journal.appends", "journal.fsyncs", "journal.bytes",
	"serve.subscription.events",
}

// TestSmoke runs every workload end to end at smoke scale — once with the
// probes and the traced replay, once without — and holds the two runs'
// count metrics equal.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			cfg, first := smokeRun(t, wl, 1, true)
			_, second := smokeRun(t, wl, 1, false)

			for _, name := range repeatable {
				if a, b := first.metrics[name], second.metrics[name]; a != b {
					t.Errorf("%s: %v in one run, %v in the next, on the same seed", name, a, b)
				}
			}

			e2e := reported(t, cfg, first, "0")
			if len(e2e.Metrics) != len(endToEnd) {
				t.Errorf("-trace 0 printed %d metrics, want the %d end-to-end ones", len(e2e.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := e2e.Metrics[d.name]; !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("-trace 0: %s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
			layers := reported(t, cfg, first, "1")
			if len(layers.Metrics) != len(perLayer) {
				t.Errorf("-trace 1 printed %d metrics, want the %d per-layer ones", len(layers.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := layers.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("-trace 1: %s = %+v, want a value in %s", d.name, m, d.unit)
				}
			}
			if e2e.Attempted < 1 || e2e.Failed != 0 || !e2e.Correct {
				t.Errorf("result line reports %+v", e2e)
			}
		})
	}
}

// wire is every byte a plan sends, in order.
func wire(p *plan) string {
	var b strings.Builder
	add := func(r *request) {
		if r != nil {
			b.Write(r.head)
			b.Write(r.tail)
		}
	}
	for _, group := range [][]*request{p.seedPuts, p.subs, p.warm} {
		for _, r := range group {
			add(r)
		}
	}
	for _, o := range p.ops {
		b.WriteByte(o.kind)
		add(o.put)
		add(o.rank)
	}
	return b.String()
}

func TestSeedDecidesTheOpStream(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		same, again, other := wire(newPlan(wl, 1, 3)), wire(newPlan(wl, 1, 3)), wire(newPlan(wl, 2, 3))
		if same != again {
			t.Errorf("%s: one seed gave two op streams", wl.name)
		}
		if same == other {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", wl.name)
		}
	}
}

// TestContextsNeverRepeat checks the full-length plans: a repeated (user,
// measurement set) would re-hit an old rank-LRU entry and turn a fresh rank
// into a cache hit.
func TestContextsNeverRepeat(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		p := newPlan(wl, 1, wl.warm+wl.cycles)
		seen := make(map[string]bool)
		puts := append([]*request(nil), p.seedPuts...)
		for _, o := range p.ops {
			if o.kind == 'A' || o.kind == 'P' {
				puts = append(puts, o.put)
			}
		}
		for _, r := range puts {
			// The path names the user, the body the measurement set
			// (concepts always in index order).
			key := firstLine(r.head) + string(r.tail)
			if seen[key] {
				t.Fatalf("%s: context sent twice: %s", wl.name, key)
			}
			seen[key] = true
		}
		if len(puts) < wl.live+100 {
			t.Errorf("%s: only %d context PUTs in the plan", wl.name, len(puts))
		}
	}
}

// TestPlanShape pins the op counts the README's workload table quotes.
func TestPlanShape(t *testing.T) {
	want := map[string]int{"hot-read": 252, "cold-rank": 94, "context-churn": 8, "vocab-write": 19}
	for i := range workloads {
		wl := &workloads[i]
		p := newPlan(wl, 1, 2)
		got := 0
		for _, o := range p.ops {
			got += opWeight(o.kind)
		}
		if got != 2*want[wl.name] {
			t.Errorf("%s: 2 cycles weigh %d ops, want %d", wl.name, got, 2*want[wl.name])
		}
		if len(p.samples) != sampleUsers {
			t.Errorf("%s: %d sampled users, want %d", wl.name, len(p.samples), sampleUsers)
		}
		distinct := make(map[string]bool)
		for _, u := range p.samples {
			distinct[u] = true
		}
		if len(distinct) != len(p.samples) {
			t.Errorf("%s: sampled users repeat: %v", wl.name, p.samples)
		}
	}
}

// TestSize pins what -seconds and -scale may do to a list: the full-length
// pass is the table's, any scale leaves a warm-up and a pass, and at full
// length the pass holds 100 samples of every latency.
func TestSize(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		if warm, cycles := wl.size(1); warm != wl.warm || cycles != wl.cycles {
			t.Errorf("%s: size(1) = %d, %d, want the table's %d, %d", wl.name, warm, cycles, wl.warm, wl.cycles)
		}
		if warm, cycles := wl.size(smokeScale); warm < 1 || cycles < 1 {
			t.Errorf("%s: size(%v) = %d, %d", wl.name, smokeScale, warm, cycles)
		}
		// P (push) and A (poll) are the rarest sample kinds.
		for _, kind := range "PA" {
			if n := wl.cycles * strings.Count(wl.cycle, string(kind)); n < 100 {
				t.Errorf("%s: %d %c samples in the timed pass, want at least 100", wl.name, n, kind)
			}
		}
	}
}

// TestBenchmarkJSON holds the names, units, bounds and workloads in the
// code equal to BENCHMARK.json, so the two cannot drift.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonDef struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonDef `json:"end_to_end"`
		PerLayer []jsonDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != refSeconds {
		t.Errorf("run_seconds is %d, the cycle counts are sized for %d", file.RunSeconds, refSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e []jsonDef
	for _, d := range endToEnd {
		e2e = append(e2e, jsonDef{d.name, d.unit, d.better, d.bound})
	}
	if !reflect.DeepEqual(file.EndToEnd, e2e) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", file.EndToEnd, e2e)
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the code", len(file.PerLayer), len(perLayer))
	}
	for i, d := range file.PerLayer {
		if d.Name != perLayer[i].name || d.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d is %s (%s), the code has %s (%s)", i, d.Name, d.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
