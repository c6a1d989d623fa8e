package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// runConfig is one workload run.
type runConfig struct {
	wl *workload
	// warm untimed cycles, then cycles timed ones (workload.size).
	warm, cycles int
	seed         int64
	setups       int  // cold set-ups timed for setup_s; the first stack is measured
	recover      int  // recoveries timed, from the image the warm-up leaves
	layers       bool // also run the probes and the traced pass
	dataDir      string
	outDir       string
}

// runResult is what a run reports.
type runResult struct {
	attempted, failed int
	firstErr          error   // first failed op
	checkErrs         []error // correctness checks that did not hold
	metrics           map[string]float64
	samples           map[string]int // sample counts behind the statistics
	notes             []string       // further lines for the human-readable report
}

func (r *runResult) correct() bool { return len(r.checkErrs) == 0 }

func (r *runResult) check(err error) {
	if err != nil {
		r.checkErrs = append(r.checkErrs, err)
	}
}

// runWorkload is the benchmark proper: a cold set-up, the warm-up cycles,
// the crash image, the timed pass with the recoveries and the remaining
// cold set-ups between its stretches, the correctness checks, and — with
// layers — the probes and the traced replay.
func runWorkload(cfg runConfig) (*runResult, error) {
	cycleOps := len(cfg.wl.cycle)
	p := newPlan(cfg.wl, cfg.seed, cfg.warm+cfg.cycles)
	res := &runResult{metrics: make(map[string]float64), samples: make(map[string]int)}
	m := res.metrics

	// The first cold set-up is this process's own: its stack is the one
	// measured. The others run in children (child.go).
	start := time.Now()
	s, err := setup(filepath.Join(cfg.dataDir, "measured"), p, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupTimes := []float64{time.Since(start).Seconds()}
	defer func() {
		if s != nil {
			s.close()
		}
	}()

	warm := &passResult{}
	if err := warm.run(s, p.ops[:cfg.warm*cycleOps], 0, nil); err != nil {
		return nil, err
	}

	// Crash image: the data dir as the warm-up's last acknowledged op left
	// it, and what a recovery from it must bring back.
	want, err := sampleStates(s.coord, p.samples)
	if err != nil {
		return nil, err
	}
	image := filepath.Join(cfg.dataDir, "crash-image")
	if err := os.RemoveAll(image); err != nil { // left over from a killed run
		return nil, err
	}
	if err := copyDir(image, s.dir); err != nil {
		return nil, fmt.Errorf("crash image: %w", err)
	}
	defer os.RemoveAll(image)
	if err := writeExpectation(image, expectation{Sessions: s.coord.Stats().Sessions, Want: want}); err != nil {
		return nil, fmt.Errorf("crash image: %w", err)
	}
	defer os.Remove(expectationPath(image))

	// The timed pass. The recoveries and the remaining cold set-ups break it
	// into equal stretches, so that a slow spell of the host cannot cover all
	// of either series; the counters are summed over the stretches only,
	// because some are process-wide and this process idles, but not quite,
	// while a child runs.
	timedOps := p.ops[cfg.warm*cycleOps:]
	breaks := max(cfg.recover, cfg.setups-1, 1)
	pass := &passResult{}
	var counted counters
	var recoverTimes []float64
	var records int
	eventsStart := s.coord.Stats().Events
	runtime.GC() // the pass starts from a swept heap
	for b := 0; b < breaks; b++ {
		if lo, hi := b*cfg.cycles/breaks, (b+1)*cfg.cycles/breaks; lo < hi {
			from := readCounters(s.coord)
			if err := pass.run(s, timedOps[lo*cycleOps:hi*cycleOps], cycleOps, nil); err != nil {
				return nil, err
			}
			counted.addStretch(from, readCounters(s.coord))
		}
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("child-%d", b))
		if b < cfg.recover {
			r, err := spawn("recover", cfg, dir, image)
			if err != nil {
				return nil, err
			}
			recoverTimes = append(recoverTimes, r.Seconds)
			records = r.Records
		}
		if b < cfg.setups-1 {
			r, err := spawn("setup", cfg, dir, "")
			if err != nil {
				return nil, err
			}
			setupTimes = append(setupTimes, r.Seconds)
		}
	}
	eventsEnd := s.coord.Stats().Events
	res.attempted, res.failed = warm.ops+pass.ops, warm.failed+pass.failed
	if res.firstErr = warm.firstErr; res.firstErr == nil {
		res.firstErr = pass.firstErr
	}

	// Correctness, on the final state.
	if floor := cfg.wl.minHotHits; floor > 0 && float64(pass.hotCached) < floor*float64(pass.hotRanks) {
		res.check(fmt.Errorf("R ops: %d of %d reported cached, want at least %.0f%%", pass.hotCached, pass.hotRanks, 100*floor))
	}
	if float64(pass.coldCached) > 0.01*float64(pass.coldRanks) {
		res.check(fmt.Errorf("C ops: %d of %d reported cached, want at most 1%%", pass.coldCached, pass.coldRanks))
	}
	res.check(checkNaive(s, p.samples))
	res.check(checkProbeFold(s))

	// The gated time metrics are floors: the floorRank-th fastest cycle, and
	// the floorRank-th fastest request of each class. A neighbour on the
	// shared host only ever makes things slower, for minutes on end, and every
	// statistic further up moves with it by a third or more (README, "Floors,
	// not middles").
	usPerOp := make([]float64, len(pass.cycles))
	cpuPerOp := make([]float64, len(pass.cycles))
	var wall, cpu time.Duration
	for i, c := range pass.cycles {
		usPerOp[i] = float64(c.wall.Nanoseconds()) / 1e3 / float64(c.ops)
		cpuPerOp[i] = float64(c.cpu.Nanoseconds()) / 1e3 / float64(c.ops)
		wall += c.wall
		cpu += c.cpu
	}
	m["throughput_ops_s"] = 1e6 / floorOf(usPerOp)
	m["cpu_us_per_op"] = floorOf(cpuPerOp)
	res.samples["throughput_ops_s"] = len(pass.cycles)
	res.samples["cpu_us_per_op"] = len(pass.cycles)
	for name, ns := range map[string][]int64{
		"rank_floor_us":  pass.lat[classRank],
		"poll_floor_us":  pass.lat[classPoll],
		"apply_floor_us": pass.lat[classApply],
		"push_floor_us":  pass.push,
	} {
		us := make([]float64, len(ns))
		for i, v := range ns {
			us[i] = float64(v) / 1e3
		}
		m[name] = floorOf(us)
		res.samples[name] = len(ns)
	}

	if m["rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	m["setup_s"] = slices.Min(setupTimes)
	res.samples["setup_s"] = len(setupTimes)

	// The counter deltas and client-side statistics cost nothing extra, so
	// every run carries them; only the probes and the traced replay are
	// optional.
	mutations := 0
	for _, o := range p.ops[cfg.warm*cycleOps:] {
		if o.put != nil {
			mutations++
		}
	}
	layerCounts(m, counted, pass.ops, mutations)
	m["event.space_len_start"] = float64(eventsStart)
	m["event.space_len_end"] = float64(eventsEnd)
	m["pass.mean_ops_s"] = float64(pass.ops) / wall.Seconds()
	m["pass.mean_cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(pass.ops)
	m["setup.median_s"] = medianOf(setupTimes)
	m["recovery.fastest_s"] = slices.Min(recoverTimes)
	m["recovery.median_s"] = medianOf(recoverTimes)
	m["serve.subscription.push_lag_p50_us"] = median(pass.pushLag)
	m["recovery.records"] = float64(records)
	m["recovery.us_per_record"] = ratio(1e6*m["recovery.fastest_s"], float64(records))
	m["http.rank_p50_us"] = median(pass.lat[classRank])
	m["http.rank_p99_us"] = quantile(pass.lat[classRank], 0.99)
	m["http.poll_p50_us"] = median(pass.lat[classPoll])
	m["http.poll_p99_us"] = quantile(pass.lat[classPoll], 0.99)
	m["http.apply_p50_us"] = median(pass.lat[classApply])
	m["http.apply_p99_us"] = quantile(pass.lat[classApply], 0.99)
	m["http.push_p50_us"] = median(pass.push)
	m["http.push_p99_us"] = quantile(pass.push, 0.99)
	m["http.write_p50_us"] = median(pass.lat[classWrite])
	m["http.write_p99_us"] = quantile(pass.lat[classWrite], 0.99)
	if !cfg.layers {
		return res, nil
	}

	if err := runProbes(s, p, m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	// The measured stack is done; the replay builds its own.
	s.close()
	s = nil
	return res, replayTraced(cfg, p, res)
}

// replayTraced replays the first quarter of the list on two fresh set-ups,
// one untraced and one traced, alternating between them cycle by cycle: the
// machine's speed wanders by a tenth within seconds, and only a paired
// comparison isolates what the wrappers cost. It fills the traced per-layer
// metrics and writes the spans out.
func replayTraced(cfg runConfig, p *plan, res *runResult) error {
	m := res.metrics
	cycle := len(cfg.wl.cycle)
	prefix := p.ops[:max((cfg.warm+cfg.cycles)/4, 1)*cycle]
	tr := newTracer(4 * len(prefix)) // two requests per op at most, two server spans each
	var replay [2]*stack
	defer func() {
		for _, s := range replay {
			if s != nil {
				s.close()
			}
		}
	}()
	for i, t := range []*tracer{nil, tr} {
		var err error
		if replay[i], err = setup(filepath.Join(cfg.dataDir, fmt.Sprintf("setup-replay-%d", i)), p, t); err != nil {
			return fmt.Errorf("replay set-up: %w", err)
		}
	}
	untraced, traced := &passResult{}, &passResult{}
	for c := 0; c < len(prefix); c += cycle {
		if err := untraced.run(replay[0], prefix[c:c+cycle], cycle, nil); err != nil {
			return err
		}
		if err := traced.run(replay[1], prefix[c:c+cycle], cycle, tr); err != nil {
			return err
		}
	}
	for _, pr := range []*passResult{untraced, traced} {
		if pr.failed > 0 {
			res.check(fmt.Errorf("replay: %d failed ops, first: %w", pr.failed, pr.firstErr))
		}
	}
	slowdown := make([]float64, len(traced.cycles))
	for i, w := range traced.cycles {
		slowdown[i] = 100 * (w.wall.Seconds()/untraced.cycles[i].wall.Seconds() - 1)
	}
	m["trace.overhead_pct"] = medianOf(slowdown)

	st := tr.selfTimes(traced)
	m["net.rank_self_us"] = median(st.net[classRank])
	m["net.apply_self_us"] = median(st.net[classApply])
	m["serve.handler.rank_self_us"] = median(st.handler[classRank])
	m["serve.handler.apply_self_us"] = median(st.handler[classApply])
	m["serve.handler.write_self_us"] = median(st.handler[classWrite])
	m["shard.rank_us"] = median(st.backend[classRank])
	m["shard.poll_us"] = median(st.backend[classPoll])
	m["shard.set_session_us"] = median(st.backend[classApply])
	m["shard.assert_us"] = median(st.backend[classWrite])

	// The self times of a unimodal class add up to its client-observed p50.
	for _, c := range []struct {
		name, net, handler, backend, e2e string
		class                            int
	}{
		{"rank", "net.rank_self_us", "serve.handler.rank_self_us", "shard.rank_us", "http.rank_p50_us", classRank},
		{"apply", "net.apply_self_us", "serve.handler.apply_self_us", "shard.set_session_us", "http.apply_p50_us", classApply},
	} {
		res.notes = append(res.notes, fmt.Sprintf(
			"traced %s (n=%d): net %.1f + handler %.1f + shard %.1f = %.1f us; client p50 %.1f us traced, %.1f us in the measured pass",
			c.name, len(st.backend[c.class]), m[c.net], m[c.handler], m[c.backend], m[c.net]+m[c.handler]+m[c.backend],
			median(traced.lat[c.class]), m[c.e2e]))
	}
	path, err := tr.write(cfg.outDir, cfg.wl.name, traced)
	if err != nil {
		return err
	}
	res.notes = append(res.notes, "spans written to "+path)
	return nil
}

// rankResponse is the part of POST /v1/rank's reply the checks read.
type rankResponse struct {
	Results []struct {
		ID    string  `json:"id"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// naiveTolerance: the factorized and naive rankers sum in different orders,
// so their scores differ in the last float digits.
const naiveTolerance = 1e-9

// checkNaive holds the served (factorized, plan-compiled) full ranking of
// each sampled user against the paper's reference ranker: the same ids with
// scores within naiveTolerance, and the same order — compared position by
// position on scores, so candidates the two rank as ties may swap.
func checkNaive(s *stack, users []string) error {
	for _, u := range users {
		var served, naive rankResponse
		body := fmt.Sprintf(`{"user":%q,"target":%q`, u, rankTarget)
		if err := s.cl.call(newRequest("POST", "/v1/rank", body+"}", classOther), &served); err != nil {
			return err
		}
		if err := s.cl.call(newRequest("POST", "/v1/rank", body+`,"algorithm":"naive"}`, classOther), &naive); err != nil {
			return err
		}
		if len(served.Results) != len(naive.Results) || len(served.Results) == 0 {
			return fmt.Errorf("naive check: %s: %d served results, %d naive", u, len(served.Results), len(naive.Results))
		}
		byID := make(map[string]float64, len(naive.Results))
		for _, r := range naive.Results {
			byID[r.ID] = r.Score
		}
		for i, r := range served.Results {
			ref, ok := byID[r.ID]
			if !ok || math.Abs(r.Score-ref) > naiveTolerance {
				return fmt.Errorf("naive check: %s: %s scored %v, naive %v", u, r.ID, r.Score, ref)
			}
			if math.Abs(r.Score-naive.Results[i].Score) > naiveTolerance {
				return fmt.Errorf("naive check: %s: position %d holds %v, naive %v", u, i, r.Score, naive.Results[i].Score)
			}
		}
	}
	return nil
}

// checkProbeFold: the probe's snapshot plus every delta folded in order
// must equal a fresh rank, bit for bit. The evaluator trails the last
// mutation by one pass, so the comparison is retried until pushTimeout.
func checkProbeFold(s *stack) error {
	req := rankRequest(probeUser, rankTarget)
	deadline := time.Now().Add(pushTimeout)
	for {
		s.probe.drain()
		var fresh rankResponse
		if err := s.cl.call(req, &fresh); err != nil {
			return err
		}
		err := func() error {
			if len(fresh.Results) != len(s.probe.scores) {
				return fmt.Errorf("probe fold: %d folded results, fresh rank has %d", len(s.probe.scores), len(fresh.Results))
			}
			for _, r := range fresh.Results {
				if got, ok := s.probe.scores[r.ID]; !ok || got != r.Score {
					return fmt.Errorf("probe fold: %s folded to %v, fresh rank says %v", r.ID, got, r.Score)
				}
			}
			return nil
		}()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}
