package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	contextrank "repro"
	"repro/internal/serve/journal"
)

// probeCalls is how often each probe calls its layer; the median is
// reported.
const probeCalls = 200

// timeCalls runs fn probeCalls times and returns the median in µs.
func timeCalls(fn func() error) (float64, error) {
	ns := make([]int64, probeCalls)
	for i := range ns {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns[i] = int64(time.Since(start))
	}
	return median(ns), nil
}

// runProbes times single layers by calling their public functions directly
// on the stack's final state: the numbers the HTTP-level spans cannot
// separate (a cache hit from a compile from a refresh from the ranker
// core), each on the state the workload left behind.
func runProbes(s *stack, p *plan, m map[string]float64) error {
	user := p.hotUser
	sh := s.coord.Shard(s.coord.ShardFor(user))
	top10 := contextrank.RankOptions{TopK: 10}
	var err error

	// serve.Server.Rank on a key the first call has just cached.
	if _, _, err = sh.Rank(user, rankTarget, top10); err != nil {
		return err
	}
	m["serve.server.rank_hit_us"], err = timeCalls(func() error {
		_, meta, err := sh.Rank(user, rankTarget, top10)
		if err == nil && !meta.Cached {
			err = fmt.Errorf("probe: rank of a cached key was not served from the cache")
		}
		return err
	})
	if err != nil {
		return err
	}

	// The plan life cycle under the facade read lock, as rankTarget and
	// planFor run it.
	underRead := func(fn func(sys *contextrank.System) error) func() error {
		return func() error { return sh.Facade().WithRead(fn) }
	}
	var plan *contextrank.RankPlan
	m["core.plan.compile_us"], err = timeCalls(underRead(func(sys *contextrank.System) error {
		var err error
		plan, err = sys.CompileRankPlan(user)
		return err
	}))
	if err != nil {
		return err
	}
	m["core.plan.refresh_us"], err = timeCalls(underRead(func(sys *contextrank.System) error {
		_, err := sys.RefreshRankPlan(plan)
		return err
	}))
	if err != nil {
		return err
	}
	for name, target := range map[string]string{
		"core.plan.rank_us":      rankTarget,
		"core.plan.rank_expr_us": coldExpressions()[0],
	} {
		m[name], err = timeCalls(underRead(func(sys *contextrank.System) error {
			_, err := sys.RankWithPlan(plan, target, top10)
			return err
		}))
		if err != nil {
			return err
		}
	}

	// One fsynced append to a scratch journal beside the real ones: the
	// floor under every mutation's acknowledgement.
	path := filepath.Join(s.dir, "probe.wal")
	j, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	rec := journal.Record{Op: journal.OpSet, User: user, Measurements: []journal.Measurement{{Concept: "BenchCtx0", Prob: 0.5}}}
	m["journal.append_us"], err = timeCalls(func() error { return j.Append(rec) })
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
}
