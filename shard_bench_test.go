// Sharded serving-layer benchmark: aggregate throughput of the
// shard.Coordinator under a mixed apply+rank workload at increasing shard
// counts. CI's bench-regression job tracks it (with the serve benchmarks)
// against the main-branch baseline — a contention regression in the shard
// router, the broadcast path or the per-shard serve stack shows up here
// before a load test would catch it.
package contextrank_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	contextrank "repro"
	"repro/internal/serve"
	"repro/internal/serve/shard"
	"repro/internal/workload"
)

// benchCoordinator builds an n-shard coordinator over the scaled-down
// TV-watcher dataset with k rules and one session per user.
func benchCoordinator(b *testing.B, shards, k, sessions int) (*shard.Coordinator, []string) {
	b.Helper()
	coord, err := shard.New(shards, func(int) (*contextrank.System, error) {
		sys := contextrank.NewSystem()
		if _, err := workload.LoadBench(sys.Loader(), sys.Rules(), workload.SmallSpec(), k); err != nil {
			return nil, err
		}
		return sys, nil
	}, serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	users := make([]string, sessions)
	for u := 0; u < sessions; u++ {
		users[u] = fmt.Sprintf("person%04d", u%workload.SmallSpec().Persons)
		if _, err := coord.SetSession(users[u], benchMeasurements(k, u, 0)); err != nil {
			b.Fatal(err)
		}
	}
	return coord, users
}

// benchMeasurements is the rotating context subset the load generator
// uses: user u in phase p holds every second bench concept.
func benchMeasurements(k, u, phase int) []serve.Measurement {
	var ms []serve.Measurement
	for i := 0; i < k; i++ {
		if (i+u+phase)%2 == 0 {
			ms = append(ms, serve.Measurement{Concept: workload.BenchContextConcept(i), Prob: 1})
		}
	}
	return ms
}

// BenchmarkServeRankSharded measures mixed apply+rank throughput across
// shard counts: one op in eight is a session context rotation (a
// shard-local write), the rest are ranks. More shards mean fewer ranks
// stalled behind each apply's write lock (the apply itself costs its user,
// whatever the shard holds) — CI fails if any point regresses >20% against
// main.
func BenchmarkServeRankSharded(b *testing.B) {
	const k, sessions = 4, 16
	opts := contextrank.RankOptions{Limit: 10}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			coord, users := benchCoordinator(b, shards, k, sessions)
			// Warm both context phases per user so steady state is a mix
			// of cached ranks and applies, not first-touch compilation.
			for u, user := range users {
				for phase := 0; phase < 2; phase++ {
					if _, err := coord.SetSession(user, benchMeasurements(k, u, phase)); err != nil {
						b.Fatal(err)
					}
					if _, _, err := coord.Rank(user, "TvProgram", opts); err != nil {
						b.Fatal(err)
					}
				}
			}
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(seq.Add(1) - 1)
					u := i % len(users)
					user := users[u]
					if i%8 == 7 {
						if _, err := coord.SetSession(user, benchMeasurements(k, u, i/8)); err != nil {
							b.Fatal(err)
						}
						continue
					}
					if _, _, err := coord.Rank(user, "TvProgram", opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
