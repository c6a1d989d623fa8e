// Daemon serving-layer benchmark: aggregate throughput of a daemon.Daemon
// under a mixed apply+rank workload. CI's bench-gates job tracks it (with
// the serve benchmarks) against the main-branch baseline — a contention
// regression in the daemon or the serve stack under it shows up here
// before a load test would catch it.
package contextrank_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	contextrank "repro"
	"repro/internal/daemon"
	"repro/internal/serve"
	"repro/internal/workload"
)

// benchCoordinator builds a daemon over the scaled-down TV-watcher
// dataset with k rules and one session per user.
func benchCoordinator(b *testing.B, k, sessions int) (*daemon.Daemon, []string) {
	b.Helper()
	sys := contextrank.NewSystem()
	if _, err := workload.LoadBench(sys.Loader(), sys.Rules(), workload.SmallSpec(), k); err != nil {
		b.Fatal(err)
	}
	coord := daemon.New(sys, serve.Options{})
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

// BenchmarkServeRankSharded measures mixed apply+rank throughput through
// the daemon: one op in eight is a session context rotation, the rest
// are ranks — CI fails if it regresses >20% against main. The arm keeps
// the name it had when the daemon kept one replica per shard and the
// benchmark ran 1, 2, 4 and 8 of them, so the baseline still pairs.
func BenchmarkServeRankSharded(b *testing.B) {
	const k, sessions = 4, 16
	opts := contextrank.RankOptions{Limit: 10}
	b.Run("shards=1", func(b *testing.B) {
		coord, users := benchCoordinator(b, k, sessions)
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
