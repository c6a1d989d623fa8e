// Serving-layer benchmarks: cache hit-rate and concurrent throughput of
// internal/serve over the §5 TV-watcher dataset. They live in the external
// test package because internal/serve imports this package.
//
// The headline number is BenchmarkServeRankCached: a cache hit must be at
// least ~5× cheaper than an uncached factorized Rank (in practice it is
// orders of magnitude cheaper — a map lookup versus view compilation and
// event-probability evaluation).
package contextrank_test

import (
	"fmt"
	"path/filepath"
	"testing"

	contextrank "repro"
	"repro/internal/serve"
	"repro/internal/serve/journal"
	"repro/internal/workload"
)

// benchServer builds the full serving stack over the scaled-down
// TV-watcher dataset with k preference rules and per-user sessions.
func benchServer(b *testing.B, k, sessions int) (*serve.Server, []string) {
	b.Helper()
	sys := contextrank.NewSystem()
	if _, err := workload.LoadBench(sys.Loader(), sys.Rules(), workload.SmallSpec(), k); err != nil {
		b.Fatal(err)
	}
	srv := serve.NewServer(sys, serve.Options{})
	users := make([]string, sessions)
	for u := 0; u < sessions; u++ {
		users[u] = fmt.Sprintf("person%04d", u)
		var ms []serve.Measurement
		for i := 0; i < k; i++ {
			if (i+u)%2 == 0 {
				ms = append(ms, serve.Measurement{Concept: workload.BenchContextConcept(i), Prob: 1})
			}
		}
		if _, err := srv.SetSession(users[u], ms); err != nil {
			b.Fatal(err)
		}
	}
	return srv, users
}

// uncachedRank ranks under the facade read lock, past the server and both
// of its caches: every call compiles its plan and scores the catalog.
func uncachedRank(srv *serve.Server, user string, opts contextrank.RankOptions) error {
	return srv.Facade().WithRead(func(sys *contextrank.System) error {
		_, err := sys.RankWith(user, "TvProgram", opts)
		return err
	})
}

// BenchmarkServeRankCached contrasts the uncached facade read path with a
// cache hit for the same request — the speedup the session/cache layer
// buys for repeated queries under an unchanged context and epoch.
func BenchmarkServeRankCached(b *testing.B) {
	const k = 4
	opts := contextrank.RankOptions{Limit: 10}

	b.Run("uncached", func(b *testing.B) {
		srv, users := benchServer(b, k, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := uncachedRank(srv, users[0], opts); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cached", func(b *testing.B) {
		srv, users := benchServer(b, k, 1)
		// Prime the single entry, then measure pure hits.
		if _, _, err := srv.Rank(users[0], "TvProgram", opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, meta, err := srv.Rank(users[0], "TvProgram", opts)
			if err != nil {
				b.Fatal(err)
			}
			if !meta.Cached || len(res) == 0 {
				b.Fatalf("iteration %d missed the cache (cached=%v, %d results)", i, meta.Cached, len(res))
			}
		}
	})
}

// BenchmarkServeRankWithJournal is BenchmarkServeRankCached with the
// session write-ahead log attached (real fsync on every session apply):
// the rank path never touches the journal, so sub-benchmark for
// sub-benchmark the numbers must track BenchmarkServeRankCached within
// noise. CI's bench-journal job enforces exactly that (<5% delta) by
// renaming this benchmark's output and diffing it against
// BenchmarkServeRankCached with benchcheck — the proof that session
// durability is free on the serving hot path.
func BenchmarkServeRankWithJournal(b *testing.B) {
	const k = 4
	opts := contextrank.RankOptions{Limit: 10}
	journaled := func(b *testing.B) (*serve.Server, []string) {
		srv, users := benchServer(b, k, 0)
		j, _, err := journal.Open(filepath.Join(b.TempDir(), "sessions.wal"), journal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { j.Close() })
		srv.AttachJournal(j)
		// The session lands after the attach so it takes the journaled
		// path, mirroring benchServer's session setup.
		user := "person0000"
		if _, err := srv.SetSession(user, []serve.Measurement{
			{Concept: workload.BenchContextConcept(0), Prob: 1},
			{Concept: workload.BenchContextConcept(2), Prob: 1},
		}); err != nil {
			b.Fatal(err)
		}
		return srv, append(users, user)
	}

	b.Run("uncached", func(b *testing.B) {
		srv, users := journaled(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := uncachedRank(srv, users[0], opts); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("cached", func(b *testing.B) {
		srv, users := journaled(b)
		if _, _, err := srv.Rank(users[0], "TvProgram", opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, meta, err := srv.Rank(users[0], "TvProgram", opts)
			if err != nil {
				b.Fatal(err)
			}
			if !meta.Cached || len(res) == 0 {
				b.Fatalf("iteration %d missed the cache (cached=%v, %d results)", i, meta.Cached, len(res))
			}
		}
	})
}

// BenchmarkServeRankConcurrent measures aggregate throughput with many
// goroutines ranking as different sessioned users through the cache — the
// serving layer's steady state.
func BenchmarkServeRankConcurrent(b *testing.B) {
	const k = 4
	for _, sessions := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			srv, users := benchServer(b, k, sessions)
			opts := contextrank.RankOptions{Limit: 10}
			// Warm one entry per user so the measurement is the serving
			// steady state, not first-touch compilation.
			for _, u := range users {
				if _, _, err := srv.Rank(u, "TvProgram", opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					u := users[i%len(users)]
					i++
					if _, _, err := srv.Rank(u, "TvProgram", opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkServeRankBatch measures the batched rank endpoint under
// per-iteration session churn — the workload batching exists for: every
// iteration invalidates the user's compiled plan (context epoch bump), so
// a batch of B candidate-list items pays one plan compile where B single
// ranks would pay B. ns/op is one churn + one batch; compare batch=1
// against batch=8 divided by item count for the per-item amortization.
func BenchmarkServeRankBatch(b *testing.B) {
	const k = 8
	candidates := [][]string{
		{"tv000", "tv001", "tv002", "tv003", "tv004"},
		{"tv005", "tv006", "tv007", "tv008", "tv009"},
		{"tv010", "tv011", "tv012", "tv013", "tv014"},
		{"tv001", "tv003", "tv005", "tv007", "tv009"},
		{"tv000", "tv002", "tv004", "tv006", "tv008"},
		{"tv002", "tv005", "tv008", "tv011", "tv014"},
		{"tv000", "tv004", "tv008", "tv012", "tv001"},
		{"tv003", "tv006", "tv009", "tv012", "tv000"},
	}
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("churn/batch=%d", batch), func(b *testing.B) {
			srv, users := benchServer(b, k, 1)
			user := users[0]
			items := make([]serve.RankItem, batch)
			for i := range items {
				items[i] = serve.RankItem{Candidates: candidates[i%len(candidates)]}
			}
			ms := []serve.Measurement{{Concept: workload.BenchContextConcept(0), Prob: 0.9}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms[0].Prob = 0.5 + float64(i%50)/100
				if _, err := srv.SetSession(user, ms); err != nil {
					b.Fatal(err)
				}
				res, _, err := srv.RankBatch(user, "", items)
				if err != nil {
					b.Fatal(err)
				}
				for _, item := range res {
					if item.Err != nil {
						b.Fatal(item.Err)
					}
				}
			}
		})
	}
}

// BenchmarkSessionApply is the apply-cost-by-session-count curve: one
// unsharded server, no journal, N live sessions of five BenchCtx
// measurements each, timing one user's SetSession with a context that never
// repeats (as in bench/: BenchCtx0 plus four of BenchCtx1..7, fresh
// probabilities). An apply costs its user's rows and events, not the
// sessions beside it, so the curve must be flat: CI's bench-regression job
// gates sessions=4096 at no more than 2x sessions=64 from the same run.
func BenchmarkSessionApply(b *testing.B) {
	context := func(n int) []serve.Measurement {
		ms := make([]serve.Measurement, 5)
		for j := range ms {
			concept := 0
			if j > 0 {
				concept = 1 + (n+j)%7
			}
			// Nine bits of n per measurement: distinct for any n a run reaches.
			prob := 0.5 + float64((n>>(9*j))&511+1)/1026
			ms[j] = serve.Measurement{Concept: workload.BenchContextConcept(concept), Prob: prob}
		}
		return ms
	}
	for _, sessions := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			sys := contextrank.NewSystem()
			if _, err := workload.LoadBench(sys.Loader(), sys.Rules(), workload.SmallSpec(), 8); err != nil {
				b.Fatal(err)
			}
			srv := serve.NewServer(sys, serve.Options{})
			for u := 0; u < sessions; u++ {
				if _, err := srv.SetSession(fmt.Sprintf("person%04d", u), context(u)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.SetSession("person0000", context(sessions+i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVocabWriteRank prices the ranks that follow a vocabulary write:
// one hasGenre tuple is asserted outside the timer — every bench rule's
// preference reads r_hasGenre, and the epoch bump voids the rank cache — then
// each of N users with a warm plan ranks once. ns/op is one such rank. The
// first user's plan refresh patches the 8 preference handles (the written
// program re-read in each view); the others take the memberships, and their
// block footprints, from the loader's memo, so users=16 must cost well under
// users=1 per rank: CI's bench-regression job gates it at half, from the same
// run.
func BenchmarkVocabWriteRank(b *testing.B) {
	const k = 8
	opts := contextrank.RankOptions{Limit: 10}
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			srv, users := benchServer(b, k, n)
			for _, u := range users {
				if _, _, err := srv.Rank(u, "TvProgram", opts); err != nil {
					b.Fatal(err)
				}
			}
			before := srv.Stats().Plans
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%n == 0 {
					b.StopTimer()
					tuple := serve.RoleAssertion{Role: "hasGenre", Src: fmt.Sprintf("tv%03d", (i/n)%15), Dst: fmt.Sprintf("genre%02d", (i/n/15)%5), Prob: 1}
					if _, err := srv.Assert(nil, []serve.RoleAssertion{tuple}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, meta, err := srv.Rank(users[i%n], "TvProgram", opts); err != nil {
					b.Fatal(err)
				} else if meta.Cached {
					b.Fatal("the write failed to invalidate")
				}
			}
			b.StopTimer()
			after := srv.Stats().Plans
			if refreshed := after.Refreshed - before.Refreshed; refreshed != int64(b.N) || after.Misses-before.Misses != refreshed {
				b.Fatalf("%d ranks after writes: %d plan misses, %d refreshed — want every one a refresh",
					b.N, after.Misses-before.Misses, refreshed)
			}
		})
	}
}

// BenchmarkServeMutationInvalidation measures the worst case for the
// cache: every rank preceded by an epoch-bumping mutation, so nothing is
// ever served from cache and each request pays recompute + invalidation.
func BenchmarkServeMutationInvalidation(b *testing.B) {
	const k = 4
	srv, users := benchServer(b, k, 1)
	opts := contextrank.RankOptions{Limit: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Assert(nil, []serve.RoleAssertion{{Role: "watched", Src: users[0], Dst: fmt.Sprintf("tv%03d", i%15), Prob: 0.9}}); err != nil {
			b.Fatal(err)
		}
		if _, meta, err := srv.Rank(users[0], "TvProgram", opts); err != nil {
			b.Fatal(err)
		} else if meta.Cached {
			b.Fatal("mutation failed to invalidate")
		}
	}
}
