package serve

import (
	"fmt"
	"sync"
	"testing"

	contextrank "repro"
)

// TestConcurrentRankersAndMutators is the serving layer's core guarantee
// under the race detector: many goroutines ranking through the cache while
// one goroutine mutates facts, rules and session contexts through the
// server's mutators. Afterwards the cache must agree with a fresh uncached ranking
// for every user (invalidation-by-epoch correctness).
func TestConcurrentRankersAndMutators(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	users := []string{"peter", "maria", "joe", "ada"}
	for i, u := range users {
		ctx := "CtxA"
		if i%2 == 1 {
			ctx = "CtxB"
		}
		if _, err := srv.SetSession(u, []Measurement{{Concept: ctx, Prob: 1}}); err != nil {
			t.Fatal(err)
		}
	}

	const (
		rankers        = 8
		ranksPerWorker = 150
		mutations      = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, rankers+1)

	for w := 0; w < rankers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ranksPerWorker; i++ {
				user := users[(w+i)%len(users)]
				opts := contextrank.RankOptions{Limit: 1 + i%7}
				if _, _, err := srv.Rank(user, "TvProgram", opts); err != nil {
					errs <- fmt.Errorf("ranker %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mutations; i++ {
			var err error
			switch i % 4 {
			case 0:
				_, err = srv.Assert(nil, []RoleAssertion{{Role: "hasGenre", Src: fmt.Sprintf("tv%02d", i%10), Dst: fmt.Sprintf("g%d", i%2), Prob: 0.8}})
			case 1:
				_, err = srv.Assert([]ConceptAssertion{{Concept: "TvProgram", ID: fmt.Sprintf("mut%03d", i), Prob: 1}}, nil)
			case 2:
				_, _, err = srv.AddRules([]string{fmt.Sprintf(
					"RULE mut%03d WHEN MutCtx%d PREFER TvProgram AND EXISTS hasGenre.{g%d} WITH 0.5",
					i, i, i%2)})
			case 3:
				user := users[i%len(users)]
				_, err = srv.SetSession(user, []Measurement{
					{Concept: "CtxA", Prob: 0.5 + 0.4*float64(i%2)},
					{Concept: "CtxB", Prob: 0.3},
				})
			}
			if err != nil {
				errs <- fmt.Errorf("mutator step %d: %w", i, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent check: for every user, the cached path now returns exactly
	// what an uncached ranking computes.
	for _, u := range users {
		cached, _, err := srv.Rank(u, "TvProgram", contextrank.RankOptions{})
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		fresh := freshRank(t, srv.Facade(), u, "TvProgram")
		sameResults(t, cached, fresh)
	}

	st := srv.Stats()
	if st.Requests < rankers*ranksPerWorker {
		t.Fatalf("requests = %d, want >= %d", st.Requests, rankers*ranksPerWorker)
	}
	if st.Epoch < mutations*3/4 {
		t.Fatalf("epoch = %d, want >= %d (mutations mostly bump it)", st.Epoch, mutations*3/4)
	}
}

// TestConcurrentSessionChurn hammers the session manager from many
// goroutines (distinct users) while rankers run — the lock-order interplay
// between Sessions.mu and the facade lock.
func TestConcurrentSessionChurn(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("user%d", w)
			for i := 0; i < 80; i++ {
				ctx := "CtxA"
				if (w+i)%2 == 0 {
					ctx = "CtxB"
				}
				if _, err := srv.SetSession(user, []Measurement{{Concept: ctx, Prob: 1}}); err != nil {
					errs <- err
					return
				}
				if _, _, err := srv.Rank(user, "TvProgram", contextrank.RankOptions{Limit: 3}); err != nil {
					errs <- err
					return
				}
				if i%20 == 19 {
					if err := srv.DropSession(user); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
