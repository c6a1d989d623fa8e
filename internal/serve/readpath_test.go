package serve

import (
	"fmt"
	"math"
	"testing"

	contextrank "repro"
)

// TestOneRequestEveryEntryPoint: the server has one rank implementation, so
// the same request must return bit-identical ids and scores whichever way it
// comes in — Rank, a one-item batch, the middle of a three-item batch, a
// subscription's opening snapshot — for targets and candidate lists, under
// the plan algorithm and a generic one, on a rule set whose plan enumerates
// footprint clusters and on one whose plan scores per candidate. Every
// entry point is made to compute (an idempotent declare moves the epoch
// between them, orphaning both caches), and the result is held against the
// reference NaiveRanker.
func TestOneRequestEveryEntryPoint(t *testing.T) {
	paper, paperUser := batchServer(t, 4)
	chainSys, _ := chainSystem(t)
	chain := NewServer(chainSys, Options{})
	if _, err := chain.SetSession("chainuser", []Measurement{{Concept: "ChainCtx", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	ruleSets := []struct {
		name    string
		srv     *Server
		user    string
		concept string     // any declared concept, for the epoch bump
		items   []RankItem // the requests: one target, one candidate list
		filler  []RankItem // the three-item batch's other two items
	}{
		{
			name: "paper", srv: paper, user: paperUser, concept: "TvProgram",
			items: []RankItem{
				{Target: "TvProgram", TopK: 5, Threshold: 0.01},
				{Candidates: []string{"tv007", "tv000", "tv001", "tv002", "no-such-program"}, Limit: 4},
			},
			filler: []RankItem{{Target: "TvProgram", Limit: 2}, {Candidates: []string{"tv003"}}},
		},
		{
			// F01 holds d00 and d01; naive enumerates 2^17 states per
			// candidate on this rule set, so the requests stay small.
			name: "cluster-bound", srv: chain, user: "chainuser", concept: "Doc",
			items: []RankItem{
				{Target: "F01", TopK: 2},
				{Candidates: []string{"d03", "d02"}},
			},
			filler: []RankItem{{Target: "F05", Limit: 1}, {Candidates: []string{"d09"}}},
		},
	}
	for _, rs := range ruleSets {
		for _, alg := range []contextrank.Algorithm{contextrank.AlgorithmFactorized, contextrank.AlgorithmNaive} {
			for _, item := range rs.items {
				shape := "target"
				if item.Candidates != nil {
					shape = "candidates"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", rs.name, alg, shape), func(t *testing.T) {
					if testing.Short() && alg == contextrank.AlgorithmNaive && rs.srv == chain {
						t.Skip("naive over 17 rules: seconds per rank under -race")
					}
					srv, user := rs.srv, rs.user
					fresh := func() {
						t.Helper()
						if _, err := srv.Declare([]string{rs.concept}, nil, nil); err != nil {
							t.Fatal(err)
						}
					}
					// The reference: how many results the request keeps, and every
					// candidate's score. Compared by id, not position — the
					// rankers associate float products differently, which can
					// order candidates tied to ~1e-17 either way.
					var want, all []contextrank.Result
					err := srv.Facade().WithRead(func(sys *contextrank.System) (err error) {
						opts := item.options(contextrank.AlgorithmNaive)
						unbounded := contextrank.RankOptions{Algorithm: contextrank.AlgorithmNaive}
						if item.Candidates != nil {
							if want, err = sys.RankCandidates(user, item.Candidates, opts); err == nil {
								all, err = sys.RankCandidates(user, item.Candidates, unbounded)
							}
						} else if want, err = sys.RankWith(user, item.Target, opts); err == nil {
							all, err = sys.RankWith(user, item.Target, unbounded)
						}
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(want) < 2 {
						t.Fatalf("reference returned %d results; the request is too narrow to compare", len(want))
					}
					ref := make(map[string]float64, len(all))
					for _, r := range all {
						ref[r.ID] = r.Score
					}

					var first []contextrank.Result
					check := func(entry string, res []contextrank.Result) {
						t.Helper()
						if len(res) != len(want) {
							t.Fatalf("%s: %d results, want %d", entry, len(res), len(want))
						}
						for i, r := range res {
							if w, ok := ref[r.ID]; !ok || math.Abs(r.Score-w) > 1e-9 {
								t.Fatalf("%s: %s = %v, reference %v", entry, r.ID, r.Score, w)
							}
							if first != nil && (r.ID != first[i].ID || r.Score != first[i].Score) {
								t.Fatalf("%s: result %d = %s:%v, but %s:%v through the first entry point (must be bit-identical)",
									entry, i, r.ID, r.Score, first[i].ID, first[i].Score)
							}
						}
						if first == nil {
							first = res
						}
					}

					if item.Candidates == nil {
						fresh()
						res, meta, err := srv.Rank(user, item.Target, item.options(alg))
						if err != nil || meta.Cached {
							t.Fatalf("Rank: err %v, cached %v", err, meta.Cached)
						}
						check("Rank", res)
					}
					for _, batch := range [][]RankItem{{item}, {rs.filler[0], item, rs.filler[1]}} {
						fresh()
						entry := fmt.Sprintf("RankBatch of %d", len(batch))
						out, _, err := srv.RankBatch(user, alg, batch)
						if err != nil {
							t.Fatalf("%s: %v", entry, err)
						}
						mine := out[len(batch)/2]
						if mine.Err != nil || mine.Cached {
							t.Fatalf("%s: item err %v, cached %v", entry, mine.Err, mine.Cached)
						}
						check(entry, mine.Results)
					}
					if alg != contextrank.AlgorithmFactorized {
						return // subscriptions rank with the default algorithm only
					}
					fresh()
					if _, err := srv.Subscribe("entry", SubscriptionSpec{User: user, RankItem: item}); err != nil {
						t.Fatal(err)
					}
					defer srv.Unsubscribe("entry")
					st, err := srv.SubscriptionStream("entry")
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					snap := st.Snapshot()
					if snap.Type != "snapshot" {
						t.Fatalf("subscription: opening event %+v, want a snapshot", snap)
					}
					pushed := make([]contextrank.Result, len(snap.Results))
					for i, r := range snap.Results {
						pushed[i] = contextrank.Result{ID: r.ID, Score: r.Score}
					}
					check("subscription snapshot", pushed)
				})
			}
		}
	}
}
