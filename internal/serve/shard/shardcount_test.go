package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	contextrank "repro"
	"repro/internal/serve"
)

// renderResults is a ranking as bit-exact text: every id and the shortest
// decimal that reads back as its float64 score.
func renderResults(res []contextrank.Result) string {
	var sb strings.Builder
	for _, r := range res {
		fmt.Fprintf(&sb, "%s=%v;", r.ID, r.Score)
	}
	return sb.String()
}

// TestCoupledRankIndependentOfShardCount is the reproduction of the one
// wrong score that depended on the shard count: bob's rule reads ada's
// session through a role, so bob ranks p0 at 0.70 only while ada's
// InKitchen context is visible to his rank. A coordinator that kept ada's
// session on another replica than bob's rank ranked both programs 1.00.
func TestCoupledRankIndependentOfShardCount(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c, err := New(n, freshSystems, serve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Declare([]string{"TvProgram", "InKitchen"}, []string{"watchesWith", "hasGenre"}, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Assert([]serve.ConceptAssertion{
				{Concept: "TvProgram", ID: "p0", Prob: 1},
				{Concept: "TvProgram", ID: "p1", Prob: 1},
			}, []serve.RoleAssertion{
				{Role: "hasGenre", Src: "p0", Dst: "g0", Prob: 1},
				{Role: "watchesWith", Src: "bob", Dst: "ada", Prob: 1},
			}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.AddRules([]string{"RULE rc WHEN EXISTS watchesWith.InKitchen PREFER TvProgram AND EXISTS hasGenre.{g0} WITH 0.7"}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.SetSession("ada", []serve.Measurement{{Concept: "InKitchen", Prob: 1}}); err != nil {
				t.Fatal(err)
			}
			res, _, err := c.Rank("bob", "TvProgram", contextrank.RankOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderResults(res), "p0=0.7;p1=0.30000000000000004;"; got != want {
				t.Fatalf("bob ranks %s, want %s", got, want)
			}
		})
	}
}

// shardCountHistory generates one seeded serving history and plays it
// against c, returning every response as text. The alphabet is what a
// replica split could make lossy: vocabulary writes, rules whose contexts
// reach other users' sessions through a role, session PUTs and drops,
// ranks over data and over session vocabulary, batches, subscriptions'
// opening snapshots and ad-hoc queries. users are spread so that, on a
// coordinator that routed by user, coupled users would land on different
// replicas.
func shardCountHistory(t *testing.T, c *Coordinator, seed int64, users []string) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []string
	record := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	probs := []float64{0.3, 0.6, 1}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	programs := []string{"p0", "p1", "p2", "p3", "p4"}
	genres := []string{"g0", "g1"}
	targets := []string{"TvProgram", "InKitchen", "TvProgram AND EXISTS hasGenre.{g0}"}

	epoch, err := c.Declare([]string{"TvProgram", "InKitchen", "Weekend"}, []string{"watchesWith", "hasGenre"}, nil)
	record("declare %d %v", epoch, err)
	var cas []serve.ConceptAssertion
	var ras []serve.RoleAssertion
	for _, p := range programs {
		cas = append(cas, serve.ConceptAssertion{Concept: "TvProgram", ID: p, Prob: 1})
		ras = append(ras, serve.RoleAssertion{Role: "hasGenre", Src: p, Dst: pick(genres), Prob: probs[rng.Intn(len(probs))]})
	}
	for i, u := range users {
		ras = append(ras, serve.RoleAssertion{Role: "watchesWith", Src: u, Dst: users[(i+1)%len(users)], Prob: 1})
	}
	epoch, err = c.Assert(cas, ras)
	record("assert %d %v", epoch, err)
	rules := []string{
		"RULE coupled%d WHEN EXISTS watchesWith.InKitchen PREFER TvProgram AND EXISTS hasGenre.{%s} WITH 0.%d",
		"RULE atomic%d WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{%s} WITH 0.%d",
		"RULE mixed%d WHEN Weekend AND EXISTS watchesWith.Weekend PREFER TvProgram AND EXISTS hasGenre.{%s} WITH 0.%d",
	}
	for i := 0; i < 2; i++ {
		names, epoch, err := c.AddRules([]string{fmt.Sprintf(rules[i], i, pick(genres), 6+i)})
		record("rules %v %d %v", names, epoch, err)
	}

	subs := 0
	for step := 0; step < 60; step++ {
		u := pick(users)
		switch op := rng.Intn(12); op {
		case 0, 1, 2:
			var ms []serve.Measurement
			for _, concept := range []string{"InKitchen", "Weekend"} {
				if rng.Intn(2) == 0 {
					ms = append(ms, serve.Measurement{Concept: concept, Prob: probs[rng.Intn(len(probs))]})
				}
			}
			fp, err := c.SetSession(u, ms)
			record("put %s %s %v", u, fp, err)
		case 3:
			record("drop %s %v", u, c.DropSession(u))
		case 4, 5:
			target := pick(targets)
			res, _, err := c.Rank(u, target, contextrank.RankOptions{})
			record("rank %s %q %s %v", u, target, renderResults(res), err)
		case 6:
			items := []serve.RankItem{{Target: pick(targets)}, {Candidates: []string{pick(programs), pick(programs), pick(users)}}}
			res, _, err := c.RankBatch(u, "", items)
			record("batch %s %v", u, err)
			for _, it := range res {
				record("  item %s %v", renderResults(it.Results), it.Err)
			}
		case 7:
			id := fmt.Sprintf("sub%d", subs)
			subs++
			_, err := c.Subscribe(id, serve.SubscriptionSpec{User: u, RankItem: serve.RankItem{Target: pick(targets)}})
			record("subscribe %s %s %v", id, u, err)
		case 8:
			infos := c.Subscriptions()
			sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
			for _, info := range infos {
				st, err := c.SubscriptionStream(info.ID)
				if err != nil {
					record("stream %s %v", info.ID, err)
					continue
				}
				snap := st.Snapshot()
				st.Close()
				var sb strings.Builder
				for _, r := range snap.Results {
					fmt.Fprintf(&sb, "%s=%v;", r.ID, r.Score)
				}
				record("snapshot %s %s %s %s", info.ID, snap.Type, sb.String(), snap.Error)
			}
		case 9:
			res, err := c.Query("SELECT id FROM c_InKitchen ORDER BY id")
			var sb strings.Builder
			if res != nil {
				for _, row := range res.Rows {
					sb.WriteString(row[0].S + ";")
				}
			}
			record("query %s %v", sb.String(), err)
		case 10:
			epoch, err := c.Assert(nil, []serve.RoleAssertion{{Role: "hasGenre", Src: pick(programs), Dst: pick(genres), Prob: probs[rng.Intn(len(probs))]}})
			record("assert %d %v", epoch, err)
		case 11:
			names, epoch, err := c.AddRules([]string{fmt.Sprintf(pick(rules), 10+step, pick(genres), 5+rng.Intn(4))})
			record("rules %v %d %v", names, epoch, err)
		}
	}
	return out
}

// TestShardCountPropertyHistories replays seeded histories through New(1),
// New(2) and New(4): every response — write results, fingerprints, ranks,
// batch items, subscription snapshots and query rows — must be
// bit-identical across the three counts. Users are picked so that the pairs
// the watchesWith ring couples hash to different shards at 2 and at 4.
func TestShardCountPropertyHistories(t *testing.T) {
	users := []string{userOnShard(t, 4, 0), userOnShard(t, 4, 1), userOnShard(t, 4, 2), userOnShard(t, 4, 3)}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var want []string
			for _, n := range []int{1, 2, 4} {
				c, err := New(n, freshSystems, serve.Options{})
				if err != nil {
					t.Fatal(err)
				}
				got := shardCountHistory(t, c, seed, users)
				if n == 1 {
					want = got
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d, response %d:\n got %s\nwant %s", n, i, got[i], want[i])
					}
				}
			}
		})
	}
}
