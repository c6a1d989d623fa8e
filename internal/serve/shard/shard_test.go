package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"testing"

	contextrank "repro"
	"repro/internal/serve"
)

// freshSystems is the trivial build function: every shard starts empty.
func freshSystems(int) (*contextrank.System, error) {
	return contextrank.NewSystem(), nil
}

// The daemon's on-disk layout, as the tests write and read it.
const (
	manifestName        = "manifest.json"
	journalManifestName = "journal.manifest.json"
)

// journalFile names WAL file i of journal generation gen in dir.
func journalFile(dir, gen string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("sessions-%s-%03d.wal", gen, i))
}

// currentGen is the journal generation dir's journal manifest names.
func currentGen(t *testing.T, dir string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, journalManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m struct{ Gen string }
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m.Gen
}

// newTestCoordinator builds a coordinator (New(n, …)) preloaded with the
// worked-example vocabulary, data and one rule, so any user can rank
// TvProgram.
func newTestCoordinator(t *testing.T, n int) *Coordinator {
	t.Helper()
	c, err := New(n, freshSystems, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Declare([]string{"TvProgram", "Weekend"}, []string{"hasGenre"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assert([]serve.ConceptAssertion{
		{Concept: "TvProgram", ID: "Oprah", Prob: 1},
		{Concept: "TvProgram", ID: "BBCNews", Prob: 1},
	}, []serve.RoleAssertion{
		{Role: "hasGenre", Src: "Oprah", Dst: "HUMAN-INTEREST", Prob: 0.85},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddRules([]string{
		"RULE R1 WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8",
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// ShardIndex is the routing function of the builds that kept one replica
// per shard: FNV-64a of the user ID fed through Lamping–Veach jump
// consistent hashing. The tests use it to pick users such a build would
// have served from different replicas.
func ShardIndex(user string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(user))
	return jumpHash(h.Sum64(), shards)
}

// jumpHash is Lamping & Veach's jump consistent hash ("A Fast, Minimal
// Memory, Consistent Hash Algorithm", 2014).
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// userOnShard finds a user name that jump-hashes to shard want of n.
func userOnShard(t *testing.T, n, want int) string {
	t.Helper()
	for i := 0; i < 10*n*n+100; i++ {
		u := fmt.Sprintf("quser%04d", i)
		if ShardIndex(u, n) == want {
			return u
		}
	}
	t.Fatalf("no user found for shard %d/%d", want, n)
	return ""
}

func TestShardIndexStableAndBalanced(t *testing.T) {
	const users, shards = 10000, 8
	counts := make([]int, shards)
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("person%05d", i)
		s := ShardIndex(u, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardIndex(%q, %d) = %d out of range", u, shards, s)
		}
		if again := ShardIndex(u, shards); again != s {
			t.Fatalf("ShardIndex(%q, %d) unstable: %d then %d", u, shards, s, again)
		}
		counts[s]++
	}
	// Uniform hashing puts ~1250 users per shard; a 3σ-ish band catches a
	// broken mix without flaking (σ ≈ √(n·p·(1−p)) ≈ 33).
	for s, n := range counts {
		if n < 1000 || n > 1500 {
			t.Fatalf("shard %d holds %d of %d users; distribution %v", s, n, users, counts)
		}
	}
}

// TestShardIndexMatchesCoordinatorRouting: whatever ShardIndex would have
// picked, the coordinator serves every user from its one replica, shard 0.
func TestShardIndexMatchesCoordinatorRouting(t *testing.T) {
	c := newTestCoordinator(t, 4)
	for i := 0; i < 64; i++ {
		u := fmt.Sprintf("user%d", i)
		if got := c.ShardFor(u); got != 0 {
			t.Fatalf("ShardFor(%q) = %d (ShardIndex %d), want 0", u, got, ShardIndex(u, 4))
		}
		_, meta, err := c.Rank(u, "TvProgram", contextrank.RankOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if meta.Shard != 0 {
			t.Fatalf("rank for %q served by shard %d, want 0", u, meta.Shard)
		}
	}
}

func TestJumpHashMinimalMovement(t *testing.T) {
	// The defining consistent-hash property: growing n → n+1 shards moves
	// only ~1/(n+1) of the keys (a modulo hash would move ~n/(n+1)).
	const users = 10000
	for _, n := range []int{1, 2, 4, 7} {
		moved := 0
		for i := 0; i < users; i++ {
			u := fmt.Sprintf("person%05d", i)
			if ShardIndex(u, n) != ShardIndex(u, n+1) {
				moved++
			}
		}
		expect := users / (n + 1)
		if moved > expect*3/2 {
			t.Fatalf("%d→%d shards moved %d of %d users (expected ≈%d)", n, n+1, moved, users, expect)
		}
	}
}

// TestBroadcastConsistency: vocabulary, data and rules written through the
// coordinator are on its replica, and a rule removal leaves it.
func TestBroadcastConsistency(t *testing.T) {
	c := newTestCoordinator(t, 4)
	s := c.Shard(0)
	rules := s.Rules()
	if len(rules) != 1 || rules[0].Name != "R1" {
		t.Fatalf("rules = %+v, want [R1]", rules)
	}
	res, err := s.Query("SELECT id FROM c_TvProgram ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d TvProgram rows, want 2", len(res.Rows))
	}
	out, _, err := s.Rank("nobody", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("ranked %d candidates, want 2", len(out))
	}
	if _, err := c.RemoveRule("R1"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Rules()); got != 0 {
		t.Fatalf("%d rules after the removal, want 0", got)
	}
}

// TestSessionsAreShardLocal checks that a session apply lands on the
// replica, that the user's ranking reflects it and that a drop ends it.
func TestSessionsAreShardLocal(t *testing.T) {
	c := newTestCoordinator(t, 4)
	user := "peter"
	if _, err := c.SetSession(user, []serve.Measurement{{Concept: "Weekend", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Shard(c.ShardFor(user)).SessionInfo(user); !ok {
		t.Fatal("the replica holds no session")
	}
	res, meta, err := c.Rank(user, "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Shard != 0 {
		t.Fatalf("rank served by shard %d, want 0", meta.Shard)
	}
	if res[0].ID != "Oprah" {
		t.Fatalf("weekend winner = %s, want Oprah (session context not applied?)", res[0].ID)
	}
	if err := c.DropSession(user); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.SessionInfo(user); ok {
		t.Fatal("session survived DropSession")
	}
}

// TestQueryReadsOneReplica: a SELECT over a session concept answers the
// same rows each time it is sent, the session's row among them.
func TestQueryReadsOneReplica(t *testing.T) {
	c := newTestCoordinator(t, 2)
	user := userOnShard(t, 2, 1)
	if _, err := c.SetSession(user, []serve.Measurement{{Concept: "Weekend", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		res, err := c.Query("SELECT id FROM c_Weekend")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].S != user {
			t.Fatalf("the query answered %v, want %s's row", res.Rows, user)
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	c := newTestCoordinator(t, 3)
	users := []string{"a", "b", "c", "d", "e", "f"}
	for _, u := range users {
		if _, err := c.SetSession(u, []serve.Measurement{{Concept: "Weekend", Prob: 1}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Rank(u, "TvProgram", contextrank.RankOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if len(st.Shards) != 1 {
		t.Fatalf("per-shard breakdown has %d entries, want 1", len(st.Shards))
	}
	if st.Sessions != len(users) {
		t.Fatalf("aggregate sessions = %d, want %d", st.Sessions, len(users))
	}
	if st.Requests != int64(len(users)) {
		t.Fatalf("aggregate requests = %d, want %d", st.Requests, len(users))
	}
	var sum int64
	for _, sh := range st.Shards {
		sum += sh.Requests
	}
	if sum != st.Requests {
		t.Fatalf("per-shard requests sum %d != aggregate %d", sum, st.Requests)
	}
	if st.Rules != 1 {
		t.Fatalf("aggregate rules = %d, want 1 (replicated, not summed)", st.Rules)
	}
	if st.Broadcast == nil || st.Broadcast.Writes != 3 {
		t.Fatalf("broadcast stats = %+v, want 3 writes (declare, assert, rules)", st.Broadcast)
	}
	if st.Broadcast.MeanMicros <= 0 || st.Broadcast.MaxMicros < st.Broadcast.MeanMicros {
		t.Fatalf("broadcast latency not recorded: %+v", st.Broadcast)
	}
	if memo := st.Shards[0].Memberships; memo != st.Memberships || memo.Queries == 0 {
		t.Fatalf("aggregate memberships %+v, shard entry %+v — want the same, with the ranks' whole evaluations in it", st.Memberships, memo)
	}
}

// TestVocabWriteCostsOneQueryPerShardView: a broadcast assert reaches every
// replica, and on each the users' next ranks compile their stale plans again
// behind no whole evaluation at all: exactly one patch per view that
// reads the written table (R1's preference reads r_hasGenre; the TvProgram
// target does not), however many users the shard serves. The same tuple
// written through /v1/exec's SQL is not logged, and costs that view one whole
// evaluation and no patch.
func TestVocabWriteCostsOneQueryPerShardView(t *testing.T) {
	c := newTestCoordinator(t, 2)
	users := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	rankAll := func() {
		t.Helper()
		for _, u := range users {
			if _, _, err := c.Rank(u, "TvProgram", contextrank.RankOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, u := range users {
		if _, err := c.SetSession(u, []serve.Measurement{{Concept: "Weekend", Prob: 0.9}}); err != nil {
			t.Fatal(err)
		}
	}
	rankAll()
	before := c.Stats()
	if _, err := c.Assert(nil, []serve.RoleAssertion{{Role: "hasGenre", Src: "BBCNews", Dst: "HUMAN-INTEREST", Prob: 0.4}}); err != nil {
		t.Fatal(err)
	}
	rankAll()
	after := c.Stats()
	for i := range after.Shards {
		b, a := before.Shards[i], after.Shards[i]
		if a.Sessions == 0 {
			t.Fatalf("shard %d serves no user: pick users that spread", i)
		}
		refreshed, misses := a.Plans.Refreshed-b.Plans.Refreshed, a.Plans.Misses-b.Plans.Misses
		if refreshed != int64(a.Sessions) || misses != refreshed {
			t.Fatalf("shard %d: %d users, %d plan misses, %d refreshed — want every user's stale plan replaced", i, a.Sessions, misses, refreshed)
		}
		if p, q := a.Memberships.Patched-b.Memberships.Patched, a.Memberships.Queries-b.Memberships.Queries; p != 1 || q != 0 {
			t.Fatalf("shard %d: %d patches and %d whole evaluations behind %d users' ranks, want 1 and 0", i, p, q, a.Sessions)
		}
	}
	before = after
	if _, _, err := c.Exec("INSERT INTO r_hasGenre (src, dst, ev) VALUES ('BBCNews', 'ARTS', EV_TRUE())"); err != nil {
		t.Fatal(err)
	}
	rankAll()
	after = c.Stats()
	for i := range after.Shards {
		b, a := before.Shards[i].Memberships, after.Shards[i].Memberships
		if p, q := a.Patched-b.Patched, a.Queries-b.Queries; p != 0 || q != 1 {
			t.Fatalf("shard %d after a SQL insert: %d patches and %d whole evaluations, want 0 and 1", i, p, q)
		}
	}
}

// TestShardSoakConcurrentAppliesAndRanks is the -race soak: concurrent
// session applies and ranks spread across shards, plus periodic broadcast
// writes, must neither race nor deadlock, and every shard must stay
// consistent with the replicated rule set afterwards.
func TestShardSoakConcurrentAppliesAndRanks(t *testing.T) {
	c := newTestCoordinator(t, 4)
	workers, iters := 8, 60
	if testing.Short() {
		workers, iters = 4, 20
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("soak-user-%d", w)
			for i := 0; i < iters; i++ {
				prob := 0.5 + 0.5*float64(i%2) // alternate certain/uncertain
				if _, err := c.SetSession(user, []serve.Measurement{{Concept: "Weekend", Prob: prob}}); err != nil {
					errc <- fmt.Errorf("worker %d set: %w", w, err)
					return
				}
				if _, _, err := c.Rank(user, "TvProgram", contextrank.RankOptions{Limit: 5}); err != nil {
					errc <- fmt.Errorf("worker %d rank: %w", w, err)
					return
				}
			}
		}(w)
	}
	// Broadcast writer: keeps the cross-shard path under contention.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			a := []serve.RoleAssertion{{Role: "hasGenre", Src: "Oprah", Dst: fmt.Sprintf("soakgenre%d", i), Prob: 0.9}}
			if _, err := c.Assert(nil, a); err != nil {
				errc <- fmt.Errorf("broadcast assert: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := len(c.Rules()); got != 1 {
		t.Fatalf("rules = %d after soak, want 1", got)
	}
}
