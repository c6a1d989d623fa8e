package serve

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"

	contextrank "repro"
	"repro/internal/workload"
)

// applyServer is BenchmarkSessionApply's stack: one unsharded server without
// a journal over the small TV-watcher dataset and its eight bench rules, with
// a five-measurement session for each of the first n users.
func applyServer(t *testing.T, n int) *Server {
	t.Helper()
	sys := contextrank.NewSystem()
	if _, err := workload.LoadBench(sys.Loader(), sys.Rules(), workload.SmallSpec(), 8); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sys, Options{})
	for u := 0; u < n; u++ {
		if _, err := srv.SetSession(fmt.Sprintf("person%04d", u), applyContext(u)); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// applyContext is the n-th of a run of five-measurement contexts that never
// repeat: BenchCtx0 plus four of BenchCtx1..7, with fresh probabilities.
func applyContext(n int) []Measurement {
	ms := make([]Measurement, 5)
	for j := range ms {
		concept := 0
		if j > 0 {
			concept = 1 + (n+j)%7
		}
		ms[j] = Measurement{Concept: workload.BenchContextConcept(concept), Prob: 0.5 + float64((n>>(9*j))&511+1)/1026}
	}
	return ms
}

// TestSessionApplyAllocs pins what one context PUT allocates in memory, with
// 64 sessions live: an apply pays for its rows and events, not for resolving
// table names, logging writes or checking rules.
func TestSessionApplyAllocs(t *testing.T) {
	const sessions, runs = 64, 50
	srv := applyServer(t, sessions)
	contexts := make([][]Measurement, runs+1)
	for i := range contexts {
		contexts[i] = applyContext(sessions + i)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := srv.SetSession("person0000", contexts[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.0f allocs per SetSession", allocs)
	if allocs > 100 {
		t.Fatalf("one 5-measurement SetSession at %d sessions allocates %.0f times, want ≤ 100", sessions, allocs)
	}
}

// TestSessionApplyAfterTableRecreated: a context table dropped and created
// again through SQL is the one the next context PUT writes — the apply finds
// its tables by name on every call and keeps no table of its own — and the
// next rank reads it.
func TestSessionApplyAfterTableRecreated(t *testing.T) {
	const user = "person0000"
	ms := []Measurement{{Concept: workload.BenchContextConcept(0), Prob: 1}, {Concept: workload.BenchContextConcept(1), Prob: 0.6}}
	opts := contextrank.RankOptions{Limit: 10}

	// The reference: the same PUT on a server that never dropped a table. It
	// must move the ranking, or a PUT lost in a dropped table would pass.
	ref := applyServer(t, 0)
	without, _, err := ref.Rank(user, "TvProgram", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.SetSession(user, append([]Measurement(nil), ms...)); err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.Rank(user, "TvProgram", opts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(want) == fmt.Sprint(without) {
		t.Fatalf("the context does not move the ranking: %v", want)
	}

	srv := applyServer(t, 4)
	if _, _, err := srv.Rank(user, "TvProgram", opts); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"DROP TABLE c_BenchCtx0",
		"CREATE TABLE c_BenchCtx0 (id TEXT, ev EVENT)",
		"CREATE INDEX ON c_BenchCtx0 (id)",
	} {
		if _, _, err := srv.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if _, err := srv.SetSession(user, append([]Measurement(nil), ms...)); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Query("SELECT COUNT(*) FROM c_BenchCtx0")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].I; n != 1 {
		t.Fatalf("c_BenchCtx0 holds %d rows after the PUT, want 1", n)
	}
	got, _, err := srv.Rank(user, "TvProgram", opts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rank after the PUT = %v, want %v", got, want)
	}
}

// TestFingerprintIsFNV64a: the fingerprint is bit for bit the FNV-64a hash
// of the length-prefixed fields it has always hashed — WAL records and the
// recovery fixtures carry it.
func TestFingerprintIsFNV64a(t *testing.T) {
	reference := func(user string, ms []Measurement) string {
		h := fnv.New64a()
		field := func(s string) {
			h.Write([]byte(strconv.Itoa(len(s))))
			h.Write([]byte{':'})
			h.Write([]byte(s))
		}
		field(user)
		for _, m := range ms {
			field(m.Concept)
			field(m.Individual)
			field(strconv.FormatFloat(m.Prob, 'g', -1, 64))
			field(m.Exclusive)
		}
		return strconv.FormatUint(h.Sum64(), 16)
	}
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]byte, rng.Intn(3)*rng.Intn(40))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	probs := []float64{0, 1, 0.5, 1.0 / 3, 5e-324, 0.1 + 0.2, 1 - 1e-16}
	for i := 0; i < 500; i++ {
		ms := make([]Measurement, rng.Intn(6))
		for j := range ms {
			ms[j] = Measurement{Concept: word(), Individual: word(), Prob: probs[rng.Intn(len(probs))], Exclusive: word()}
			if rng.Intn(2) == 0 {
				ms[j].Prob = rng.Float64()
			}
		}
		user := word()
		if got, want := fingerprint(user, ms), reference(user, ms); got != want {
			t.Fatalf("fingerprint(%q, %+v) = %s, want %s", user, ms, got, want)
		}
	}
}
