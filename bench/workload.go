package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
)

// refSeconds is BENCHMARK.json's run_seconds: the cycle counts below are
// sized so that the warm-up and the timed pass together take about this long
// on the 2-vCPU reference sandbox. -seconds scales the cycle counts linearly
// from here; it never becomes a wall-clock bound (see README, "Fixed op
// lists").
const refSeconds = 15

// workload is one fixed op list: cycle repeated warm+cycles times. The cycle
// is a string of op kinds (R C A P W, see op).
type workload struct {
	name   string
	why    string
	live   int // sessions seeded before the pass
	active int // users receiving A ops
	cycle  string
	// The first warm cycles run untimed: they bring caches, heap and GC to
	// their steady state, and the crash image the recoveries boot from is
	// the data dir as they leave it. The next cycles are the timed pass. Both
	// counts are at -seconds refSeconds, -scale 1; cycles holds 100 samples of
	// every latency.
	warm, cycles int
	// disjoint keeps the rank pool clear of the active pool: a user whose
	// context keeps changing cannot be a "hot" rank.
	disjoint bool
	// minHotHits is the least share of R responses that must report
	// "cached":true (0 = unchecked: after a W every R is a compile).
	minHotHits float64
}

func rep(s string, n int) string { return strings.Repeat(s, n) }

var workloads = []workload{
	{
		name:       "hot-read",
		why:        "steady state: 98% rank-LRU hits, so net/http, handler, admission, routing and rankcache do the work",
		live:       64,
		active:     32,
		cycle:      rep(rep("R", 82)+"A", 2) + rep("R", 83) + "P",
		warm:       48,
		cycles:     648,
		minHotHits: 0.95,
	},
	{
		name:   "cold-rank",
		why:    "working set 2x the rank LRU: every rank misses the result cache, hits the plan cache and runs the ranker core",
		live:   64,
		active: 24,
		// 84 C to a cycle: one user's sweep of the whole expression list, so
		// that every cycle does the same work and the fastest one is not the
		// one that happened to hold the cheap expressions.
		cycle:  rep(rep("C", 14)+"A", 4) + rep(rep("C", 14)+"P", 2),
		warm:   12,
		cycles: 120,
	},
	{
		name:     "context-churn",
		why:      "256 live sessions, a quarter changing: O(sessions) merged apply, fsync per mutation, plan refresh, evaluate-to-SSE push",
		live:     256,
		active:   64,
		disjoint: true,
		cycle:    "AARAP",
		warm:     40,
		cycles:   480,
	},
	{
		name:     "vocab-write",
		why:      "broadcast vocabulary writes beside reads: each write orphans every rank and plan entry, so invalidation cost shows",
		live:     64,
		active:   24,
		disjoint: true,
		cycle:    "W" + rep("R", 7) + "A" + "W" + rep("R", 7) + "P",
		warm:     6,
		cycles:   102,
	},
}

// size scales the two cycle counts by factor, to at least one cycle each.
func (wl *workload) size(factor float64) (warm, cycles int) {
	scaled := func(n int) int { return max(int(math.Round(float64(n)*factor)), 1) }
	return scaled(wl.warm), scaled(wl.cycles)
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// opWeight is how many ops one op kind counts for: an A is an apply plus a
// poll, everything else is one closed-loop step.
func opWeight(kind byte) int {
	if kind == 'A' {
		return 2
	}
	return 1
}

// Pool layout (fixed; README lists it). Users are the dataset's
// person0000.. in order.
const (
	probeUser    = "person0000"
	probeSubID   = "probe"
	idleSubs     = 7  // standing subscriptions on person0001..person0007
	firstFree    = 8  // first user that is not subscribed
	maxRankPool  = 64 // users ranked by R, C and warm-up
	coldUsers    = 48 // users of the C list
	sampleUsers  = 8  // users checked against the naive ranker and across recovery
	rankTarget   = "TvProgram"
	dataGenres   = 12 // workload.DefaultSpec
	dataSubjects = 6
	dataPrograms = 300
	benchRules   = 8
	optionalCtx  = 4 // context concepts per PUT beside BenchCtx0
)

func person(i int) string { return fmt.Sprintf("person%04d", i) }

// plan is everything a run sends, generated from the seed before any
// stack exists: the same seed gives the same bytes on the wire.
type plan struct {
	wl       *workload
	seedPuts []*request // one session PUT per live user
	subs     []*request // the probe and idle subscription creates
	warm     []*request // one rank per user the pass ranks
	ops      []op
	samples  []string // users for the naive and recovery checks
	hotUser  string   // a rank-pool user, for the direct-call probes
}

// op is one closed-loop step.
//
//	R  hot rank:   rank (TvProgram, top 10) for the next rank-pool user
//	C  cold rank:  rank the next (user, expression) pair of the cyclic C list
//	A  apply+poll: PUT a fresh context for the next active user, then rank for them (a poll sample)
//	P  apply+push: PUT a fresh context for the probe user, wait for the SSE delta
//	W  vocab write: assert one hasGenre tuple (a two-shard broadcast)
type op struct {
	kind byte
	put  *request // A, P: the context PUT; W: the assert
	rank *request // R, C, A
}

// contextGen draws session contexts. Every PUT carries BenchCtx0 plus
// optionalCtx of BenchCtx1..7, every prob a fresh 3-decimal draw in [0.5, 1).
// The count is fixed because what an apply, a plan refresh and a compile
// cost grows with it: with a coin per concept (the issue's draw) the
// cheapest context of a run had one measurement or four, depending on the
// seed, and the fastest poll followed it. rankKey includes the context
// fingerprint, so a repeated (user, measurement set) would turn a "fresh"
// rank into a cache hit: repeats are redrawn.
type contextGen struct {
	rng  *rand.Rand
	seen map[string]struct{}
}

func (g *contextGen) prob() string {
	return fmt.Sprintf("0.%03d", 500+g.rng.Intn(500))
}

func (g *contextGen) body(user string) string {
	for {
		var b strings.Builder
		b.WriteString(`{"measurements":[{"concept":"BenchCtx0","prob":`)
		b.WriteString(g.prob())
		b.WriteByte('}')
		chosen := g.rng.Perm(benchRules - 1)[:optionalCtx]
		slices.Sort(chosen)
		for _, i := range chosen {
			fmt.Fprintf(&b, `,{"concept":"BenchCtx%d","prob":%s}`, i+1, g.prob())
		}
		b.WriteString("]}")
		key := user + b.String()
		if _, dup := g.seen[key]; dup {
			continue
		}
		g.seen[key] = struct{}{}
		return b.String()
	}
}

func (g *contextGen) put(user string) *request {
	return newRequest("PUT", "/v1/sessions/"+user+"/context", g.body(user), classApply)
}

func rankRequest(user, target string) *request {
	body := fmt.Sprintf(`{"user":%q,"target":%q,"top_k":10}`, user, target)
	return newRequest("POST", "/v1/rank", body, classRank)
}

// coldExpressions is the C list's 84 targets: 12 genre filters and their 72
// genre-and-subject refinements.
func coldExpressions() []string {
	var out []string
	for g := 0; g < dataGenres; g++ {
		genre := fmt.Sprintf("TvProgram AND EXISTS hasGenre.{genre%02d}", g)
		out = append(out, genre)
		for s := 0; s < dataSubjects; s++ {
			out = append(out, fmt.Sprintf("%s AND EXISTS hasSubject.{subject%d}", genre, s))
		}
	}
	return out
}

// newPlan generates the run's inputs. cycles overrides the workload's
// cycle count (already scaled by the caller).
func newPlan(wl *workload, seed int64, cycles int) *plan {
	g := &contextGen{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]struct{})}
	p := &plan{wl: wl}

	for i := 0; i < wl.live; i++ {
		p.seedPuts = append(p.seedPuts, g.put(person(i)))
	}
	for i := 0; i <= idleSubs; i++ {
		id := probeSubID
		if i > 0 {
			id = fmt.Sprintf("idle%d", i)
		}
		body := fmt.Sprintf(`{"id":%q,"user":%q,"target":%q,"top_k":10}`, id, person(i), rankTarget)
		p.subs = append(p.subs, newRequest("POST", "/v1/subscriptions", body, classOther))
	}

	// Active pool: the first users that hold no subscription. Rank pool:
	// up to maxRankPool live users from the same start, or from the end of
	// the active pool when the workload keeps the two disjoint.
	active := make([]string, wl.active)
	for i := range active {
		active[i] = person(firstFree + i)
	}
	rankFrom := firstFree
	if wl.disjoint {
		rankFrom += wl.active
	}
	var pool []string
	for i := rankFrom; i < wl.live && len(pool) < maxRankPool; i++ {
		pool = append(pool, person(i))
	}
	hot := make([]*request, len(pool))
	for i, u := range pool {
		hot[i] = rankRequest(u, rankTarget)
	}
	p.warm = append(p.warm, hot...)
	p.hotUser = pool[0]
	if wl.disjoint {
		for _, u := range active {
			p.warm = append(p.warm, rankRequest(u, rankTarget))
		}
	}
	poll := make(map[string]*request, len(active))
	for _, u := range active {
		poll[u] = rankRequest(u, rankTarget)
		poll[u].class = classPoll
	}

	// C list: expressions cycle fastest, so consecutive C ops share one
	// user's compiled plan (a plan-cache hit) while the (user, expression)
	// key is always older than the rank LRU can hold.
	var cold []*request
	if strings.ContainsRune(wl.cycle, 'C') {
		exprs := coldExpressions()
		for _, u := range pool[:coldUsers] {
			for _, e := range exprs {
				cold = append(cold, rankRequest(u, e))
			}
		}
	}

	var nHot, nCold, nActive, nWrite int
	for c := 0; c < cycles; c++ {
		for i := 0; i < len(wl.cycle); i++ {
			o := op{kind: wl.cycle[i]}
			switch o.kind {
			case 'R':
				o.rank = hot[nHot%len(hot)]
				nHot++
			case 'C':
				o.rank = cold[nCold%len(cold)]
				nCold++
			case 'A':
				u := active[nActive%len(active)]
				nActive++
				o.put, o.rank = g.put(u), poll[u]
			case 'P':
				o.put = g.put(probeUser)
			case 'W':
				prob := "1"
				if nWrite%2 == 1 {
					prob = g.prob()
				}
				nWrite++
				body := fmt.Sprintf(`{"roles":[{"role":"hasGenre","src":"tv%03d","dst":"genre%02d","prob":%s}]}`,
					g.rng.Intn(dataPrograms), g.rng.Intn(dataGenres), prob)
				o.put = newRequest("POST", "/v1/assert", body, classWrite)
			}
			p.ops = append(p.ops, o)
		}
	}

	// Sampled users: the probe, then seven more spread evenly over the
	// active and rank pools, so both shards and both roles are covered.
	p.samples = []string{probeUser}
	taken := map[string]bool{probeUser: true}
	var cands []string
	for _, u := range append(append([]string(nil), active...), pool...) {
		if !taken[u] {
			taken[u] = true
			cands = append(cands, u)
		}
	}
	for i := 0; len(p.samples) < sampleUsers; i++ {
		p.samples = append(p.samples, cands[i*len(cands)/(sampleUsers-1)])
	}
	return p
}
