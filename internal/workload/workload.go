// Package workload generates the paper's §5 test database: "a test
// database of context and documents containing around 11000 tuples; around
// 1000 persons, 300 TV programs, 12 genres, 6 subjects, 4 activities, 5
// rooms and their relations", plus the series of preference rules used for
// the scalability measurement. Generation is fully deterministic per seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/situation"
)

// Spec parametrizes dataset generation. The zero value is not useful; start
// from DefaultSpec.
type Spec struct {
	Seed       int64
	Persons    int
	Programs   int
	Genres     int
	Subjects   int
	Activities int
	Rooms      int
	// WatchEvents is the number of person-watched-program role tuples,
	// the filler relation that brings the dataset to the paper's size.
	WatchEvents int
	// UncertainFeatureProb is the probability that a program-feature role
	// assertion is uncertain (tagged with a fresh basic event) rather than
	// certain — the paper's automatically-tagged features (§3.1).
	UncertainFeatureProb float64
}

// DefaultSpec reproduces the paper's test database sizes.
func DefaultSpec() Spec {
	return Spec{
		Seed:                 1,
		Persons:              1000,
		Programs:             300,
		Genres:               12,
		Subjects:             6,
		Activities:           4,
		Rooms:                5,
		WatchEvents:          6800,
		UncertainFeatureProb: 0.5,
	}
}

// ServeSpec is the serving-layer contention dataset: many persons (the
// axis session count — and therefore merged-apply cost — grows along) over
// a small program catalog (so an individual rank recompute stays cheap).
// The shard scaling curve uses it because sharding parallelizes and
// shrinks per-user context applies, not per-rank scoring work: a spec
// dominated by ranker cost (like DefaultSpec's 300 programs) would
// measure the ranker, not the serving layer.
func ServeSpec() Spec {
	return Spec{
		Seed:                 1,
		Persons:              512,
		Programs:             15,
		Genres:               5,
		Subjects:             3,
		Activities:           2,
		Rooms:                2,
		WatchEvents:          400,
		UncertainFeatureProb: 0.5,
	}
}

// SmallSpec is a scaled-down dataset for unit tests.
func SmallSpec() Spec {
	return Spec{
		Seed:                 1,
		Persons:              20,
		Programs:             15,
		Genres:               5,
		Subjects:             3,
		Activities:           2,
		Rooms:                2,
		WatchEvents:          40,
		UncertainFeatureProb: 0.5,
	}
}

// Dataset is a generated TVTouch database.
type Dataset struct {
	Spec       Spec
	Loader     *mapping.Loader
	TupleCount int // concept + role assertions, the paper's "tuples"
	User       string
	Genres     []string
	Subjects   []string
	Activities []string
	Rooms      []string
}

// Generate builds the dataset on a fresh database.
func Generate(spec Spec) (*Dataset, error) {
	return GenerateInto(mapping.NewLoader(engine.New()), spec)
}

// GenerateInto builds the dataset through an existing loader — e.g. a
// contextrank.System's, so a full System (and the serving layer over it)
// can host the paper's TV-watcher database:
//
//	sys := contextrank.NewSystem()
//	d, err := workload.GenerateInto(sys.Loader(), workload.SmallSpec())
func GenerateInto(l *mapping.Loader, spec Spec) (*Dataset, error) {
	if spec.Persons <= 0 || spec.Programs <= 0 || spec.Genres <= 0 {
		return nil, fmt.Errorf("workload: spec must have positive persons, programs and genres")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	db := l.DB()
	d := &Dataset{Spec: spec, Loader: l}

	for _, c := range []string{"Person", "TvProgram", "Genre", "Subject", "Activity", "Room"} {
		if err := l.DeclareConcept(c); err != nil {
			return nil, err
		}
	}
	for _, r := range []string{"hasGenre", "hasSubject", "locatedIn", "performsActivity", "watched"} {
		if err := l.DeclareRole(r); err != nil {
			return nil, err
		}
	}

	assertC := func(concept, id string) error {
		d.TupleCount++
		return l.AssertConcept(concept, id, nil)
	}
	assertR := func(role, src, dst string, ev *event.Expr) error {
		d.TupleCount++
		return l.AssertRole(role, src, dst, ev)
	}

	// Vocabularies.
	for i := 0; i < spec.Genres; i++ {
		g := fmt.Sprintf("genre%02d", i)
		d.Genres = append(d.Genres, g)
		if err := assertC("Genre", g); err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.Subjects; i++ {
		s := fmt.Sprintf("subject%d", i)
		d.Subjects = append(d.Subjects, s)
		if err := assertC("Subject", s); err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.Activities; i++ {
		a := fmt.Sprintf("activity%d", i)
		d.Activities = append(d.Activities, a)
		if err := assertC("Activity", a); err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.Rooms; i++ {
		r := fmt.Sprintf("room%d", i)
		d.Rooms = append(d.Rooms, r)
		if err := assertC("Room", r); err != nil {
			return nil, err
		}
	}

	// Persons with a static location and activity.
	space := db.Space()
	for i := 0; i < spec.Persons; i++ {
		p := fmt.Sprintf("person%04d", i)
		if err := assertC("Person", p); err != nil {
			return nil, err
		}
		if err := assertR("locatedIn", p, d.Rooms[rng.Intn(len(d.Rooms))], nil); err != nil {
			return nil, err
		}
		if err := assertR("performsActivity", p, d.Activities[rng.Intn(len(d.Activities))], nil); err != nil {
			return nil, err
		}
	}
	d.User = "person0000"

	// Programs with genres (1-3) and subjects (0-2); a controlled fraction
	// of the feature assertions is uncertain.
	evSeq := 0
	featureEvent := func(kind string) (*event.Expr, error) {
		if rng.Float64() >= spec.UncertainFeatureProb {
			return event.True(), nil
		}
		evSeq++
		name := fmt.Sprintf("feat_%s_%d", kind, evSeq)
		p := 0.7 + 0.25*rng.Float64()
		if err := space.Declare(name, p); err != nil {
			return nil, err
		}
		return event.Basic(name), nil
	}
	programs := make([]string, spec.Programs)
	for i := 0; i < spec.Programs; i++ {
		prog := fmt.Sprintf("tv%03d", i)
		programs[i] = prog
		if err := assertC("TvProgram", prog); err != nil {
			return nil, err
		}
		nGenres := 1 + rng.Intn(3)
		for _, gi := range rng.Perm(len(d.Genres))[:min(nGenres, len(d.Genres))] {
			ev, err := featureEvent("g")
			if err != nil {
				return nil, err
			}
			if err := assertR("hasGenre", prog, d.Genres[gi], ev); err != nil {
				return nil, err
			}
		}
		nSubjects := rng.Intn(3)
		for _, si := range rng.Perm(len(d.Subjects))[:min(nSubjects, len(d.Subjects))] {
			ev, err := featureEvent("s")
			if err != nil {
				return nil, err
			}
			if err := assertR("hasSubject", prog, d.Subjects[si], ev); err != nil {
				return nil, err
			}
		}
	}

	// Viewing history filler relation.
	seen := make(map[[2]int]bool, spec.WatchEvents)
	for len(seen) < spec.WatchEvents {
		pi, gi := rng.Intn(spec.Persons), rng.Intn(spec.Programs)
		key := [2]int{pi, gi}
		if seen[key] {
			continue
		}
		seen[key] = true
		person := fmt.Sprintf("person%04d", pi)
		if err := assertR("watched", person, programs[gi], nil); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// BenchContextConcept names the i-th synthetic context concept used by the
// scalability experiment.
func BenchContextConcept(i int) string { return fmt.Sprintf("BenchCtx%d", i) }

// LoadBench is the standard serving-bench setup: generate the dataset
// through the loader, declare the rules' context concepts up front (so
// ranking works before any context asserts them), and register the
// scalability rule series in the repository. Used by carserved's preload,
// carbench's load generator and the serve benchmarks.
func LoadBench(l *mapping.Loader, repo *prefs.Repository, spec Spec, rules int) (*Dataset, error) {
	d, err := GenerateInto(l, spec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rules; i++ {
		if err := l.DeclareConcept(BenchContextConcept(i)); err != nil {
			return nil, err
		}
	}
	rs, err := d.Rules(rules)
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		if err := repo.Add(r); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// ApplyBenchContext asserts k synthetic context concepts for the dataset's
// user. With certain=false every concept holds with probability 0.9 via a
// fresh basic event, which is the worst case for the rankers (no pruning,
// no constant folding in the event expressions).
func (d *Dataset) ApplyBenchContext(k int, certain bool) error {
	ctx := situation.New(d.User)
	for i := 0; i < k; i++ {
		if certain {
			ctx.Certain(BenchContextConcept(i))
		} else {
			ctx.Add(BenchContextConcept(i), 0.9)
		}
	}
	return ctx.Apply(d.Loader)
}

// Rules builds the k scored preference rules of the scalability series:
// rule i prefers programs of genre i (mod |genres|) in context BenchCtx i.
// σ varies deterministically with i.
func (d *Dataset) Rules(k int) ([]prefs.Rule, error) {
	if k < 0 {
		return nil, fmt.Errorf("workload: negative rule count")
	}
	out := make([]prefs.Rule, 0, k)
	for i := 0; i < k; i++ {
		genre := d.Genres[i%len(d.Genres)]
		pref := dl.And(dl.Atom("TvProgram"), dl.Exists("hasGenre", dl.Nominal(genre)))
		out = append(out, prefs.Rule{
			Name:       fmt.Sprintf("bench-rule-%d", i),
			Context:    dl.Atom(BenchContextConcept(i)),
			Preference: pref,
			Sigma:      0.5 + 0.4*float64(i%5)/4,
		})
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
