// Package situation models the situated user (§2.3): the context of the
// user at query time as a set of uncertain concept memberships acquired
// from (simulated) sensors. Each sensed membership is tied to a fresh basic
// event in the database's event space, so downstream probability
// computations respect correlations — in particular mutually exclusive
// readings such as "a person can only be at a single place at one moment"
// (§4.1) become exclusive event groups.
package situation

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/mapping"
)

// Measurement is one sensed context assertion: the individual is a member
// of the context concept with the given probability. Measurements sharing a
// non-empty Exclusive label are mutually exclusive alternatives (their
// probabilities must sum to at most 1).
type Measurement struct {
	Concept    string
	Individual string // empty means "the situated user"
	Prob       float64
	Exclusive  string
	Source     string // sensor name, for traceability
}

// Context is the situation of one user at one instant.
type Context struct {
	User         string
	Measurements []Measurement
}

// New returns an empty context for the given user individual.
func New(user string) *Context { return &Context{User: user} }

// Certain adds a certain membership of the user in the concept.
func (c *Context) Certain(concept string) *Context {
	return c.Add(concept, 1)
}

// Add adds an independent uncertain membership of the user in the concept.
func (c *Context) Add(concept string, prob float64) *Context {
	c.Measurements = append(c.Measurements, Measurement{Concept: concept, Prob: prob})
	return c
}

// CertainFor adds a certain membership of another individual in the
// concept — used when one context snapshot covers several users at once
// (e.g. a group watching TV together, §6 "Modeling multiple users").
func (c *Context) CertainFor(individual, concept string) *Context {
	return c.AddFor(individual, concept, 1)
}

// AddFor adds an uncertain membership of another individual in the concept.
func (c *Context) AddFor(individual, concept string, prob float64) *Context {
	c.Measurements = append(c.Measurements, Measurement{
		Concept: concept, Individual: individual, Prob: prob,
	})
	return c
}

// AddExclusive adds a group of mutually exclusive memberships (e.g. one
// concept per room). The group label must be unique within the context.
func (c *Context) AddExclusive(group string, concepts []string, probs []float64) *Context {
	for i, concept := range concepts {
		c.Measurements = append(c.Measurements, Measurement{
			Concept:   concept,
			Prob:      probs[i],
			Exclusive: group,
		})
	}
	return c
}

// ConceptNames returns the distinct context concepts mentioned, in first-
// appearance order.
func (c *Context) ConceptNames() []string {
	var out []string
	for _, m := range c.Measurements {
		if !slices.Contains(out, m.Concept) {
			out = append(out, m.Concept)
		}
	}
	return out
}

// epoch numbers the applies of this process: all basic events one apply
// declares carry its number in their names, so names never repeat, and the
// number doubles as the applied context's generation (see ApplyOwned).
var epoch atomic.Int64

// Apply makes c the loader's whole context — one situated user per loader,
// the library's semantics (dynamic context is acquired anew at each query,
// §5): it retracts what every owner applied before, clears the assertions of
// the concepts the previous and the new context name (so a context concept
// never keeps stale or foreign rows), and applies c as c.User's context.
// Repeated applies on one loader — including an empty context, the "retract
// everything" case — keep the event space bounded by the live vocabulary
// instead of accumulating one epoch of ctx_* declarations per apply.
func (c *Context) Apply(l *mapping.Loader) error {
	if err := c.validate(); err != nil {
		return err
	}
	toClear := append(l.ContextConcepts(), c.ConceptNames()...)
	for _, owner := range l.ContextOwners() {
		if err := retract(l, owner); err != nil {
			return err
		}
	}
	for _, name := range toClear {
		if !l.HasConcept(name) {
			continue // not declared yet: nothing to clear
		}
		if err := l.ClearConcept(name); err != nil {
			return err
		}
	}
	return c.assert(l, epoch.Add(1))
}

// ApplyOwned replaces the context c.User applied before with c and leaves
// every other owner's applied context in place: it retracts exactly the rows
// and retires exactly the basic events c.User's previous apply recorded on
// the loader, declares fresh events carrying the measurement probabilities
// and asserts the memberships. The cost is that of c.User's own old and new
// measurements, however many owners share the loader. Owners must assert
// disjoint (concept, individual) rows — a serving layer gets that by letting
// a session assert only its own user — and concepts used this way must be
// dedicated context vocabulary, since nothing is cleared wholesale.
//
// It returns the apply's generation: the epoch number in the names of the
// events it declared, different on every apply even when the measurements
// are not.
//
// On a mid-apply failure the owner's record holds exactly what is still
// asserted and declared; the owner's next apply finishes the cleanup.
func (c *Context) ApplyOwned(l *mapping.Loader) (generation int64, err error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	generation = epoch.Add(1)
	if err := retract(l, c.User); err != nil {
		return generation, err
	}
	return generation, c.assert(l, generation)
}

// validate rejects measurements whose probability is not in [0,1].
func (c *Context) validate() error {
	for _, m := range c.Measurements {
		// Positive form so NaN is rejected too (NaN fails every comparison,
		// so `< 0 || > 1` would let it into the event space).
		if !(m.Prob >= 0 && m.Prob <= 1) {
			return fmt.Errorf("situation: measurement %s has probability %g", m.Concept, m.Prob)
		}
	}
	return nil
}

// retract removes what the owner's last apply left on the loader: its
// assertion rows, then — now unreferenced — its basic events. Events already
// gone (retired externally) are skipped rather than failing.
func retract(l *mapping.Loader, owner string) error {
	rows, events := l.OwnerContext(owner)
	for _, r := range rows {
		if err := l.RetractConcept(r.Concept, r.Individual); err != nil {
			return err
		}
	}
	space := l.DB().Space()
	live := events[:0]
	for _, n := range events {
		if space.Declared(n) {
			live = append(live, n)
		}
	}
	if err := space.Retire(live...); err != nil {
		l.SetOwnerContext(owner, nil, live)
		return err
	}
	l.SetOwnerContext(owner, nil, nil)
	return nil
}

// assert declares the context concepts and one basic event per uncertain
// measurement — all named after the apply's generation — asserts the
// memberships and records events and rows as c.User's applied context,
// whether or not it gets to the end. c.User has nothing applied. Each
// individual asserted is registered in the domain once.
func (c *Context) assert(l *mapping.Loader, generation int64) error {
	for _, m := range c.Measurements {
		if err := l.DeclareConcept(m.Concept); err != nil {
			return err
		}
	}
	space := l.DB().Space()
	rows := make([]mapping.ContextRow, 0, len(c.Measurements))
	declared := make([]string, 0, len(c.Measurements))
	defer func() { l.SetOwnerContext(c.User, rows, declared) }()
	eventName := func(i int) string {
		name := make([]byte, 0, 64)
		name = append(name, "ctx_"...)
		name = strconv.AppendInt(name, generation, 10)
		name = append(name, '_')
		name = strconv.AppendInt(name, int64(i), 10)
		name = append(name, '_')
		return string(append(name, c.Measurements[i].Concept...))
	}
	registered := make([]string, 0, 4)
	assert := func(i int, ev *event.Expr) error {
		m := c.Measurements[i]
		row := mapping.ContextRow{Concept: m.Concept, Individual: m.Individual}
		if row.Individual == "" {
			row.Individual = c.User
		}
		if !slices.Contains(registered, row.Individual) {
			if err := l.RegisterIndividual(row.Individual); err != nil {
				return err
			}
			registered = append(registered, row.Individual)
		}
		if err := l.AssertRegistered(row.Concept, row.Individual, ev); err != nil {
			return err
		}
		// Repeated measurements of one membership merge into one row.
		if !slices.Contains(rows, row) {
			rows = append(rows, row)
		}
		return nil
	}
	// Independent measurements.
	for i, m := range c.Measurements {
		if m.Exclusive != "" {
			continue
		}
		if m.Prob == 1 {
			if err := assert(i, event.True()); err != nil {
				return err
			}
			continue
		}
		name := eventName(i)
		if err := space.Declare(name, m.Prob); err != nil {
			return err
		}
		declared = append(declared, name)
		if err := assert(i, event.Basic(name)); err != nil {
			return err
		}
	}
	// Exclusive groups, in order of first appearance.
	for first, m := range c.Measurements {
		g := m.Exclusive
		if g == "" || slices.ContainsFunc(c.Measurements[:first], func(o Measurement) bool { return o.Exclusive == g }) {
			continue
		}
		var idxs []int
		for i := first; i < len(c.Measurements); i++ {
			if c.Measurements[i].Exclusive == g {
				idxs = append(idxs, i)
			}
		}
		names := make([]string, len(idxs))
		probs := make([]float64, len(idxs))
		for j, i := range idxs {
			names[j] = eventName(i)
			probs[j] = c.Measurements[i].Prob
		}
		if err := space.DeclareExclusive(names, probs); err != nil {
			return fmt.Errorf("situation: group %q: %w", g, err)
		}
		declared = append(declared, names...)
		for j, i := range idxs {
			if err := assert(i, event.Basic(names[j])); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sensor contributes measurements to a context. Sensors are simulated: they
// observe a hidden ground truth and emit a noisy probability distribution,
// which is exactly the uncertainty shape the paper attributes to sensed
// context (§1, §3.3).
type Sensor interface {
	Name() string
	Sense(c *Context) error
}

// ClockSensor derives calendar context concepts from a wall-clock time. A
// clock is certain, so all memberships have probability 1: Weekend or
// Workday, plus Morning/Afternoon/Evening/Night, plus Breakfast during the
// morning meal window.
type ClockSensor struct {
	Now time.Time
}

// Name implements Sensor.
func (ClockSensor) Name() string { return "clock" }

// Sense implements Sensor.
func (s ClockSensor) Sense(c *Context) error {
	wd := s.Now.Weekday()
	if wd == time.Saturday || wd == time.Sunday {
		c.Certain("Weekend")
	} else {
		c.Certain("Workday")
	}
	h := s.Now.Hour()
	switch {
	case h >= 6 && h < 12:
		c.Certain("Morning")
	case h >= 12 && h < 18:
		c.Certain("Afternoon")
	case h >= 18 && h < 23:
		c.Certain("Evening")
	default:
		c.Certain("Night")
	}
	if h >= 7 && h < 10 {
		c.Certain("Breakfast")
	}
	return nil
}

// LocationSensor simulates a room-level positioning system: it knows the
// true room and an accuracy, and spreads the remaining mass uniformly over
// the other rooms. All room memberships form one exclusive group.
type LocationSensor struct {
	Rooms    []string // concept names, e.g. "InKitchen"
	TrueRoom string
	Accuracy float64 // probability mass assigned to the true room
	Rng      *rand.Rand
}

// Name implements Sensor.
func (LocationSensor) Name() string { return "location" }

// Sense implements Sensor.
func (s LocationSensor) Sense(c *Context) error {
	if len(s.Rooms) == 0 {
		return fmt.Errorf("situation: location sensor has no rooms")
	}
	if s.Accuracy < 0 || s.Accuracy > 1 {
		return fmt.Errorf("situation: accuracy %g out of [0,1]", s.Accuracy)
	}
	trueIdx := -1
	for i, r := range s.Rooms {
		if r == s.TrueRoom {
			trueIdx = i
		}
	}
	if trueIdx < 0 {
		return fmt.Errorf("situation: true room %q not among rooms", s.TrueRoom)
	}
	probs := make([]float64, len(s.Rooms))
	rest := (1 - s.Accuracy) / float64(max(len(s.Rooms)-1, 1))
	for i := range probs {
		if i == trueIdx {
			probs[i] = s.Accuracy
		} else {
			probs[i] = rest
		}
	}
	// Optional sensor jitter: redistribute a little mass randomly while
	// keeping a valid distribution.
	if s.Rng != nil && len(s.Rooms) > 1 {
		j := s.Rng.Intn(len(s.Rooms))
		delta := probs[trueIdx] * 0.05
		if j != trueIdx {
			probs[trueIdx] -= delta
			probs[j] += delta
		}
	}
	c.AddExclusive("location", s.Rooms, probs)
	return nil
}

// ActivitySensor simulates activity recognition with a softmax-like
// distribution peaked at the true activity.
type ActivitySensor struct {
	Activities   []string
	TrueActivity string
	Confidence   float64
}

// Name implements Sensor.
func (ActivitySensor) Name() string { return "activity" }

// Sense implements Sensor.
func (s ActivitySensor) Sense(c *Context) error {
	if len(s.Activities) == 0 {
		return fmt.Errorf("situation: activity sensor has no activities")
	}
	trueIdx := -1
	for i, a := range s.Activities {
		if a == s.TrueActivity {
			trueIdx = i
		}
	}
	if trueIdx < 0 {
		return fmt.Errorf("situation: true activity %q not among activities", s.TrueActivity)
	}
	if s.Confidence < 0 || s.Confidence > 1 {
		return fmt.Errorf("situation: confidence %g out of [0,1]", s.Confidence)
	}
	probs := make([]float64, len(s.Activities))
	rest := (1 - s.Confidence) / float64(max(len(s.Activities)-1, 1))
	for i := range probs {
		if i == trueIdx {
			probs[i] = s.Confidence
		} else {
			probs[i] = rest
		}
	}
	c.AddExclusive("activity", s.Activities, probs)
	return nil
}

// SenseAll builds a context for the user by running every sensor.
func SenseAll(user string, sensors ...Sensor) (*Context, error) {
	c := New(user)
	for _, s := range sensors {
		if err := s.Sense(c); err != nil {
			return nil, fmt.Errorf("situation: sensor %s: %w", s.Name(), err)
		}
	}
	return c, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
