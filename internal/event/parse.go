package event

import (
	"fmt"
	"unicode"
)

// Parse parses the textual form produced by Expr.String: basic-event names,
// the constants ⊤/⊥ (or TRUE/FALSE), prefix ¬ (or NOT / !), infix ∧ (or
// AND / &) and ∨ (or OR / |), with parentheses. Parse(e.String()) is
// structurally equal to e for every expression e, which makes the format
// suitable for persisting EVENT columns.
func Parse(input string) (*Expr, error) {
	p := &eparser{src: []rune(input), input: input}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("event: trailing input %q in %q", string(p.src[p.pos:]), input)
	}
	return e, nil
}

type eparser struct {
	src   []rune
	pos   int
	input string
}

func (p *eparser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(p.src[p.pos]) {
		p.pos++
	}
}

func (p *eparser) peek() rune {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

// word consumes a case-insensitive keyword if present at the cursor,
// requiring a non-name boundary after it.
func (p *eparser) word(kw string) bool {
	save := p.pos
	for _, r := range kw {
		if p.pos >= len(p.src) || unicode.ToUpper(p.src[p.pos]) != r {
			p.pos = save
			return false
		}
		p.pos++
	}
	if p.pos < len(p.src) && isEventNameRune(p.src[p.pos]) {
		p.pos = save
		return false
	}
	return true
}

func isEventNameRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.' || r == ':'
}

func (p *eparser) parseOr() (*Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	args := []*Expr{left}
	for {
		p.skipSpace()
		switch {
		case p.peek() == '∨', p.peek() == '|':
			p.pos++
		case p.word("OR"):
		default:
			return Or(args...), nil
		}
		next, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		args = append(args, next)
	}
}

func (p *eparser) parseAnd() (*Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	args := []*Expr{left}
	for {
		p.skipSpace()
		switch {
		case p.peek() == '∧', p.peek() == '&':
			p.pos++
		case p.word("AND"):
		default:
			return And(args...), nil
		}
		next, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		args = append(args, next)
	}
}

func (p *eparser) parseUnary() (*Expr, error) {
	p.skipSpace()
	switch {
	case p.peek() == '¬', p.peek() == '!':
		p.pos++
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(inner), nil
	case p.word("NOT"):
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(inner), nil
	case p.peek() == '(':
		p.pos++
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, fmt.Errorf("event: missing ')' in %q", p.input)
		}
		p.pos++
		return inner, nil
	case p.peek() == '⊤':
		p.pos++
		return True(), nil
	case p.peek() == '⊥':
		p.pos++
		return False(), nil
	case p.word("TRUE"):
		return True(), nil
	case p.word("FALSE"):
		return False(), nil
	}
	start := p.pos
	for p.pos < len(p.src) && isEventNameRune(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("event: unexpected %q in %q", string(p.peek()), p.input)
	}
	return Basic(string(p.src[start:p.pos])), nil
}

// Eval evaluates the expression under a total assignment of its basic
// events (missing names read as false).
func (e *Expr) Eval(assign map[string]bool) bool { return e.evaluate(assign) }

// Sampler draws random worlds of the correlated blocks mentioned by a set
// of expressions, for Monte Carlo probability estimation. Build once per
// expression set; Sample is cheap and allocation-light.
type Sampler struct {
	factors []factor
}

// NewSampler prepares a sampler for the union of basic events mentioned by
// the given expressions.
func (s *Space) NewSampler(exprs ...*Expr) (*Sampler, error) {
	names := make(map[string]bool)
	for _, e := range exprs {
		for _, n := range e.Basics() {
			names[n] = true
		}
	}
	carrier := make([]*Expr, 0, len(names))
	for n := range names {
		carrier = append(carrier, Basic(n))
	}
	factors, err := s.factorsOf(Or(carrier...))
	if err != nil {
		return nil, err
	}
	return &Sampler{factors: factors}, nil
}

// Sample fills assign with one random world: independent events flip their
// own coins; exclusive-group members are drawn from the group distribution
// (at most one true).
func (sa *Sampler) Sample(rng rand64, assign map[string]bool) {
	for _, f := range sa.factors {
		if !f.excl {
			assign[f.names[0]] = rng.Float64() < f.probs[0]
			continue
		}
		u := rng.Float64()
		chosen := -1
		acc := 0.0
		for i, p := range f.probs {
			acc += p
			if u < acc {
				chosen = i
				break
			}
		}
		for i, n := range f.names {
			assign[n] = i == chosen
		}
	}
}

// rand64 is the minimal randomness interface Sample needs; *math/rand.Rand
// satisfies it.
type rand64 = interface{ Float64() float64 }
