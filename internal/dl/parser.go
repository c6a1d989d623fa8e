package dl

import (
	"fmt"
	"strings"
	"unicode"
)

// Parse parses the textual concept-expression syntax used throughout this
// repository. The grammar (keywords are case-insensitive):
//
//	expr    := term { "OR" term }
//	term    := factor { "AND" factor }
//	factor  := "NOT" factor
//	         | "EXISTS" role "." factor
//	         | "(" expr ")"
//	         | "TOP" | "BOTTOM"
//	         | "{" ind { "," ind } "}"
//	         | concept-name
//
// Names may contain letters, digits, '_' and '-', so the paper's rule
// "TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}" parses as written.
func Parse(input string) (*Expr, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: input}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("dl: unexpected %q after expression in %q", p.toks[p.pos].text, input)
	}
	return e, nil
}

// MustParse is Parse but panics on error; for statically known expressions
// in tests.
func MustParse(input string) *Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

type tokKind uint8

const (
	tokName tokKind = iota
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokDot
)

type token struct {
	kind tokKind
	text string
}

func isNameRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

// lex splits the input into tokens; a rune that starts none is an error, so
// no stray character can pass for a name.
func lex(input string) ([]token, error) {
	var toks []token
	rs := []rune(input)
	for i := 0; i < len(rs); {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '(':
			toks = append(toks, token{tokLParen, "("})
			i++
		case r == ')':
			toks = append(toks, token{tokRParen, ")"})
			i++
		case r == '{':
			toks = append(toks, token{tokLBrace, "{"})
			i++
		case r == '}':
			toks = append(toks, token{tokRBrace, "}"})
			i++
		case r == ',':
			toks = append(toks, token{tokComma, ","})
			i++
		case r == '.':
			toks = append(toks, token{tokDot, "."})
			i++
		case isNameRune(r):
			j := i
			for j < len(rs) && isNameRune(rs[j]) {
				j++
			}
			toks = append(toks, token{tokName, string(rs[i:j])})
			i = j
		default:
			return nil, fmt.Errorf("dl: unexpected character %q in %q", r, input)
		}
	}
	return toks, nil
}

type parser struct {
	toks  []token
	pos   int
	input string
}

func (p *parser) peek() (token, bool) {
	if p.pos >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) keyword(kw string) bool {
	t, ok := p.peek()
	if ok && t.kind == tokName && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t, ok := p.peek()
	if !ok {
		return token{}, fmt.Errorf("dl: expected %s at end of %q", what, p.input)
	}
	if t.kind != k {
		return token{}, fmt.Errorf("dl: expected %s, found %q in %q", what, t.text, p.input)
	}
	p.pos++
	return t, nil
}

func (p *parser) parseExpr() (*Expr, error) {
	first, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	args := []*Expr{first}
	for p.keyword("OR") {
		next, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		args = append(args, next)
	}
	return Or(args...), nil
}

func (p *parser) parseTerm() (*Expr, error) {
	first, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	args := []*Expr{first}
	for p.keyword("AND") {
		next, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		args = append(args, next)
	}
	return And(args...), nil
}

func (p *parser) parseFactor() (*Expr, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("dl: unexpected end of expression in %q", p.input)
	}
	switch {
	case p.keyword("NOT"):
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return Not(inner), nil
	case p.keyword("EXISTS"):
		role, err := p.expect(tokName, "role name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot, "'.'"); err != nil {
			return nil, err
		}
		filler, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return Exists(role.text, filler), nil
	case p.keyword("TOP"):
		return Top(), nil
	case p.keyword("BOTTOM"):
		return Bottom(), nil
	case t.kind == tokLParen:
		p.pos++
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return inner, nil
	case t.kind == tokLBrace:
		p.pos++
		var inds []string
		for {
			ind, err := p.expect(tokName, "individual name")
			if err != nil {
				return nil, err
			}
			inds = append(inds, ind.text)
			nt, ok := p.peek()
			if !ok {
				return nil, fmt.Errorf("dl: unterminated nominal in %q", p.input)
			}
			if nt.kind == tokComma {
				p.pos++
				continue
			}
			break
		}
		if _, err := p.expect(tokRBrace, "'}'"); err != nil {
			return nil, err
		}
		return Nominal(inds...), nil
	case t.kind == tokName:
		p.pos++
		return Atom(t.text), nil
	}
	return nil, fmt.Errorf("dl: unexpected token %q in %q", t.text, p.input)
}

// Validate checks a concept expression against a vocabulary of declared
// concept and role names, returning an error naming the first undeclared
// symbol: a name is declared when it is a key of the map. Nominals are not
// checked (individuals are data, not terminology).
func Validate[V any](e *Expr, concepts, roles map[string]V) error {
	switch e.op {
	case OpAtom:
		if _, ok := concepts[e.name]; !ok {
			return fmt.Errorf("dl: undeclared concept %q", e.name)
		}
	case OpExists:
		if _, ok := roles[e.name]; !ok {
			return fmt.Errorf("dl: undeclared role %q", e.name)
		}
	}
	for _, a := range e.args {
		if err := Validate(a, concepts, roles); err != nil {
			return err
		}
	}
	return nil
}
