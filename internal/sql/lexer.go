// Package sql implements the SQL subset of the embedded relational engine:
// lexer, parser, expression evaluator with three-valued logic, and a
// planner/executor with nested-loop and hash joins, grouping, ordering,
// views, and the EVENT-expression builtins the paper added to PostgreSQL
// (§5): EV_AND, EV_OR, EV_NOT, EV_OR_AGG, EV_AND_AGG and PROB.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // operators and punctuation
)

// A token spans the source runes [pos, end): offsets count runes, not bytes.
type token struct {
	kind     tokenKind
	text     string
	pos, end int
}

// lexer tokenizes a SQL statement.
type lexer struct {
	src  []rune
	pos  int
	toks []token
}

var symbols = []string{
	"<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", "*", "+", "-", "/", "%", ";",
}

func lexSQL(src string) ([]token, error) {
	l := &lexer{src: []rune(src)}
	for l.pos < len(l.src) {
		r := l.src[l.pos]
		switch {
		case unicode.IsSpace(r):
			l.pos++
		case r == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case r == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case unicode.IsDigit(r), r == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(l.src[l.pos+1]):
			l.lexNumber()
		case unicode.IsLetter(r) || r == '_':
			l.lexIdent()
		default:
			if !l.lexSymbol() {
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", r, l.pos)
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos, end: l.pos})
	return l.toks, nil
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		r := l.src[l.pos]
		if r == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' { // escaped quote
				b.WriteRune('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start, end: l.pos})
			return nil
		}
		b.WriteRune(r)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string starting at offset %d", start)
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		r := l.src[l.pos]
		if unicode.IsDigit(r) {
			l.pos++
			continue
		}
		if r == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		if (r == 'e' || r == 'E') && l.pos+1 < len(l.src) &&
			(unicode.IsDigit(l.src[l.pos+1]) || l.src[l.pos+1] == '-' || l.src[l.pos+1] == '+') {
			l.pos += 2
			for l.pos < len(l.src) && unicode.IsDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: string(l.src[start:l.pos]), pos: start, end: l.pos})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		r := l.src[l.pos]
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			l.pos++
			continue
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: string(l.src[start:l.pos]), pos: start, end: l.pos})
}

func (l *lexer) lexSymbol() bool {
	for _, s := range symbols {
		if l.hasPrefix(s) {
			l.toks = append(l.toks, token{kind: tokSymbol, text: s, pos: l.pos, end: l.pos + len(s)})
			l.pos += len(s)
			return true
		}
	}
	return false
}

// hasPrefix reports whether the (ASCII) symbol s starts at the cursor,
// without allocating.
func (l *lexer) hasPrefix(s string) bool {
	if l.pos+len(s) > len(l.src) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if l.src[l.pos+i] != rune(s[i]) {
			return false
		}
	}
	return true
}
