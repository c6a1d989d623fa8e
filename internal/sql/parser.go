package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// Parse parses a single SQL statement (a trailing semicolon is allowed).
// The dialect, keywords in any case, [x] optional and {x} repeated:
//
//	CREATE TABLE [IF NOT EXISTS] name ( col type {, col type} )
//	DROP TABLE [IF EXISTS] name
//	CREATE [OR REPLACE] VIEW name AS select
//	DROP VIEW [IF EXISTS] name
//	CREATE INDEX ON table ( col )
//	INSERT INTO table [( col {, col} )] VALUES ( expr {, expr} ) {, ( … )}
//	UPDATE table SET col = expr {, col = expr} [WHERE expr]
//	DELETE FROM table [WHERE expr]
//	select
//
//	select := SELECT [DISTINCT | ALL] expr [[AS] alias] {, expr [[AS] alias]}
//	          [FROM source {[INNER | LEFT [OUTER]] JOIN source ON expr}]
//	          [WHERE expr] [GROUP BY expr {, expr}]
//	          ( UNION ALL select | [ORDER BY expr [ASC | DESC] {, …}] [LIMIT n] )
//	source := name [[AS] alias] | ( select ) [AS] alias
//
// type is INT, FLOAT, TEXT, BOOL or EVENT (or a synonym storage.TypeFromName
// reads); parseExpr gives expr. A select list has no *, a FROM list no
// commas, and there is no HAVING: anything else is a parse error.
func Parse(src string) (Statement, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected %q after statement", p.cur().text)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: "+format+" (at offset %d in %q)", append(args, p.cur().pos, p.src)...)
}

// keyword consumes an identifier token equal (case-insensitively) to kw.
func (p *parser) keyword(kw string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

// peekKeyword reports whether the current token is the given keyword.
func (p *parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, found %q", kw, p.cur().text)
	}
	return nil
}

// accept consumes a symbol token.
func (p *parser) accept(sym string) bool {
	t := p.cur()
	if t.kind == tokSymbol && t.text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.accept(sym) {
		return p.errf("expected %q, found %q", sym, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.pos++
	return t.text, nil
}

// reservedWords are never an alias or a column name. The keywords of forms
// the dialect does not have (OR, NOT as an operator, HAVING, CASE…END, LIKE)
// stay here, so such a statement fails to parse instead of reading the
// keyword as an alias.
var reservedWords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "HAVING": true,
	"ORDER": true, "LIMIT": true, "UNION": true, "JOIN": true, "LEFT": true,
	"ON": true, "AS": true, "AND": true, "OR": true, "NOT": true, "IN": true,
	"IS": true, "NULL": true, "BY": true, "ASC": true, "DESC": true,
	"DISTINCT": true, "ALL": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "INNER": true, "OUTER": true, "LIKE": true,
	"SET": true, "UPDATE": true,
}

// bareIdent parses an identifier that is not a reserved word (for aliases).
func (p *parser) bareIdent() (string, bool) {
	t := p.cur()
	if t.kind == tokIdent && !reservedWords[strings.ToUpper(t.text)] {
		p.pos++
		return t.text, true
	}
	return "", false
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.peekKeyword("CREATE"):
		return p.parseCreate()
	case p.peekKeyword("DROP"):
		return p.parseDrop()
	case p.peekKeyword("INSERT"):
		return p.parseInsert()
	case p.peekKeyword("DELETE"):
		return p.parseDelete()
	case p.peekKeyword("UPDATE"):
		return p.parseUpdate()
	case p.peekKeyword("SELECT"):
		return p.parseSelect()
	}
	return nil, p.errf("expected statement, found %q", p.cur().text)
}

func (p *parser) parseCreate() (Statement, error) {
	p.keyword("CREATE")
	orReplace := false
	if p.keyword("OR") {
		if err := p.expectKeyword("REPLACE"); err != nil {
			return nil, err
		}
		orReplace = true
	}
	switch {
	case p.keyword("TABLE"):
		ifNot := false
		if p.keyword("IF") {
			if err := p.expectKeyword("NOT"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			ifNot = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var cols []ColumnDef
		for {
			cname, err := p.ident()
			if err != nil {
				return nil, err
			}
			tname, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, err := storage.TypeFromName(strings.ToUpper(tname))
			if err != nil {
				return nil, p.errf("%v", err)
			}
			cols = append(cols, ColumnDef{Name: cname, Type: typ})
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CreateTableStmt{Name: name, IfNotExists: ifNot, Columns: cols}, nil
	case p.keyword("VIEW"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		from := p.cur().pos
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		text := string([]rune(p.src)[from:p.toks[p.pos-1].end])
		return &CreateViewStmt{Name: name, OrReplace: orReplace, Query: sel, Text: text}, nil
	case p.keyword("INDEX"):
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Table: table, Column: col}, nil
	}
	return nil, p.errf("expected TABLE, VIEW or INDEX after CREATE")
}

func (p *parser) parseDrop() (Statement, error) {
	p.keyword("DROP")
	isView := false
	switch {
	case p.keyword("TABLE"):
	case p.keyword("VIEW"):
		isView = true
	default:
		return nil, p.errf("expected TABLE or VIEW after DROP")
	}
	ifExists := false
	if p.keyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if isView {
		return &DropViewStmt{Name: name, IfExists: ifExists}, nil
	}
	return &DropTableStmt{Name: name, IfExists: ifExists}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.keyword("INSERT")
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.accept("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Expr
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.accept(",") {
			continue
		}
		break
	}
	return &InsertStmt{Table: table, Columns: cols, Rows: rows}, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.keyword("DELETE")
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	var where Expr
	if p.keyword("WHERE") {
		where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return &DeleteStmt{Table: table, Where: where}, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.keyword("UPDATE")
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, Assignment{Column: col, Value: val})
		if p.accept(",") {
			continue
		}
		break
	}
	if p.keyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	if p.keyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.keyword("ALL")
	}
	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.accept(",") {
			continue
		}
		break
	}
	// FROM.
	if p.keyword("FROM") {
		refs, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		sel.From = refs
	}
	if p.keyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.keyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.accept(",") {
				continue
			}
			break
		}
	}
	if p.keyword("UNION") {
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, p.errf("only UNION ALL is supported")
		}
		rest, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		sel.Union = rest
		return sel, nil // ORDER BY/LIMIT belong to the last branch in this subset
	}
	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.keyword("DESC") {
				item.Desc = true
			} else {
				p.keyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.accept(",") {
				continue
			}
			break
		}
	}
	if p.keyword("LIMIT") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, p.errf("expected number after LIMIT")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		p.pos++
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.keyword("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if a, ok := p.bareIdent(); ok {
		item.Alias = a
	}
	return item, nil
}

func (p *parser) parseFrom() ([]TableRef, error) {
	first, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	refs := []TableRef{first}
	for p.peekKeyword("JOIN") || p.peekKeyword("INNER") || p.peekKeyword("LEFT") {
		left := p.keyword("LEFT")
		if left {
			p.keyword("OUTER")
		} else {
			p.keyword("INNER")
		}
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		r, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		if r.On, err = p.parseExpr(); err != nil {
			return nil, err
		}
		r.Left = left
		refs = append(refs, r)
	}
	return refs, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	var ref TableRef
	if p.accept("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return ref, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return ref, err
		}
		ref.Subquery = sub
	} else {
		name, err := p.ident()
		if err != nil {
			return ref, err
		}
		ref.Table = name
	}
	if p.keyword("AS") {
		a, err := p.ident()
		if err != nil {
			return ref, err
		}
		ref.Alias = a
	} else if a, ok := p.bareIdent(); ok {
		ref.Alias = a
	}
	if ref.Subquery != nil && ref.Alias == "" {
		return ref, p.errf("derived table requires an alias")
	}
	return ref, nil
}

// Expression grammar, loosest to tightest:
//
//	expr      := predicate { AND predicate }
//	predicate := additive [ cmpOp additive | IS [NOT] NULL | IN ( expr {, expr} ) ]
//	additive  := multiplicative { + multiplicative }
//	multiplicative := unary { (*|/) unary }
//	unary     := - unary | primary
//	primary   := literal | builtin ( [* | expr {, expr}] ) | [name .] name | ( expr )
//
// cmpOp is one of = <> != < <= > >=; a literal is a number, a 'string',
// NULL, TRUE or FALSE; builtin is a name in builtins. There is no OR, NOT,
// LIKE, CASE, binary - or %: a disjunction of events is UNION ALL +
// EV_OR_AGG, a negation EV_NOT; a minus sign only negates.
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parsePredicate()
	if err != nil {
		return nil, err
	}
	for p.keyword("AND") {
		right, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &Binary{Op: op, L: left, R: right}, nil
		}
	}
	if p.keyword("IS") {
		not := p.keyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: left, Not: not}, nil
	}
	if !p.keyword("IN") {
		return left, nil
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var set []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		set = append(set, e)
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &InList{X: left, Set: set}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.accept("+") {
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "+", L: left, R: r}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: "*", L: left, R: r}
		case p.accept("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: "/", L: left, R: r}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &Literal{Val: storage.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Literal{Val: storage.Int(i)}, nil
	case tokString:
		p.pos++
		return &Literal{Val: storage.Text(t.text)}, nil
	case tokSymbol:
		if t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		upper := strings.ToUpper(t.text)
		switch upper {
		case "NULL":
			p.pos++
			return &Literal{Val: storage.Null()}, nil
		case "TRUE":
			p.pos++
			return &Literal{Val: storage.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Val: storage.Bool(false)}, nil
		}
		if reservedWords[upper] {
			return nil, p.errf("unexpected keyword %q in expression", t.text)
		}
		// Function call?
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			if _, ok := builtins[upper]; !ok {
				return nil, p.errf("unknown function %s", t.text)
			}
			p.pos += 2
			fc := &FuncCall{Name: upper}
			if p.accept("*") {
				fc.Star = true
			} else if !p.accept(")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, e)
					if p.accept(",") {
						continue
					}
					break
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if fc.Star {
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Column reference, possibly qualified.
		p.pos++
		if p.accept(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Column: col}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}
