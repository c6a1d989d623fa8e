package sql

import "repro/internal/storage"

// Statement is any parsed SQL statement.
type Statement interface{ isStatement() }

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type storage.Type
}

// CreateTableStmt is CREATE TABLE name (col type, …).
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// CreateViewStmt is CREATE [OR REPLACE] VIEW name AS select. Text is the
// select as the source spelled it, from SELECT through its last token.
type CreateViewStmt struct {
	Name      string
	OrReplace bool
	Query     *SelectStmt
	Text      string
}

// DropViewStmt is DROP VIEW [IF EXISTS] name.
type DropViewStmt struct {
	Name     string
	IfExists bool
}

// CreateIndexStmt is CREATE INDEX ON table (column).
type CreateIndexStmt struct {
	Table  string
	Column string
}

// InsertStmt is INSERT INTO table [(cols…)] VALUES (…), (…).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// DeleteStmt is DELETE FROM table [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// Assignment is one SET column = expr pair of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE table SET col = expr, … [WHERE expr].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

// SelectItem is one projection item; Star means "*" or "alias.*".
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	Table string // qualifier for "table.*"; empty for bare "*"
}

// JoinKind distinguishes FROM-clause join operators.
type JoinKind uint8

// Join kinds.
const (
	JoinCross JoinKind = iota // comma or first table
	JoinInner
	JoinLeft
)

// TableRef is one FROM-clause source: a base table, a view, or a derived
// subquery, with an optional alias and the join operator connecting it to
// the sources before it.
type TableRef struct {
	Table    string
	Subquery *SelectStmt
	Alias    string
	Join     JoinKind
	On       Expr // nil for cross joins
}

// Name returns the binding name of the reference (alias, else table name).
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query, optionally chained with UNION ALL.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Union    *SelectStmt
}

func (*CreateTableStmt) isStatement() {}
func (*DropTableStmt) isStatement()   {}
func (*CreateViewStmt) isStatement()  {}
func (*DropViewStmt) isStatement()    {}
func (*CreateIndexStmt) isStatement() {}
func (*InsertStmt) isStatement()      {}
func (*DeleteStmt) isStatement()      {}
func (*UpdateStmt) isStatement()      {}
func (*SelectStmt) isStatement()      {}

// Expr is a SQL scalar expression.
type Expr interface{ isExpr() }

// Literal is a constant value.
type Literal struct{ Val storage.Value }

// ColumnRef is [table.]column.
type ColumnRef struct {
	Table  string
	Column string
}

// Unary is -x or NOT x.
type Unary struct {
	Op string // "-", "NOT"
	X  Expr
}

// Binary is a binary operation; Op one of + - * / % = <> < <= > >= AND OR.
type Binary struct {
	Op   string
	L, R Expr
}

// FuncCall is name(args…); Star marks COUNT(*).
type FuncCall struct {
	Name string // canonical upper case
	Args []Expr
	Star bool
}

// InList is x IN (e1, …) or x NOT IN (…).
type InList struct {
	X   Expr
	Not bool
	Set []Expr
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// Like is x [NOT] LIKE 'pattern' with % (any run) and _ (any one char).
type Like struct {
	X       Expr
	Not     bool
	Pattern Expr
}

// CaseExpr is CASE WHEN c THEN v … [ELSE e] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*Literal) isExpr()   {}
func (*ColumnRef) isExpr() {}
func (*Unary) isExpr()     {}
func (*Binary) isExpr()    {}
func (*FuncCall) isExpr()  {}
func (*InList) isExpr()    {}
func (*IsNull) isExpr()    {}
func (*Like) isExpr()      {}
func (*CaseExpr) isExpr()  {}
