package sql

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/storage"
)

// The access-path oracle. One byte string generates a small database (typed
// tables with NULLs, tombstones and compactions, views nested three deep), a
// random query over it and a point or IN predicate P on one of the query's
// output columns. It is built twice from the same bytes:
//
//   - indexed: random hash indexes, every predicate as written, P applied as
//     SELECT * FROM (query) x WHERE P — everything access.go does can fire;
//   - plain: no index anywhere and every pushable conjunct C written as
//     (C OR FALSE), which means the same and derives nothing — so the
//     executor scans, hashes and filters, and P is applied to its rows here in
//     Go.
//
// The two must return the same rows in the same order, and one must raise
// exactly when the other does. No second executor is kept for this: the
// reference is the same code with nothing to push and nothing to probe.

// gen draws the case from the byte string; an exhausted string draws zeros,
// which every choice below reads as "the plainest option".
type gen struct {
	data  []byte
	pos   int
	plain bool
	subs  int // subquery aliases handed out
}

func (g *gen) n(max int) int {
	if max <= 1 || g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b) % max
}

// chance is true pct times in a hundred, never once the bytes ran out.
func (g *gen) chance(pct int) bool { return g.n(100) >= 100-pct }

type genCol struct {
	name string
	typ  storage.Type
}

type genSource struct {
	name string
	cols []genCol
	max  int // upper bound on its rows
}

// maxJoinedRows caps the product of a FROM clause's row bounds, so that cross
// joins of views of cross joins stay small.
const maxJoinedRows = 1500

var genTypes = []storage.Type{storage.TypeText, storage.TypeInt, storage.TypeFloat, storage.TypeEvent, storage.TypeText, storage.TypeInt, storage.TypeText}

// value draws a value of the type from a small domain, so that joins and
// predicates hit; the domains include the values on which = and key equality
// part ways (negative zero, NaN, integers past 2^53).
func (g *gen) value(t storage.Type) storage.Value {
	if g.chance(8) {
		return storage.Null()
	}
	switch t {
	case storage.TypeText:
		return storage.Text(string(rune('a' + g.n(3))))
	case storage.TypeInt:
		return storage.Int([]int64{1, 2, 0, 1, 2, 1<<53 + 1, 1 << 53}[g.n(7)])
	case storage.TypeFloat:
		return storage.Float([]float64{1, 2, 0, 1, 2, 1.5, math.Copysign(0, -1), 1 << 53, math.NaN()}[g.n(9)])
	case storage.TypeBool:
		return storage.Bool(g.n(2) == 1)
	case storage.TypeEvent:
		e := event.Basic(fmt.Sprintf("e%d", g.n(4)))
		if g.chance(25) {
			e = event.Not(e)
		}
		return storage.Event(e)
	}
	return storage.Null()
}

// literal draws a literal to compare a column of type t with: mostly of a
// comparable type (INT and FLOAT cross over), sometimes not, sometimes NULL.
func (g *gen) literal(t storage.Type) Expr {
	switch {
	case g.chance(3):
		t = genTypes[g.n(len(genTypes))]
	case t == storage.TypeInt && g.chance(30):
		t = storage.TypeFloat
	case t == storage.TypeFloat && g.chance(30):
		t = storage.TypeInt
	}
	if t == storage.TypeEvent {
		t = storage.TypeText
	}
	v := g.value(t)
	if (v.T == storage.TypeInt || v.T == storage.TypeFloat) && g.chance(10) {
		return &Unary{Op: "-", X: &Literal{Val: v}} // how the parser reads -1
	}
	return &Literal{Val: v}
}

// build creates the tables and views in ex and returns them as sources.
func (g *gen) build(t *testing.T, ex *Executor, cat *storage.Catalog) []genSource {
	var sources []genSource
	for ti := 0; ti < 3; ti++ {
		src := genSource{name: fmt.Sprintf("t%d", ti)}
		cols := make([]storage.Column, 2+g.n(3))
		for j := range cols {
			typ := genTypes[g.n(len(genTypes))]
			if j == 0 && g.chance(60) {
				typ = storage.TypeText
			}
			cols[j] = storage.Column{Name: fmt.Sprintf("c%d", j), Type: typ}
			src.cols = append(src.cols, genCol{cols[j].Name, typ})
		}
		schema, err := storage.NewSchema(cols...)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := cat.Create(src.name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cols {
			if indexed := g.chance(75); indexed && !g.plain {
				if err := tab.CreateIndex(c.Name); err != nil {
					t.Fatal(err)
				}
			}
		}
		insert := func(n int) {
			src.max += n
			for i := 0; i < n; i++ {
				row := make(storage.Row, len(cols))
				for j, c := range cols {
					row[j] = g.value(c.Type)
					if c.Type == storage.TypeFloat && g.chance(20) {
						row[j] = g.value(storage.TypeInt) // coerced on the way in
					}
				}
				if err := tab.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
		}
		insert(4 + g.n(10))
		// Tombstones, and past one half of the heap a compaction.
		for m := g.n(3); m > 0; m-- {
			j := g.n(len(cols))
			v := g.value(cols[j].Type)
			switch g.n(3) {
			case 0:
				if _, err := tab.DeleteKey(cols[j].Name, v); err != nil {
					t.Fatal(err)
				}
			case 1:
				tab.Delete(func(r storage.Row) bool { return storage.Equal(r[j], v) })
			case 2:
				w := g.value(cols[j].Type)
				if _, err := tab.Update(
					func(r storage.Row) bool { return storage.Equal(r[j], v) },
					func(r storage.Row) (storage.Row, error) { r[j] = w; return r, nil },
				); err != nil {
					t.Fatal(err)
				}
			}
		}
		insert(g.n(6))
		sources = append(sources, src)
	}
	for vi := 0; vi < 3; vi++ {
		sel, out, max := g.selectStmt(sources, 1)
		name := fmt.Sprintf("v%d", vi)
		if _, err := ex.ExecStmt(&CreateViewStmt{Name: name, Query: sel}); err != nil {
			t.Fatal(err)
		}
		// Later queries lean towards the views, so they nest.
		sources = append(sources, genSource{name, out, max}, genSource{name, out, max})
	}
	return sources
}

// pushable writes a conjunct the executor may derive a set or an equality
// edge from — as written for the indexed build, disarmed for the plain one.
func (g *gen) pushable(x Expr) Expr {
	if g.plain {
		return &Binary{Op: "OR", L: x, R: &Literal{Val: storage.Bool(false)}}
	}
	return x
}

type scopedCol struct {
	ref *ColumnRef
	typ storage.Type
}

// predicate draws one WHERE/ON conjunct over the columns in scope.
func (g *gen) predicate(cols []scopedCol, depth int) Expr {
	c := cols[g.n(len(cols))]
	switch g.n(16) {
	case 0, 1, 2, 12, 13:
		if g.chance(25) {
			return g.pushable(&Binary{Op: "=", L: g.literal(c.typ), R: c.ref})
		}
		return g.pushable(&Binary{Op: "=", L: c.ref, R: g.literal(c.typ)})
	case 3, 4, 14, 15:
		set := make([]Expr, 1+g.n(3))
		for i := range set {
			set[i] = g.literal(c.typ)
		}
		in := &InList{X: c.ref, Set: set, Not: g.chance(10)}
		return g.pushable(in)
	case 5:
		// An equality edge; inert on the plain side, which has no sets, and
		// as written there so that an ON made of it picks the same join.
		return &Binary{Op: "=", L: c.ref, R: g.like(cols, c).ref}
	case 6:
		return &Binary{Op: []string{"<", "<=", "<>", ">"}[g.n(4)], L: c.ref, R: g.literal(c.typ)}
	case 7:
		return &IsNull{X: c.ref, Not: g.chance(50)}
	case 8:
		if depth < 2 {
			return &Binary{Op: "OR", L: g.predicate(cols, depth+1), R: g.predicate(cols, depth+1)}
		}
	case 9:
		if depth < 2 {
			return &Unary{Op: "NOT", X: g.predicate(cols, depth+1)}
		}
	case 10:
		// Raises on a zero (or non-numeric) column value.
		if c.typ != storage.TypeInt && c.typ != storage.TypeFloat {
			return &IsNull{X: c.ref}
		}
		return &Binary{Op: ">", L: &Binary{Op: "/", L: &Literal{Val: storage.Int(10)}, R: c.ref}, R: &Literal{Val: storage.Int(1)}}
	case 11:
		if c.typ == storage.TypeText || g.chance(10) {
			return &Like{X: c.ref, Pattern: &Literal{Val: storage.Text("%a%")}}
		}
	}
	return &Binary{Op: "<>", L: c.ref, R: g.literal(c.typ)}
}

// like picks a column of c's type when the scope has another one.
func (g *gen) like(cols []scopedCol, c scopedCol) scopedCol {
	start := g.n(len(cols))
	for i := range cols {
		o := cols[(start+i)%len(cols)]
		if o.typ == c.typ && o.ref != c.ref && !g.chance(5) {
			return o
		}
	}
	return cols[start]
}

// selectStmt draws a SELECT over the sources and describes its output and an
// upper bound on its rows.
func (g *gen) selectStmt(sources []genSource, depth int) (*SelectStmt, []genCol, int) {
	sel := &SelectStmt{Limit: -1}
	var scope []scopedCol
	bound := 1
	for i, n := 0, 1+g.n(3); i < n; i++ {
		ref := TableRef{Alias: fmt.Sprintf("a%d", i)}
		var cols []genCol
		var max int
		if depth < 3 && g.chance(15) {
			g.subs++
			ref.Alias = fmt.Sprintf("s%d", g.subs)
			ref.Subquery, cols, max = g.selectStmt(sources, depth+1)
		} else {
			src := sources[len(sources)-1-g.n(len(sources))]
			ref.Table, cols, max = src.name, src.cols, src.max
		}
		if i > 0 && bound*max > maxJoinedRows {
			break
		}
		bound *= max
		mine := make([]scopedCol, len(cols))
		for j, c := range cols {
			mine[j] = scopedCol{&ColumnRef{Table: ref.Alias, Column: c.name}, c.typ}
		}
		if i > 0 {
			switch ref.Join = JoinKind(g.n(3)); {
			case ref.Join == JoinCross:
			case g.chance(10):
				ref.On = g.predicate(append(scope[:len(scope):len(scope)], mine...), 0)
			default:
				r := mine[g.n(len(mine))]
				// As written on both sides: it picks the join algorithm, and
				// with no set to carry its equality edge is inert.
				ref.On = &Binary{Op: "=", L: g.like(scope, r).ref, R: r.ref}
				if g.chance(25) {
					ref.On = &Binary{Op: "AND", L: ref.On, R: g.predicate(append(scope[:len(scope):len(scope)], mine...), 0)}
				}
			}
		}
		sel.From = append(sel.From, ref)
		scope = append(scope, mine...)
	}
	if g.chance(40) {
		sel.Where = g.predicate(scope, 0)
		for g.chance(30) {
			sel.Where = &Binary{Op: "AND", L: sel.Where, R: g.predicate(scope, 0)}
		}
	}

	var out []genCol
	item := func(x Expr, typ storage.Type) {
		name := fmt.Sprintf("o%d", len(out))
		sel.Items = append(sel.Items, SelectItem{Expr: x, Alias: name})
		out = append(out, genCol{name, typ})
	}
	plainItem := func() {
		c := scope[g.n(len(scope))]
		switch {
		case g.chance(80):
			item(c.ref, c.typ)
		case c.typ == storage.TypeEvent:
			item(&FuncCall{Name: "EV_NOT", Args: []Expr{c.ref}}, storage.TypeEvent)
		case c.typ == storage.TypeText:
			item(&FuncCall{Name: "LOWER", Args: []Expr{c.ref}}, storage.TypeText)
		case g.chance(80):
			item(&Binary{Op: "+", L: c.ref, R: &Literal{Val: storage.Int(1)}}, c.typ)
		default:
			item(&Binary{Op: "/", L: &Literal{Val: storage.Int(6)}, R: c.ref}, c.typ) // may raise
		}
	}
	switch {
	case g.chance(25): // GROUP BY
		for i, n := 0, 1+g.n(2); i < n; i++ {
			c := scope[g.n(len(scope))]
			sel.GroupBy = append(sel.GroupBy, c.ref)
			item(c.ref, c.typ)
		}
		for i, n := 0, g.n(3); i < n; i++ {
			c := scope[g.n(len(scope))]
			switch g.n(5) {
			case 0:
				item(&FuncCall{Name: "COUNT", Star: true}, storage.TypeInt)
			case 1:
				item(&FuncCall{Name: []string{"MIN", "MAX"}[g.n(2)], Args: []Expr{c.ref}}, c.typ)
			case 2:
				if c.typ == storage.TypeInt || c.typ == storage.TypeFloat || g.chance(10) {
					item(&FuncCall{Name: "SUM", Args: []Expr{c.ref}}, c.typ) // raises on text
				}
			case 3:
				if c.typ == storage.TypeEvent || g.chance(10) {
					item(&FuncCall{Name: "EV_OR_AGG", Args: []Expr{c.ref}}, storage.TypeEvent) // raises on numbers
				}
			case 4:
				item(c.ref, c.typ) // the group's representative row
			}
		}
		if g.chance(20) {
			sel.Having = &Binary{Op: ">", L: &FuncCall{Name: "COUNT", Star: true}, R: &Literal{Val: storage.Int(int64(g.n(2)))}}
		}
	case g.chance(5): // global aggregate
		item(&FuncCall{Name: "COUNT", Star: true}, storage.TypeInt)
	case g.chance(15) && uniqueNames(scope):
		sel.Items = []SelectItem{{Star: true}}
		for _, c := range scope {
			out = append(out, genCol{c.ref.Column, c.typ})
		}
	default:
		for i, n := 0, 1+g.n(4); i < n; i++ {
			plainItem()
		}
	}
	sel.Distinct = g.chance(15)
	if g.chance(10) {
		sel.OrderBy = []OrderItem{{Expr: &ColumnRef{Column: out[g.n(len(out))].name}, Desc: g.chance(50)}}
	}
	limited := bound
	if g.chance(10) {
		sel.Limit = g.n(5)
		limited = sel.Limit
	}
	if depth < 3 && g.chance(15) && !sel.Items[0].Star {
		// UNION ALL lines its branches up by position: trim or pad the second
		// one to the first one's arity. ORDER BY and LIMIT belong to the last
		// branch in this grammar.
		rest, _, more := g.selectStmt(sources, depth+1)
		for rest.Union != nil || rest.Items[0].Star {
			rest, _, more = g.selectStmt(sources[:3], 3)
		}
		limited = bound + more
		for len(rest.Items) < len(sel.Items) {
			rest.Items = append(rest.Items, SelectItem{Expr: &Literal{}, Alias: fmt.Sprintf("o%d", len(rest.Items))})
		}
		rest.Items = rest.Items[:len(sel.Items)]
		sel.OrderBy, sel.Limit, sel.Union = nil, -1, rest
	}
	return sel, out, max(limited, 1)
}

// uniqueNames reports whether SELECT * over the scope names every output
// column differently — a consumer cannot refer to the others.
func uniqueNames(scope []scopedCol) bool {
	seen := make(map[string]bool, len(scope))
	for _, c := range scope {
		if seen[c.ref.Column] {
			return false
		}
		seen[c.ref.Column] = true
	}
	return true
}

func sameValue(a, b storage.Value) bool {
	if a.T != b.T {
		return false
	}
	if a.T == storage.TypeEvent {
		return a.Ev.String() == b.Ev.String()
	}
	return a.Key() == b.Key()
}

// accessCase is what one checked case exercised, for the generator's own
// health check.
type accessCase struct {
	rows    int
	raised  bool
	indexed bool
}

// checkAccessPaths runs one generated case both ways and compares.
func checkAccessPaths(t *testing.T, label string, data []byte) accessCase {
	t.Helper()
	type side struct {
		ex    *Executor
		query *SelectStmt
		out   []genCol
		probe Expr
	}
	var sides [2]side
	for i := range sides {
		g := &gen{data: data, plain: i == 1}
		cat := storage.NewCatalog()
		ex := NewExecutor(cat, &Runtime{Space: event.NewSpace()})
		sources := g.build(t, ex, cat)
		q, out, _ := g.selectStmt(sources, 0)
		// The probe is never disarmed: the plain side applies it in Go.
		g.plain = false
		col := out[g.n(len(out))]
		ref := &ColumnRef{Table: "x", Column: col.name}
		var probe Expr
		if g.chance(50) {
			probe = &Binary{Op: "=", L: ref, R: g.literal(col.typ)}
		} else {
			set := make([]Expr, 1+g.n(3))
			for j := range set {
				set[j] = g.literal(col.typ)
			}
			probe = &InList{X: ref, Set: set}
		}
		sides[i] = side{ex, q, out, probe}
	}
	indexed, plain := sides[0], sides[1]

	got, gotErr := indexed.ex.ExecStmt(&SelectStmt{
		Items: []SelectItem{{Star: true}},
		From:  []TableRef{{Subquery: indexed.query, Alias: "x"}},
		Where: indexed.probe,
		Limit: -1,
	})
	_, usedIndex := indexed.ex.RowsRead()

	want, wantErr := plain.ex.ExecStmt(plain.query)
	if wantErr == nil {
		cols := make([]binding, len(want.Cols))
		for i, c := range want.Cols {
			cols[i] = binding{table: "x", column: c}
		}
		e := &env{cols: cols, rt: plain.ex.rt}
		kept := want.Rows[:0:0]
		for _, r := range want.Rows {
			ok, err := e.truth(plain.probe, r)
			if err != nil {
				wantErr = err
				break
			}
			if ok {
				kept = append(kept, r)
			}
		}
		want.Rows = kept
	}

	describe := func() string {
		for _, name := range indexed.ex.ViewNames() {
			def, _ := indexed.ex.ViewDefinition(name)
			label += fmt.Sprintf("\nview %s: %s", name, Format(def))
		}
		return fmt.Sprintf("%s\nquery:  %s\nprobe:  %s\nplain:  %s", label, Format(indexed.query), exprString(indexed.probe), Format(plain.query))
	}
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("with access paths: err %v\nscanned and filtered: err %v\n%s", gotErr, wantErr, describe())
	}
	if gotErr != nil {
		return accessCase{raised: true, indexed: usedIndex > 0}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d rows with access paths, %d scanned and filtered\n%s", len(got.Rows), len(want.Rows), describe())
	}
	for i, r := range got.Rows {
		for j := range r {
			if !sameValue(r[j], want.Rows[i][j]) {
				t.Fatalf("row %d column %d: %v with access paths, %v scanned and filtered\n%s", i, j, r[j], want.Rows[i][j], describe())
			}
		}
	}
	return accessCase{rows: len(got.Rows), indexed: usedIndex > 0}
}

func exprString(x Expr) string {
	return Format(&SelectStmt{Items: []SelectItem{{Expr: x}}, Limit: -1})
}

// TestAccessPathsMatchScanAndFilter is the seeded sweep of the oracle. It also
// holds the generator to account: a sweep in which few cases returned rows,
// raised or read an index would pass without testing anything.
func TestAccessPathsMatchScanAndFilter(t *testing.T) {
	cases := 4000
	if testing.Short() {
		cases = 600
	}
	var withRows, raised, indexed, indexedWithRows int
	for seed := 1; seed <= cases; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 400)
		rng.Read(data)
		c := checkAccessPaths(t, fmt.Sprintf("seed %d", seed), data)
		if c.rows > 0 {
			withRows++
		}
		if c.raised {
			raised++
		}
		if c.indexed {
			indexed++
			if c.rows > 0 {
				indexedWithRows++
			}
		}
	}
	t.Logf("%d cases: %d returned rows, %d raised, %d read an index (%d of them returned rows)",
		cases, withRows, raised, indexed, indexedWithRows)
	if withRows*10 < cases || raised*20 < cases || indexedWithRows*20 < cases {
		t.Errorf("the generator no longer exercises the access paths: see the counts above")
	}
}

// FuzzAccessPaths is the same oracle under go test -fuzz; plain go test runs
// the committed corpus in testdata/fuzz/FuzzAccessPaths.
func FuzzAccessPaths(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAccessPaths(t, "fuzz input", data)
	})
}
