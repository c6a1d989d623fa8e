package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/event"
	"repro/internal/storage"
)

// snapshot is the JSON shape of a dumped database: the event space (basic
// declarations with exclusive-group structure), every base table with typed
// rows, and every view as the SQL text that defined it.
type snapshot struct {
	Version int          `json:"version"`
	Events  []event.Decl `json:"events,omitempty"`
	Tables  []tableDump  `json:"tables,omitempty"`
	Views   []viewDump   `json:"views,omitempty"`
	Indexes []indexDump  `json:"indexes,omitempty"`
}

type tableDump struct {
	Name    string       `json:"name"`
	Columns []columnDump `json:"columns"`
	Rows    [][]cellDump `json:"rows"`
}

type columnDump struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type cellDump struct {
	T string `json:"t"`           // type tag: N, I, F, S, B, E
	V string `json:"v,omitempty"` // textual value; events use event.Parse syntax
}

type viewDump struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

type indexDump struct {
	Table  string `json:"table"`
	Column string `json:"column"`
}

const snapshotVersion = 1

// Omit is what Dump leaves out of a database: the rows whose table (by
// the name the catalog gives it) and first column match an entry of Rows,
// and the basic events named in Events. The zero value leaves out nothing.
type Omit struct {
	Rows   map[string]map[string]bool // table -> first-column values
	Events map[string]bool
}

// Dump serializes the whole database (event space, tables, views, indexes)
// minus what omit names, as JSON to w. The format round-trips through
// Restore. A view is written as the SELECT text it was created from.
func (db *DB) Dump(w io.Writer, omit Omit) error {
	snap := snapshot{Version: snapshotVersion}
	for _, name := range db.catalog.Names() {
		tab, err := db.catalog.Get(name)
		if err != nil {
			return err
		}
		schema := tab.Schema()
		td := tableDump{Name: name}
		for _, c := range schema.Columns {
			td.Columns = append(td.Columns, columnDump{Name: c.Name, Type: c.Type.String()})
			if tab.HasIndex(c.Name) {
				snap.Indexes = append(snap.Indexes, indexDump{Table: name, Column: c.Name})
			}
		}
		skip := omit.Rows[name]
		err = tab.Scan(func(r storage.Row) error {
			if skip != nil && skip[r[0].S] {
				return nil
			}
			row := make([]cellDump, len(r))
			for i, v := range r {
				c, err := dumpCell(v)
				if err != nil {
					return fmt.Errorf("engine: table %s: %w", name, err)
				}
				row[i] = c
			}
			td.Rows = append(td.Rows, row)
			return nil
		})
		if err != nil {
			return err
		}
		snap.Tables = append(snap.Tables, td)
	}
	for _, name := range db.exec.ViewNames() {
		if text, ok := db.exec.ViewText(name); ok {
			snap.Views = append(snap.Views, viewDump{Name: name, SQL: text})
		}
	}
	for _, d := range db.space.Decls() {
		if !omit.Events[d.Name] {
			snap.Events = append(snap.Events, d)
		}
	}
	return json.NewEncoder(w).Encode(&snap)
}

func dumpCell(v storage.Value) (cellDump, error) {
	switch v.T {
	case storage.TypeNull:
		return cellDump{T: "N"}, nil
	case storage.TypeInt:
		return cellDump{T: "I", V: v.String()}, nil
	case storage.TypeFloat:
		return cellDump{T: "F", V: v.String()}, nil
	case storage.TypeText:
		return cellDump{T: "S", V: v.S}, nil
	case storage.TypeBool:
		return cellDump{T: "B", V: v.String()}, nil
	case storage.TypeEvent:
		return cellDump{T: "E", V: v.Ev.String()}, nil
	}
	return cellDump{}, fmt.Errorf("undumpable value type %s", v.T)
}

func loadCell(c cellDump) (storage.Value, error) {
	switch c.T {
	case "N":
		return storage.Null(), nil
	case "I":
		var i int64
		if _, err := fmt.Sscanf(c.V, "%d", &i); err != nil {
			return storage.Value{}, fmt.Errorf("engine: bad INT %q", c.V)
		}
		return storage.Int(i), nil
	case "F":
		var f float64
		if _, err := fmt.Sscanf(c.V, "%g", &f); err != nil {
			return storage.Value{}, fmt.Errorf("engine: bad FLOAT %q", c.V)
		}
		return storage.Float(f), nil
	case "S":
		return storage.Text(c.V), nil
	case "B":
		return storage.Bool(c.V == "TRUE"), nil
	case "E":
		ev, err := event.Parse(c.V)
		if err != nil {
			return storage.Value{}, fmt.Errorf("engine: bad EVENT %q: %w", c.V, err)
		}
		return storage.Event(ev), nil
	}
	return storage.Value{}, fmt.Errorf("engine: unknown cell tag %q", c.T)
}

// Restore loads a snapshot produced by Dump into a fresh database. It
// fails if the receiving database already has tables or views (restores
// never merge).
func (db *DB) Restore(r io.Reader) error {
	if len(db.catalog.Names()) > 0 || len(db.exec.ViewNames()) > 0 {
		return fmt.Errorf("engine: restore requires an empty database")
	}
	var snap snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("engine: reading snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("engine: snapshot version %d unsupported (want %d)", snap.Version, snapshotVersion)
	}
	// Events: replay exclusive groups first, then singles.
	byGroup := make(map[int][]event.Decl)
	var groupOrder []int
	for _, d := range snap.Events {
		if d.Group == -1 {
			if err := db.space.Declare(d.Name, d.Prob); err != nil {
				return err
			}
			continue
		}
		if _, ok := byGroup[d.Group]; !ok {
			groupOrder = append(groupOrder, d.Group)
		}
		byGroup[d.Group] = append(byGroup[d.Group], d)
	}
	sort.Ints(groupOrder)
	for _, g := range groupOrder {
		names := make([]string, len(byGroup[g]))
		probs := make([]float64, len(byGroup[g]))
		for i, d := range byGroup[g] {
			names[i], probs[i] = d.Name, d.Prob
		}
		if err := db.space.DeclareExclusive(names, probs); err != nil {
			return err
		}
	}
	// Tables.
	for _, td := range snap.Tables {
		cols := make([]storage.Column, len(td.Columns))
		for i, c := range td.Columns {
			typ, err := storage.TypeFromName(c.Type)
			if err != nil {
				return fmt.Errorf("engine: table %s: %w", td.Name, err)
			}
			cols[i] = storage.Column{Name: c.Name, Type: typ}
		}
		schema, err := storage.NewSchema(cols...)
		if err != nil {
			return err
		}
		tab, err := db.catalog.Create(td.Name, schema)
		if err != nil {
			return err
		}
		for _, rd := range td.Rows {
			row := make(storage.Row, len(rd))
			for i, c := range rd {
				v, err := loadCell(c)
				if err != nil {
					return err
				}
				row[i] = v
			}
			if err := tab.Insert(row); err != nil {
				return err
			}
		}
	}
	// Indexes.
	for _, ix := range snap.Indexes {
		tab, err := db.catalog.Get(ix.Table)
		if err != nil {
			return err
		}
		if err := tab.CreateIndex(ix.Column); err != nil {
			return err
		}
	}
	// Views (their defining SELECT text replays through the normal DDL path).
	for _, vd := range snap.Views {
		if _, err := db.Exec(fmt.Sprintf("CREATE VIEW %s AS %s", vd.Name, vd.SQL)); err != nil {
			return fmt.Errorf("engine: restoring view %s: %w", vd.Name, err)
		}
	}
	return nil
}
