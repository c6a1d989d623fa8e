package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"regexp"
)

// gatesJSON is the table of micro-gates CI holds every pull request to.
//
//go:embed gates.json
var gatesJSON []byte

// The three kinds of row.
const (
	// kindRegression compares the candidate run against the baseline: every
	// benchmark whose top-level name Pattern matches fails when its median
	// ns/op grew by more than Ns, or its median allocs/op by more than
	// Allocs (when given and both runs carry -benchmem columns).
	kindRegression = "regression"
	// kindCap holds the candidate's median allocs/op of one benchmark,
	// Name, to at most MaxAllocs; no baseline is needed.
	kindCap = "cap"
	// kindRatio compares two benchmarks of the candidate run: median ns/op
	// of Num over that of Den, minus one, may be at most Bound (a negative
	// bound demands a speed-up).
	kindRatio = "ratio"
)

// Gate is one row of gates.json. Names (Name, Num, Den) are full
// sub-benchmark names without the GOMAXPROCS suffix; Pattern is a
// -bench regular expression over top-level names. Thresholds are fractions:
// 0.20 is +20 %.
type Gate struct {
	Kind      string   `json:"kind"`
	Pattern   string   `json:"pattern,omitempty"`
	Ns        *float64 `json:"ns,omitempty"`
	Allocs    *float64 `json:"allocs,omitempty"`
	Name      string   `json:"name,omitempty"`
	MaxAllocs *float64 `json:"max_allocs,omitempty"`
	Num       string   `json:"num,omitempty"`
	Den       string   `json:"den,omitempty"`
	Bound     *float64 `json:"bound,omitempty"`
	// Reason says what the bound protects and why it sits where it does.
	Reason string `json:"reason"`

	re *regexp.Regexp // Pattern, compiled
}

// parseGates decodes a gates table and refuses a row that lacks what its
// kind needs, so a typo in the table fails the run instead of passing it.
func parseGates(data []byte) ([]Gate, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var gates []Gate
	if err := dec.Decode(&gates); err != nil {
		return nil, fmt.Errorf("gates table: %w", err)
	}
	for i := range gates {
		g := &gates[i]
		var ok bool
		switch g.Kind {
		case kindRegression:
			ok = g.Pattern != "" && g.Ns != nil
			if ok {
				var err error
				if g.re, err = regexp.Compile(g.Pattern); err != nil {
					return nil, fmt.Errorf("gates table row %d: %w", i, err)
				}
			}
		case kindCap:
			ok = g.Name != "" && g.MaxAllocs != nil && *g.MaxAllocs >= 0
		case kindRatio:
			ok = g.Num != "" && g.Den != "" && g.Bound != nil
		}
		if !ok || g.Reason == "" {
			return nil, fmt.Errorf("gates table row %d: incomplete %q row", i, g.Kind)
		}
	}
	return gates, nil
}
