package dl

import (
	"fmt"
	"testing"
	"unicode/utf8"
)

// FuzzDLParse: Parse never panics; an accepted expression's rendering parses
// back to the same rendering; and every concept, role and individual it
// mentions is made of name runes only — a stray character is refused, never
// read as a name. Seeded with the served benchmark's targets, the paper's
// Table 1 rules and TestParseRoundTrip's inputs.
//
//	go test -run '^$' -fuzz FuzzDLParse -fuzztime 30s ./internal/dl/
func FuzzDLParse(f *testing.F) {
	f.Add("TvProgram")
	for g := 0; g < 12; g++ {
		genre := fmt.Sprintf("TvProgram AND EXISTS hasGenre.{genre%02d}", g)
		f.Add(genre)
		for s := 0; s < 6; s++ {
			f.Add(fmt.Sprintf("%s AND EXISTS hasSubject.{subject%d}", genre, s))
		}
	}
	for _, s := range []string{
		"Weekend", "TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}",
		"Breakfast", "TvProgram AND EXISTS hasSubject.{News}",
		"TOP", "BOTTOM", "NOT Weekend", "A AND B AND C", "A OR (B AND C)",
		"EXISTS hasSubject.{News}", "EXISTS locatedIn.(Room AND EXISTS partOf.{Home})",
		"{alice, bob}", "NOT (A OR B)", "TvProgram AND NOT EXISTS hasGenre.{HORROR}",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		e, err := Parse(in)
		if err != nil {
			return
		}
		s := e.String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) rendered %q, which does not parse: %v", in, s, err)
		}
		if got := back.String(); got != s {
			t.Fatalf("Parse(%q) rendered %q, which renders again as %q", in, s, got)
		}
		sig := e.Signature()
		for _, names := range [][]string{sig.Concepts, sig.Roles, sig.Individuals} {
			for _, name := range names {
				if name == "" || !utf8.ValidString(name) {
					t.Fatalf("Parse(%q) accepted the name %q", in, name)
				}
				for _, r := range name {
					if !isNameRune(r) {
						t.Fatalf("Parse(%q) accepted the name %q, with %q in it", in, name, r)
					}
				}
			}
		}
	})
}
