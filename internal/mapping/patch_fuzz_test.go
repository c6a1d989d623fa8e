package mapping_test

import (
	"fmt"
	"testing"

	"repro/internal/event"
	"repro/internal/situation"
)

// FuzzMembershipPatch decodes an op string — three bytes an op: kind and two
// operands — into a history over the memo oracle's vocabulary: loader writes
// the memo can patch across, writes it cannot (SQL, ClearConcept, a dropped
// table), and look-ups in between, so the fuzzer chooses how many writes of
// which kinds pile up under each handle. Every look-up must equal the
// un-memoized query of the same view and take exactly one of the three paths;
// the history ends with a look-up of everything.
func FuzzMembershipPatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x07\x00\x00\x00\x00\x01\x02\x03\x04\x07\x00\x00"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		o := newMemoOracle(t)
		l := o.l
		inds := []string{"x0", "x1", "x2", "x3", "x4", "x5", "hub", "n2"}
		concepts := []string{"A", "B", "C"}
		roles := []string{"r", "s"}
		fresh := 0
		ev := func(b byte) *event.Expr {
			if b&0x80 == 0 {
				return nil
			}
			return o.newEvent(0.05 + float64(b&0x7f)/140)
		}
		lookupAll := func(where string) {
			for i := range o.exprs {
				o.lookup(where, i)
			}
		}
		for n := 0; n+2 < len(ops); n += 3 {
			kind, a, b := ops[n]%11, ops[n+1], ops[n+2]
			where := fmt.Sprintf("op %d (%d %d %d)", n/3, kind, a, b)
			switch kind {
			case 0:
				o.must(l.AssertConcept(concepts[int(a)%3], inds[int(b)%8], ev(b)))
			case 1:
				o.must(l.RetractConcept(concepts[int(a)%3], inds[int(b)%8]))
			case 2:
				o.must(l.AssertRole(roles[a&1], inds[int(a>>1)%8], inds[int(b)%8], ev(b)))
			case 3:
				ctx := situation.New(inds[int(a)%8])
				switch b % 3 {
				case 1:
					ctx.Certain("Ctx")
				case 2:
					ctx.Add("Ctx", 0.05+float64(b)/280)
				}
				_, err := ctx.ApplyOwned(l)
				o.must(err)
			case 4:
				fresh++
				o.must(l.AssertConcept(concepts[int(a)%3], fmt.Sprintf("f%d", fresh), ev(b)))
			case 5:
				table, col := []string{"c_A", "c_B", "c_C", "r_r", "r_s"}[int(a)%5], "id"
				if a%5 >= 3 {
					col = []string{"src", "dst"}[int(a>>4)&1]
				}
				_, err := o.db.Exec(fmt.Sprintf("DELETE FROM %s WHERE %s = '%s'", table, col, inds[int(b)%8]))
				o.must(err)
			case 6:
				_, err := o.db.Exec(fmt.Sprintf("INSERT INTO c_%s (id, ev) VALUES ('%s', EV_TRUE())", concepts[int(a)%3], inds[int(b)%8]))
				o.must(err)
			case 7:
				o.must(l.ClearConcept(concepts[int(a)%3]))
			case 8:
				for _, stmt := range []string{"DROP TABLE c_C", "CREATE TABLE c_C (id TEXT, ev EVENT)"} {
					_, err := o.db.Exec(stmt)
					o.must(err)
				}
			case 9:
				o.lookup(where, int(a)%len(o.exprs))
			case 10:
				lookupAll(where)
			}
		}
		lookupAll("end")
	})
}
