package journal

import (
	"encoding/json"
	"testing"
)

// TestRecordWireFormatPinned pins the on-disk record encoding: one
// representative record per op, compared against literal bytes captured
// from the commit before the serving layer moved to a single
// Apply(Record) mutation path. A WAL written by any earlier build must
// keep replaying, so a diff here is a format break, not a test to update.
func TestRecordWireFormatPinned(t *testing.T) {
	thr := 0.25
	cases := []struct {
		rec  Record
		want string
	}{
		{Record{Op: OpSet, Seq: 1, User: "peter", Measurements: []Measurement{{Concept: "Weekend", Prob: 0.8}, {Concept: "Kitchen", Individual: "peter", Prob: 0.6, Exclusive: "loc", Source: "beacon"}}, Fingerprint: "70fb6e12427b713f", Epoch: 3},
			`{"op":1,"seq":1,"user":"peter","ms":[{"c":"Weekend","p":0.8},{"c":"Kitchen","i":"peter","p":0.6,"x":"loc","s":"beacon"}],"fp":"70fb6e12427b713f","epoch":3}`},
		{Record{Op: OpDrop, Seq: 2, User: "peter", Epoch: 3},
			`{"op":2,"seq":2,"user":"peter","epoch":3}`},
		{Record{Op: OpDeclare, Seq: 3, BID: 4, Epoch: 4, Concepts: []string{"TvProgram", "Weekend"}, Roles: []string{"hasGenre"}, Subs: []SubDecl{{Sub: "Documentary", Super: "TvProgram"}}},
			`{"op":3,"seq":3,"bid":4,"epoch":4,"concepts":["TvProgram","Weekend"],"roles":["hasGenre"],"subs":[{"sub":"Documentary","super":"TvProgram"}]}`},
		{Record{Op: OpAssert, Seq: 4, BID: 5, Epoch: 5, ConceptAsserts: []ConceptAssert{{Concept: "TvProgram", ID: "Oprah", Prob: 1}}, RoleAsserts: []RoleAssert{{Role: "hasGenre", Src: "Oprah", Dst: "HUMAN-INTEREST", Prob: 0.85}}},
			`{"op":4,"seq":4,"bid":5,"epoch":5,"cas":[{"c":"TvProgram","id":"Oprah","p":1}],"ras":[{"r":"hasGenre","src":"Oprah","dst":"HUMAN-INTEREST","p":0.85}]}`},
		{Record{Op: OpAddRules, Seq: 5, BID: 6, Epoch: 6, Rules: []string{"RULE R1 WHEN Weekend PREFER TvProgram WITH 0.8"}},
			`{"op":5,"seq":5,"bid":6,"epoch":6,"rules":["RULE R1 WHEN Weekend PREFER TvProgram WITH 0.8"]}`},
		{Record{Op: OpRemoveRule, Seq: 6, BID: 7, Epoch: 7, Rule: "R1"},
			`{"op":6,"seq":6,"bid":7,"epoch":7,"rule":"R1"}`},
		{Record{Op: OpExec, Seq: 7, Epoch: 8, Stmt: "CREATE TABLE scratch (id TEXT)"},
			`{"op":7,"seq":7,"epoch":8,"stmt":"CREATE TABLE scratch (id TEXT)"}`},
		{Record{Op: OpSubscribe, Seq: 8, User: "peter", Epoch: 8, SubID: "sub-1", Subscription: &SubSpec{Target: "TvProgram", Candidates: []string{"Oprah"}, TopK: 2, Limit: 5, Threshold: &thr}},
			`{"op":8,"seq":8,"user":"peter","epoch":8,"sid":"sub-1","subn":{"target":"TvProgram","cands":["Oprah"],"top_k":2,"limit":5,"threshold":0.25}}`},
		{Record{Op: OpUnsubscribe, Seq: 9, User: "peter", Epoch: 8, SubID: "sub-1", Preserved: true},
			`{"op":9,"seq":9,"user":"peter","epoch":8,"sid":"sub-1","preserved":true}`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("op %d encodes as\n  %s\nwant\n  %s", tc.rec.Op, got, tc.want)
		}
	}
}
