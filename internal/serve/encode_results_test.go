package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"

	contextrank "repro"
)

// referenceResults is what encodeResults must write: json.Encoder's rendering
// of resultsJSON, without the trailing newline.
func referenceResults(t *testing.T, results []contextrank.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(resultsJSON(results)); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
}

// TestEncodeResultsMatchesEncoder: seeded random result lists — scores on
// both sides of every format switch, ids that need every kind of escape,
// explanations on and off, the empty list — encode to exactly the bytes
// json.Encoder writes for resultsJSON of the same list.
func TestEncodeResultsMatchesEncoder(t *testing.T) {
	scores := []float64{
		0, 1, 1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		5e-324, math.Nextafter(1, 0), 1e-7, 1.5e-9, 0.1, 0.5, 0.123456789,
		math.Copysign(0, -1), 1e21, math.Nextafter(1e21, 0), 3e-300,
	}
	ids := []string{
		"plain", "tv0042", `q"q`, `back\slash`, "a<b>&c", "tab\there",
		"nl\ncr\r", "bs\bff\f", "nul\x00ctl\x1f", "del\x7f", "l\u2028s\u2029",
		"Café", "日本", "bad\xffutf8", "cut\xe6\x97", "\xed\xa0\x80", "",
	}
	rules := []string{"R1", "R<2>", `R"3"`, "R 4"}
	rng := rand.New(rand.NewSource(1))
	check := func(results []contextrank.Result) {
		t.Helper()
		want := referenceResults(t, results)
		var got bytes.Buffer
		got.WriteString("prefix")
		if err := encodeResults(&got, results); err != nil {
			t.Fatalf("encodeResults: %v", err)
		}
		if g := got.Bytes()[len("prefix"):]; !bytes.Equal(g, want) {
			t.Fatalf("encodeResults wrote\n %s\nwant\n %s", g, want)
		}
	}
	check(nil)
	check([]contextrank.Result{})
	for _, s := range scores {
		check([]contextrank.Result{{ID: "x", Score: s}})
	}
	for _, id := range ids {
		check([]contextrank.Result{{ID: id, Score: 0.5}})
	}
	for round := 0; round < 2000; round++ {
		results := make([]contextrank.Result, rng.Intn(12))
		for i := range results {
			r := &results[i]
			switch rng.Intn(3) {
			case 0:
				r.Score = scores[rng.Intn(len(scores))]
			case 1:
				r.Score = math.Float64frombits(rng.Uint64() >> 2) // in [0, 2], mostly tiny
				if r.Score > 1 {
					r.Score = rng.Float64()
				}
			default:
				r.Score = rng.Float64()
			}
			r.ID = ids[rng.Intn(len(ids))]
			if rng.Intn(2) == 0 {
				r.ID += string(rune(rng.Intn(0x3000)))
			}
			switch rng.Intn(3) {
			case 0:
				r.Explanation = &core.Explanation{}
			case 1:
				r.Explanation = &core.Explanation{}
				for n := rng.Intn(3) + 1; n > 0; n-- {
					r.Explanation.Rules = append(r.Explanation.Rules, core.RuleContribution{
						Rule:        rules[rng.Intn(len(rules))],
						ContextProb: rng.Float64(),
						MemberProb:  rng.Float64(),
						Sigma:       rng.Float64(),
						Factor:      rng.Float64(),
						Pruned:      rng.Intn(4) == 0,
					})
				}
			}
		}
		check(results)
	}
}

// TestEncodeResultsRefusesNonFinite: a score json cannot represent is the
// encoder's own error, and nothing is written.
func TestEncodeResultsRefusesNonFinite(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		results := []contextrank.Result{{ID: "ok", Score: 0.5}, {ID: "bad", Score: s}}
		wantErr := json.NewEncoder(new(bytes.Buffer)).Encode(resultsJSON(results))
		var buf bytes.Buffer
		err := encodeResults(&buf, results)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("score %v: error %v, want %v", s, err, wantErr)
		}
		if buf.Len() != 0 {
			t.Errorf("score %v: wrote %q", s, buf.Bytes())
		}
	}
}
