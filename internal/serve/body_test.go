package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	contextrank "repro"
)

// referenceBody is the request-body decoder readBody replaced, kept as its
// reference: encoding/json with unknown fields refused, then a check that
// nothing but white space follows the value.
func referenceBody(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	return err
}

// bodyTypes makes a fresh value of each request type a route reads.
var bodyTypes = []func() fielder{
	func() fielder { return new(declareRequest) },
	func() fielder { return new(assertRequest) },
	func() fielder { return new(rulesRequest) },
	func() fielder { return new(sessionRequest) },
	func() fielder { return new(rankRequest) },
	func() fielder { return new(rankBatchRequest) },
	func() fielder { return new(subscribeRequest) },
	func() fielder { return new(sqlRequest) },
	func() fielder { return new(chaosArmRequest) },
}

// FuzzRequestBody holds readBody to encoding/json on every request type:
// the two accept the same bodies and fill the same values, and where the
// reference refuses an unknown field or trailing data, the message is the
// same.
func FuzzRequestBody(f *testing.F) {
	for _, seed := range []string{
		// Escapes, surrogate pairs, lone and reversed surrogates.
		`{"user":"a\"b\\c\/d\b\f\n\r\t\u00e9\uD83D\ude00","target":"\ud800x\udc00\ud800\ud800\u0041"}`,
		`{"sql":"\ud83d\u00e9","rules":["\uDBFF\uDFFF","\ud800\"]}`,
		`{"sql":"\x"}`, `{"sql":"\u12G4"}`, "{\"sql\":\"a\tb\"}", `{"sql":"\u00`,
		// Invalid UTF-8, in values and in keys; an encoded surrogate.
		"{\"sql\":\"\xff\xfe\xed\xa0\x80\xc3\"}", "{\"us\xffer\":\"a\"}", "{\"sql\":\"é\"}",
		// Case-folded keys, the U+017F (s) and U+212A (k) folds among them.
		`{"USER":"a","Target":"T","LIMIT":3,"TOP_K":1,"ExPlAiN":true}`,
		"{\"top_\u212a\":1,\"\u017fql\":\"x\",\"u\u017fer\":\"u\",\"ta\u212aget\":\"t\"}",
		`{"ſql":"x","ruleſ":["a"],"meaſurementſ":[{"conceptſ":"c"}]}`,
		`{"top_k":2,"top_\u212a":3,"\u017fql":"y","ſubconcepts":[{"ſub":"a","ſuper":"b"}]}`,
		`{"user":"a","uſer":"b","ıd":"c","İd":"d"}`,
		// Duplicate keys: a later value overwrites, an array reuses elements.
		`{"user":"a","user":"b","top_k":1,"top_k":null,"limit":2,"limit":null}`,
		`{"rules":["a","b","c"],"rules":["d"],"rules":[null,null,"e"],"rules":[]}`,
		`{"measurements":[{"concept":"a","prob":1},{"concept":"b","source":"s"}],"measurements":[{"prob":2}],"measurements":[{},{"exclusive":"x"}]}`,
		`{"items":[{"target":"T","top_k":1},{"candidates":["a","b"]}],"items":[null,{"candidates":["c"]}]}`,
		`{"concepts":[{"concept":"C","id":"i","prob":0.5}],"concepts":[{"id":"j"}],"roles":[{"role":"r","src":"s","dst":"d","prob":1}]}`,
		// null at every level.
		`null`, ` null `, `{"user":null,"target":null,"top_k":null,"threshold":null,"explain":null}`,
		`{"measurements":null,"items":[null],"concepts":[null,{"concept":null,"prob":null}],"subconcepts":[null]}`,
		`{"faults":[{"point":"rank.serve","shard":null,"torn":null,"rate":null,"nth":null}]}`,
		// Unknown fields at every depth, and inside skipped values.
		`{"x":1}`, `{"user":"a","x":{"y":[1,{"z":null}]}}`, `{"items":[{"target":"T","x":[]}]}`,
		`{"measurements":[{"concept":"a","bogus":1}]}`, `{"faults":[{"point":"p","nope":true}]}`,
		`{"user":{"x":1},"y":2}`, `{"subconcepts":[{"sub":"a","x":{}}]}`,
		// Numbers into int and float fields.
		`{"limit":-0,"threshold":-0}`, `{"limit":01}`, `{"limit":1.0}`, `{"limit":1e2}`, `{"limit":1e400}`,
		`{"threshold":1.0}`, `{"threshold":1e2}`, `{"threshold":1e400}`, `{"threshold":-1.5e-400}`,
		`{"limit":9223372036854775807,"top_k":-9223372036854775808}`, `{"limit":9223372036854775808}`,
		`{"threshold":0.1E+2,"limit":-1}`, `{"limit":1 ,"threshold":2.5e1 }`, `{"limit":- 1}`, `{"threshold":1 .5}`, `{"limit":-}`, `{"limit":1.}`, `{"limit":.5}`, `{"limit":+1}`,
		`{"faults":[{"delay_ms":1,"nth":2,"after":3,"count":4,"shard":5,"rate":0.5,"err":"EIO","panic":"p","match":"m","torn":true}]}`,
		// Values of the wrong type.
		`{"user":1}`, `{"limit":"1"}`, `{"explain":"true"}`, `{"rules":"a"}`, `{"items":{}}`,
		`{"measurements":[1]}`, `{"top_k":true}`, `{"top_k":[]}`, `{"threshold":false}`,
		// Top-level values other than an object.
		`[]`, `"x"`, `1`, `true`, ``, ` `, `nul`, `nullx`, `01`,
		// Trailing data.
		`{"user":"a"}{`, `{"user":"a"} {}`, `{}}`, `{} `, "{}\n\t\r ", `{"x":1}{`,
		// Syntax errors.
		`{"user":"a",}`, `{,}`, `{"user" "a"}`, `{"user":"a"`, `{"rules":["a",]}`, `{"rules":["a" "b"]}`,
		`{"explain":tru}`, `{"explain":truex}`, `{"user":"a"]`, `[[[[[[[[[[]]]]]]]]]]`, `{"x":[[[[[{}]]]]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, fresh := range bodyTypes {
			want, got := fresh(), fresh()
			wantErr, gotErr := referenceBody(body, want), readBody(slices.Clip(body), got)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%T %q: encoding/json says %v, readBody %v", want, body, wantErr, gotErr)
			}
			if wantErr != nil {
				msg := wantErr.Error()
				if (strings.HasPrefix(msg, "json: unknown field ") || msg == "trailing data after the JSON value") && gotErr.Error() != msg {
					t.Fatalf("%T %q: encoding/json says %q, readBody %q", want, body, msg, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%T %q:\nencoding/json %+v\nreadBody      %+v", want, body, want, got)
			}
		}
	})
}

// TestBodyBound: a body of maxBodyBytes is read, and one byte more is a 400
// on the rank and the session routes, with nothing applied.
func TestBodyBound(t *testing.T) {
	srv := NewServer(contextrank.NewSystem(), Options{})
	ts := httptest.NewServer(NewHandlerFor(srv))
	defer ts.Close()
	call(t, ts, "POST", "/v1/declare", `{"concepts":["TvProgram"]}`, http.StatusOK, nil)

	// padded spaces out the object body to n bytes before its closing brace.
	padded := func(body string, n int) string {
		return body[:len(body)-1] + strings.Repeat(" ", n-len(body)) + "}"
	}
	routes := []struct{ method, path, body string }{
		{"PUT", "/v1/sessions/p/context", `{"measurements":[{"concept":"Ctx","prob":0.9}]}`},
		{"POST", "/v1/rank", `{"user":"p","target":"TvProgram"}`},
	}
	for _, c := range routes {
		var e errorResponse
		call(t, ts, c.method, c.path, padded(c.body, maxBodyBytes+1), http.StatusBadRequest, &e)
		if e.Code != "bad_request" || !strings.Contains(e.Error, "too large") {
			t.Errorf("%s %s past the bound: %+v", c.method, c.path, e)
		}
	}
	call(t, ts, "GET", "/v1/sessions/p", "", http.StatusNotFound, nil)
	for _, c := range routes {
		call(t, ts, c.method, c.path, padded(c.body, maxBodyBytes), http.StatusOK, nil)
	}
	call(t, ts, "GET", "/v1/sessions/p", "", http.StatusOK, nil)
}
