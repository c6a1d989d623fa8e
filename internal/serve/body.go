package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// decodeBody reads the request body, at most maxBodyBytes, as exactly one
// JSON value into into (see readBody), and answers anything else with 400,
// so a body that is two documents is never half applied.
func decodeBody(w http.ResponseWriter, r *http.Request, into fielder) bool {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = readBody(buf.Bytes(), into)
	}
	if buf.Cap() <= maxPooledBufBytes {
		jsonBufPool.Put(buf)
	}
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	return true
}

// readBody reads body as exactly one JSON value into into. It accepts,
// refuses and fills exactly what encoding/json's Decoder does with
// DisallowUnknownFields, followed by a check that only white space is left
// (FuzzRequestBody holds the two to each other):
//   - a key names the field it matches exactly, else one it matches as
//     strings.EqualFold does; a later duplicate overwrites, and an array
//     read again reuses the elements it had;
//   - strings are unquoted as encoding/json unquotes them: a lone surrogate
//     escape and each byte of invalid UTF-8 become U+FFFD;
//   - null leaves a field as it was, but for a nil *int and a nil slice;
//   - an int field refuses a fraction, an exponent and overflow.
//
// The read stops at the first error, so an unknown field and trailing data
// keep encoding/json's words, and a read nests no deeper than the request
// types do. Strings are copied out of body, so its buffer can be reused.
func readBody(body []byte, into fielder) error {
	r := bodyReader{b: body, tmp: body[len(body):]}
	r.value(into)
	if r.next(); r.i < len(r.b) {
		return errors.New("trailing data after the JSON value")
	}
	return r.err
}

// A fielder is a JSON object in a request body: field returns a pointer to
// the field key names, nil if it names none.
type fielder interface{ field(key []byte) any }

// pick returns the pointer that follows the name key matches in fields, a
// list of names each followed by its field's pointer; nil if key matches
// none. A name equal to key wins over one equal under strings.EqualFold. A
// fielder last in the list is an embedded struct: it reads a key none of
// the names match.
func pick(key []byte, fields ...any) any {
	for i := 0; i < len(fields); i += 2 {
		if name, ok := fields[i].(string); ok && string(key) == name {
			return fields[i+1]
		}
	}
	for i := 0; i < len(fields); i += 2 {
		if name, ok := fields[i].(string); !ok {
			return fields[i].(fielder).field(key)
		} else if strings.EqualFold(string(key), name) {
			return fields[i+1]
		}
	}
	return nil
}

// An arrayer is a slice field: elem returns a pointer to element i, growing
// the slice to reach it, and done(n) cuts the slice to the n elements read,
// n < 0 for null.
type arrayer interface {
	elem(i int) any
	done(n int)
}

// sliceOf is the arrayer of *p. It fills *p as encoding/json does: element
// i is read into the slice's element i, into what that held when the slice
// reached that far already (a duplicate key); [] leaves an empty slice.
type sliceOf[T any] struct{ p *[]T }

func slice[T any](p *[]T) sliceOf[T] { return sliceOf[T]{p} }

func (s sliceOf[T]) elem(i int) any {
	if i == len(*s.p) {
		*s.p = slices.Grow(*s.p, 1)[:i+1]
	}
	return &(*s.p)[i]
}

func (s sliceOf[T]) done(n int) {
	if n < 0 {
		*s.p = nil
	} else if *s.p = (*s.p)[:n]; n == 0 {
		*s.p = []T{}
	}
}

// bodyReader is one pass over a JSON request body.
type bodyReader struct {
	b   []byte
	i   int    // offset of the next unread byte
	tmp []byte // the last string read, unquoted: in b's spare capacity at first
	err error  // the first error, which ends the read
}

// value reads the next JSON value into p as encoding/json decodes into the
// field p points to: a fielder takes an object, an arrayer an array, and a
// *string, *float64, *int, **int or *bool the JSON kind of its type. null
// leaves the field as it was, but for a nil *int and a nil slice.
func (r *bodyReader) value(p any) {
	c, start := r.next(), r.i
	if c == 'n' {
		switch p := p.(type) {
		case **int:
			*p = nil
		case arrayer:
			p.done(-1)
		}
		r.literal("null")
		return
	}
	switch p := p.(type) {
	case fielder:
		for more := c == '{' && r.open('}'); more; more = r.more('}') {
			key := r.quoted()
			field := p.field(key)
			if !r.accept(':') {
				r.fail(nil)
			} else if field == nil {
				r.fail(fmt.Errorf("json: unknown field %q", key))
			}
			r.value(field)
		}
	case arrayer:
		n := 0
		for more := c == '[' && r.open(']'); more; more = r.more(']') {
			r.value(p.elem(n))
			n++
		}
		p.done(n)
	case *string:
		if c == '"' {
			*p = string(r.quoted())
		}
	case *bool:
		if c == 't' || c == 'f' {
			*p = c == 't'
			r.literal(strconv.FormatBool(*p))
		}
	case **int:
		if *p == nil {
			*p = new(int)
		}
		r.value(*p)
	case *float64, *int:
		if c == '-' || '0' <= c && c <= '9' {
			r.number(p)
		}
	}
	if r.i == start {
		r.fail(nil) // not a value, or not one of p's kind
	}
}

// fail ends the read with err, or when err is nil with the bytes at the
// next one: not JSON, or a value of the wrong type.
func (r *bodyReader) fail(err error) {
	switch {
	case r.err != nil:
	case err != nil:
		r.err = err
	case r.i == len(r.b):
		r.err = errors.New("unexpected end of JSON input")
	default:
		r.err = fmt.Errorf("invalid JSON or a value of the wrong type at offset %d", r.i)
	}
	r.i = len(r.b)
}

// next skips white space and returns the next byte without reading it, 0
// at the end of the body.
func (r *bodyReader) next() byte {
	for ; r.i < len(r.b); r.i++ {
		if c := r.b[r.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// accept reads the next byte if it is c.
func (r *bodyReader) accept(c byte) bool {
	if r.next() != c {
		return false
	}
	r.i++
	return true
}

// open reads the '{' or '[' at the next byte, and closing if it follows at
// once; it reports whether a member follows instead.
func (r *bodyReader) open(closing byte) bool {
	r.i++
	return !r.accept(closing)
}

// more reads the ',' before another member, or closing, and reports which
// it read.
func (r *bodyReader) more(closing byte) bool {
	if r.accept(',') {
		return true
	}
	if !r.accept(closing) {
		r.fail(nil)
	}
	return false
}

// literal reads the literal lit (true, false or null).
func (r *bodyReader) literal(lit string) {
	if bytes.HasPrefix(r.b[r.i:], []byte(lit)) {
		r.i += len(lit)
	} else {
		r.fail(nil)
	}
}

// number reads -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? into p, a
// *float64 or an *int.
func (r *bodyReader) number(p any) {
	start := r.i
	r.one("-")
	ok := r.one("0") || r.digits()
	if ok && r.one(".") {
		ok = r.digits()
	}
	if ok && r.one("eE") {
		r.one("+-")
		ok = r.digits()
	}
	var err error
	switch v := p.(type) {
	case *float64:
		*v, err = strconv.ParseFloat(string(r.b[start:r.i]), 64)
	case *int:
		*v, err = strconv.Atoi(string(r.b[start:r.i]))
	}
	if !ok || err != nil {
		r.i = start
		r.fail(nil)
	}
}

// one reads the next byte, white space too, if it is one of set.
func (r *bodyReader) one(set string) bool {
	if r.i < len(r.b) && strings.IndexByte(set, r.b[r.i]) >= 0 {
		r.i++
		return true
	}
	return false
}

// digits reads a run of decimal digits and reports whether there was one.
func (r *bodyReader) digits() bool {
	start := r.i
	for r.one("0123456789") {
	}
	return r.i > start
}

// quoted reads a JSON string and returns it unquoted as encoding/json
// unquotes it, in r.tmp: valid until the next string is read.
func (r *bodyReader) quoted() []byte {
	if r.next() != '"' {
		r.fail(nil)
		return nil
	}
	out, b, j := r.tmp[:0], r.b, r.i+1
	for j < len(b) && b[j] != '"' && b[j] >= 0x20 {
		rn, size := rune(b[j]), 1
		switch {
		case rn >= utf8.RuneSelf:
			rn, size = utf8.DecodeRune(b[j:]) // an invalid byte is U+FFFD
		case rn != '\\':
		case j+1 < len(b) && b[j+1] != 'u':
			rn, size = -1, 2
			if k := strings.IndexByte(`"\/bfnrt`, b[j+1]); k >= 0 {
				rn = rune("\"\\/\b\f\n\r\t"[k])
			}
		default:
			// A surrogate takes the low one escaped right after it; without
			// one it is U+FFFD, as encoding/json has it.
			if rn, size = r.escaped(j), 6; utf16.IsSurrogate(rn) {
				if rn = utf16.DecodeRune(rn, r.escaped(j+6)); rn != utf8.RuneError {
					size = 12
				}
			}
		}
		if rn < 0 {
			break
		}
		out, j = utf8.AppendRune(out, rn), j+size
	}
	if r.i = j; j == len(b) || b[j] != '"' {
		r.fail(nil)
		return nil
	}
	r.i, r.tmp = j+1, out
	return out
}

// escaped returns the rune of the \uXXXX escape at offset j, -1 if there is
// none.
func (r *bodyReader) escaped(j int) rune {
	if j+6 <= len(r.b) && r.b[j] == '\\' && r.b[j+1] == 'u' {
		if n, err := strconv.ParseUint(string(r.b[j+2:j+6]), 16, 16); err == nil {
			return rune(n)
		}
	}
	return -1
}

// --- the fields of the request types ----------------------------------------

func (req *declareRequest) field(key []byte) any {
	return pick(key, "concepts", slice(&req.Concepts), "roles", slice(&req.Roles),
		"subconcepts", slice(&req.Subconcepts))
}

func (sc *subconceptJSON) field(key []byte) any {
	return pick(key, "sub", &sc.Sub, "super", &sc.Super)
}

func (req *assertRequest) field(key []byte) any {
	return pick(key, "concepts", slice(&req.Concepts), "roles", slice(&req.Roles))
}

func (a *conceptAssertionJSON) field(key []byte) any {
	return pick(key, "concept", &a.Concept, "id", &a.ID, "prob", &a.Prob)
}

func (a *roleAssertionJSON) field(key []byte) any {
	return pick(key, "role", &a.Role, "src", &a.Src, "dst", &a.Dst, "prob", &a.Prob)
}

func (req *rulesRequest) field(key []byte) any { return pick(key, "rules", slice(&req.Rules)) }

func (req *sessionRequest) field(key []byte) any {
	return pick(key, "measurements", slice(&req.Measurements))
}

func (m *measurementJSON) field(key []byte) any {
	return pick(key, "concept", &m.Concept, "individual", &m.Individual, "prob", &m.Prob,
		"exclusive", &m.Exclusive, "source", &m.Source)
}

// field is the one reader of the option block every rank entry point's body
// carries.
func (o *rankOptionsJSON) field(key []byte) any {
	return pick(key, "algorithm", &o.Algorithm, "threshold", &o.Threshold, "limit", &o.Limit,
		"top_k", &o.TopK, "explain", &o.Explain)
}

func (req *rankRequest) field(key []byte) any {
	return pick(key, "user", &req.User, "target", &req.Target, &req.rankOptionsJSON)
}

func (req *rankBatchRequest) field(key []byte) any {
	return pick(key, "user", &req.User, "algorithm", &req.Algorithm, "items", slice(&req.Items))
}

func (it *rankItemJSON) field(key []byte) any {
	return pick(key, "target", &it.Target, "candidates", slice(&it.Candidates), &it.rankOptionsJSON)
}

func (req *subscribeRequest) field(key []byte) any {
	return pick(key, "id", &req.ID, "user", &req.User, "target", &req.Target,
		"candidates", slice(&req.Candidates), &req.rankOptionsJSON)
}

func (req *sqlRequest) field(key []byte) any { return pick(key, "sql", &req.SQL) }

func (req *chaosArmRequest) field(key []byte) any { return pick(key, "faults", slice(&req.Faults)) }

func (f *faultJSON) field(key []byte) any {
	return pick(key, "point", (*string)(&f.Point), "err", &f.Err, "panic", &f.Panic,
		"delay_ms", &f.DelayMs, "torn", &f.Torn, "nth", &f.Nth, "rate", &f.Rate, "after", &f.After,
		"count", &f.Count, "shard", &f.Shard, "match", &f.Match)
}
