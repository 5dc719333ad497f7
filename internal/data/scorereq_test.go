package data

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// scoreAttrs is the test schema shared with the NDJSON reader tests: one
// attribute of each kind.
func scoreAttrs() []Attribute {
	return []Attribute{
		{Name: "x", Kind: Interval},
		{Name: "s", Kind: Nominal, Levels: []string{"a", "b"}},
		{Name: "flag", Kind: Binary},
	}
}

// resolveTo returns a resolve callback handing out p for any model name
// and counting its calls.
func resolveTo(p *ScoreRequestParser, calls *int) func(string) (*ScoreRequestParser, error) {
	return func(string) (*ScoreRequestParser, error) {
		*calls++
		return p, nil
	}
}

func TestParseScoreRequestHappy(t *testing.T) {
	p := NewScoreRequestParser(scoreAttrs())
	calls := 0
	body := `{"model":"m","segments":[{"x":1.5,"s":"b","flag":true},{"x":"2.5"},{"flag":"no"}]}`
	model, b, err := ParseScoreRequest([]byte(body), 100, resolveTo(p, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if model != "m" || calls != 1 {
		t.Fatalf("model=%q calls=%d", model, calls)
	}
	if b.Len() != 3 {
		t.Fatalf("rows = %d", b.Len())
	}
	want := [][]float64{{1.5, 1, 1}, {2.5, Missing, Missing}, {Missing, Missing, 0}}
	for i, row := range want {
		for j, v := range row {
			got := b.At(i, j)
			if IsMissing(v) != IsMissing(got) || (!IsMissing(v) && got != v) {
				t.Errorf("row %d col %d: got %v, want %v", i, j, got, v)
			}
		}
	}
}

// TestParseScoreRequestModelLast pins the deferred-segments path: a
// request with segments before model decodes to the same batch as the
// model-first form, and resolve still runs exactly once.
func TestParseScoreRequestModelLast(t *testing.T) {
	first := `{"model":"m","segments":[{"x":9,"s":"a"},null,{"flag":1}]}`
	last := `{"segments":[{"x":9,"s":"a"},null,{"flag":1}],"model":"m"}`
	rows := func(body string) [][]float64 {
		p := NewScoreRequestParser(scoreAttrs())
		calls := 0
		model, b, err := ParseScoreRequest([]byte(body), 100, resolveTo(p, &calls))
		if err != nil || model != "m" || calls != 1 {
			t.Fatalf("%s: model=%q calls=%d err=%v", body, model, calls, err)
		}
		out := make([][]float64, b.Len())
		for i := range out {
			out[i] = make([]float64, len(b.Attrs()))
			for j := range out[i] {
				out[i][j] = b.At(i, j)
			}
		}
		return out
	}
	a, z := rows(first), rows(last)
	if len(a) != 3 || len(z) != 3 {
		t.Fatalf("rows: %d and %d, want 3", len(a), len(z))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != z[i][j] && !(IsMissing(a[i][j]) && IsMissing(z[i][j])) {
				t.Errorf("row %d col %d: model-first %v, model-last %v", i, j, a[i][j], z[i][j])
			}
		}
	}
}

// TestParseScoreRequestPrecedence pins the error ordering the generic
// decoder path established: malformed JSON > missing model > no segments
// > batch limit > resolve error > lowest segment error.
func TestParseScoreRequestPrecedence(t *testing.T) {
	boom := errors.New("unknown model")
	failResolve := func(string) (*ScoreRequestParser, error) { return nil, boom }
	okResolve := func(string) (*ScoreRequestParser, error) { return NewScoreRequestParser(scoreAttrs()), nil }

	t.Run("malformed beats missing model", func(t *testing.T) {
		_, _, err := ParseScoreRequest([]byte(`{"segments":[{"x":}]}`), 10, okResolve)
		if err == nil || errors.Is(err, ErrMissingModel) {
			t.Fatalf("err = %v, want a syntax error", err)
		}
	})
	t.Run("missing model beats segment error", func(t *testing.T) {
		_, _, err := ParseScoreRequest([]byte(`{"segments":[{"nope":1}]}`), 10, okResolve)
		if !errors.Is(err, ErrMissingModel) {
			t.Fatalf("err = %v, want ErrMissingModel", err)
		}
	})
	t.Run("no segments beats resolve error", func(t *testing.T) {
		for _, body := range []string{
			`{"model":"ghost","segments":[]}`,
			`{"model":"ghost","segments":null}`,
			`{"model":"ghost"}`,
		} {
			_, _, err := ParseScoreRequest([]byte(body), 10, failResolve)
			if !errors.Is(err, ErrNoSegments) {
				t.Fatalf("%s: err = %v, want ErrNoSegments", body, err)
			}
		}
	})
	t.Run("limit beats resolve error", func(t *testing.T) {
		_, _, err := ParseScoreRequest([]byte(`{"model":"ghost","segments":[{},{},{}]}`), 2, failResolve)
		var lim *BatchLimitError
		if !errors.As(err, &lim) || lim.N != 3 || lim.Limit != 2 {
			t.Fatalf("err = %v, want BatchLimitError{3,2}", err)
		}
	})
	t.Run("limit beats segment error", func(t *testing.T) {
		_, _, err := ParseScoreRequest([]byte(`{"model":"m","segments":[{"nope":1},{},{}]}`), 2, okResolve)
		var lim *BatchLimitError
		if !errors.As(err, &lim) || lim.N != 3 {
			t.Fatalf("err = %v, want BatchLimitError{3,2}", err)
		}
	})
	t.Run("resolve error beats segment error", func(t *testing.T) {
		_, _, err := ParseScoreRequest([]byte(`{"model":"ghost","segments":[{"nope":1}]}`), 10, failResolve)
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the resolve error", err)
		}
	})
	t.Run("lowest segment reported", func(t *testing.T) {
		body := `{"model":"m","segments":[{},{"nope":1},{"s":5},{"x":2}]}`
		_, _, err := ParseScoreRequest([]byte(body), 10, okResolve)
		var seg *SegmentError
		if !errors.As(err, &seg) || seg.Segment != 1 {
			t.Fatalf("err = %v, want SegmentError at segment 1", err)
		}
		if !strings.Contains(seg.Error(), `unknown attribute "nope"`) {
			t.Fatalf("error %q does not name the attribute", seg)
		}
	})
}

func TestParseScoreRequestMalformed(t *testing.T) {
	p := NewScoreRequestParser(scoreAttrs())
	calls := 0
	resolve := resolveTo(p, &calls)
	for name, body := range map[string]string{
		"empty":              ``,
		"not an object":      `[]`,
		"bare value":         `5`,
		"truncated":          `{"model":"m","segments":[{"x":1}]`,
		"unknown field":      `{"model":"m","wat":1}`,
		"duplicate model":    `{"model":"m","model":"m"}`,
		"duplicate segments": `{"model":"m","segments":[],"segments":[]}`,
		"trailing data":      `{"model":"m","segments":[{"x":1}]}{"again":true}`,
		"trailing token":     `{"model":"m","segments":[{"x":1}]} ]`,
		"segment not object": `{"model":"m","segments":[5]}`,
		"segments object":    `{"model":"m","segments":{"x":1}}`,
		"huge exponent":      `{"model":"m","segments":[{"x":1e999}]}`,
		"bad literal":        `{"model":"m","segments":[nul]}`,
	} {
		_, _, err := ParseScoreRequest([]byte(body), 10, resolve)
		if err == nil {
			t.Errorf("%s: accepted %q", name, body)
			continue
		}
		var seg *SegmentError
		var lim *BatchLimitError
		if errors.Is(err, ErrMissingModel) || errors.Is(err, ErrNoSegments) || errors.As(err, &seg) || errors.As(err, &lim) {
			t.Errorf("%s: classified as %v, want plain malformed", name, err)
		}
	}
	// Trailing whitespace is fine.
	if _, _, err := ParseScoreRequest([]byte(`{"model":"m","segments":[{"x":1}]}`+" \n\t "), 10, resolve); err != nil {
		t.Fatalf("trailing whitespace: %v", err)
	}
}

// TestParseScoreRequestSegmentErrors pins the per-segment semantic
// failures: same classification rules as the NDJSON row decoder.
func TestParseScoreRequestSegmentErrors(t *testing.T) {
	p := NewScoreRequestParser(scoreAttrs())
	calls := 0
	resolve := resolveTo(p, &calls)
	for name, c := range map[string]struct{ body, want string }{
		"unknown attribute": {`{"model":"m","segments":[{"nope":1}]}`, `unknown attribute "nope"`},
		"duplicate key":     {`{"model":"m","segments":[{"x":1,"x":2}]}`, `duplicate attribute "x"`},
		"nominal number":    {`{"model":"m","segments":[{"s":5}]}`, "nominal"},
		"binary range":      {`{"model":"m","segments":[{"flag":2}]}`, "binary"},
		"binary word":       {`{"model":"m","segments":[{"flag":"maybe"}]}`, "binary"},
		"object value":      {`{"model":"m","segments":[{"x":{"v":1}}]}`, "unsupported"},
		"array value":       {`{"model":"m","segments":[{"x":[1]}]}`, "unsupported"},
	} {
		_, _, err := ParseScoreRequest([]byte(c.body), 10, resolve)
		var seg *SegmentError
		if !errors.As(err, &seg) || seg.Segment != 0 {
			t.Errorf("%s: err = %v, want SegmentError at 0", name, err)
			continue
		}
		if !strings.Contains(seg.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", name, seg, c.want)
		}
	}
}

// TestParseScoreRequestDepthCap bounds the structural walker: nesting at
// encoding/json's limit fails as malformed, modest nesting inside an
// unknown-shaped value stays a per-segment error.
func TestParseScoreRequestDepthCap(t *testing.T) {
	okResolve := func(string) (*ScoreRequestParser, error) { return NewScoreRequestParser(scoreAttrs()), nil }
	deep := `{"model":"m","segments":[{"x":` + strings.Repeat("[", maxScoreDepth+1) + strings.Repeat("]", maxScoreDepth+1) + `}]}`
	_, _, err := ParseScoreRequest([]byte(deep), 10, okResolve)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("err = %v, want a depth error", err)
	}
	var seg *SegmentError
	if errors.As(err, &seg) {
		t.Fatalf("depth overflow classified per-segment: %v", err)
	}

	shallow := `{"model":"m","segments":[{"x":` + strings.Repeat("[", 50) + strings.Repeat("]", 50) + `}]}`
	_, _, err = ParseScoreRequest([]byte(shallow), 10, okResolve)
	if !errors.As(err, &seg) || seg.Segment != 0 {
		t.Fatalf("err = %v, want SegmentError for an unsupported nested value", err)
	}

	// The cap counts the request object, the segments array and the
	// segment around the value, as encoding/json does: 10000 levels in all
	// leave a per-segment error, 10001 fail as malformed.
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	_, _, err = ParseScoreRequest([]byte(`{"model":"m","segments":[{"x":`+nest(maxScoreDepth-3)+`}]}`), 10, okResolve)
	if !errors.As(err, &seg) {
		t.Fatalf("10000 levels: err = %v, want SegmentError", err)
	}
	_, _, err = ParseScoreRequest([]byte(`{"model":"m","segments":[{"x":`+nest(maxScoreDepth-2)+`}]}`), 10, okResolve)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("10001 levels: err = %v, want a depth error", err)
	}

	// The same nesting hidden behind a deferred segments array (model
	// still unknown) hits the cap in the structural pre-scan too.
	deferred := `{"segments":[{"x":` + strings.Repeat("[", maxScoreDepth+1) + strings.Repeat("]", maxScoreDepth+1) + `}],"model":"m"}`
	_, _, err = ParseScoreRequest([]byte(deferred), 10, okResolve)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("deferred: err = %v, want a depth error", err)
	}
}

// TestParseScoreRequestResolveCalls pins when resolve runs: at most once
// per parse, with the request's model name, and never when the model is
// missing — a request that cannot name a model must not touch the
// registry.
func TestParseScoreRequestResolveCalls(t *testing.T) {
	p := NewScoreRequestParser(scoreAttrs())
	var gotName string
	calls := 0
	resolve := func(name string) (*ScoreRequestParser, error) {
		calls++
		gotName = name
		return p, nil
	}
	if _, _, err := ParseScoreRequest([]byte(`{"segments":[{"x":1}]}`), 10, resolve); !errors.Is(err, ErrMissingModel) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := ParseScoreRequest([]byte(`{"segments":[{"x":}]}`), 10, resolve); err == nil {
		t.Fatal("malformed body accepted")
	}
	if calls != 0 {
		t.Fatalf("resolve ran %d times without a model name", calls)
	}
	if _, _, err := ParseScoreRequest([]byte(`{"segments":[{"x":1}],"model":"m"}`), 10, resolve); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || gotName != "m" {
		t.Fatalf("calls=%d name=%q", calls, gotName)
	}
	// Inline decoding (model first) resolves once too, even when a later
	// segment fails.
	calls = 0
	if _, _, err := ParseScoreRequest([]byte(`{"model":"m","segments":[{},{"nope":1}]}`), 10, resolve); err == nil {
		t.Fatal("bad segment accepted")
	}
	if calls != 1 {
		t.Fatalf("inline path resolved %d times, want 1", calls)
	}
}

// TestParseScoreRequestReuse drives one parser through several requests:
// the batch must reset between parses and unseen nominal levels must stay
// interned, exactly like a long-lived NDJSON reader.
func TestParseScoreRequestReuse(t *testing.T) {
	p := NewScoreRequestParser(scoreAttrs())
	calls := 0
	resolve := resolveTo(p, &calls)
	if p.InternedLevels() != 2 {
		t.Fatalf("fresh parser interned %d levels, want 2", p.InternedLevels())
	}
	_, b, err := ParseScoreRequest([]byte(`{"model":"m","segments":[{"s":"zebra"},{"s":"a"}]}`), 10, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || p.InternedLevels() != 3 {
		t.Fatalf("rows=%d interned=%d, want 2 rows and 3 levels", b.Len(), p.InternedLevels())
	}
	if b.At(0, 1) != 2 {
		t.Fatalf("unseen level decoded to %v, want the interned index 2", b.At(0, 1))
	}
	_, b, err = ParseScoreRequest([]byte(`{"model":"m","segments":[{"s":"zebra"}]}`), 10, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || p.InternedLevels() != 3 {
		t.Fatalf("reuse: rows=%d interned=%d, want 1 row and 3 levels", b.Len(), p.InternedLevels())
	}
	if b.At(0, 1) != 2 {
		t.Fatalf("interned level lost across requests: got %v", b.At(0, 1))
	}
}

// TestParseScoreRequestBigBatch decodes a batch past the limit check's
// boundary in both directions.
func TestParseScoreRequestBigBatch(t *testing.T) {
	p := NewScoreRequestParser(scoreAttrs())
	calls := 0
	resolve := resolveTo(p, &calls)
	body := func(n int) []byte {
		var sb strings.Builder
		sb.WriteString(`{"model":"m","segments":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"x":%d}`, i)
		}
		sb.WriteString(`]}`)
		return []byte(sb.String())
	}
	_, b, err := ParseScoreRequest(body(500), 500, resolve)
	if err != nil || b.Len() != 500 {
		t.Fatalf("at the limit: rows=%v err=%v", b, err)
	}
	if b.At(499, 0) != 499 {
		t.Fatalf("row 499 = %v", b.At(499, 0))
	}
	_, _, err = ParseScoreRequest(body(501), 500, resolve)
	var lim *BatchLimitError
	if !errors.As(err, &lim) || lim.N != 501 || lim.Limit != 500 {
		t.Fatalf("over the limit: err = %v", err)
	}
}

// TestScoreRequestErrorTypes pins the error type surfaces: messages and
// unwrapping.
func TestScoreRequestErrorTypes(t *testing.T) {
	lim := &BatchLimitError{N: 12, Limit: 10}
	if lim.Error() != "batch of 12 exceeds the 10-segment limit" {
		t.Fatalf("limit message %q", lim.Error())
	}
	inner := errors.New("boom")
	seg := &SegmentError{Segment: 3, Err: inner}
	if seg.Error() != "segment 3: boom" {
		t.Fatalf("segment message %q", seg.Error())
	}
	if !errors.Is(seg, inner) || errors.Unwrap(seg) != inner {
		t.Fatal("SegmentError does not unwrap to its cause")
	}
}

// TestParseScoreRequestModelField covers the model field's failure
// shapes: wrong value types, broken literals, missing separators.
func TestParseScoreRequestModelField(t *testing.T) {
	okResolve := func(string) (*ScoreRequestParser, error) { return NewScoreRequestParser(scoreAttrs()), nil }
	for name, body := range map[string]string{
		"number model":      `{"model":5}`,
		"object model":      `{"model":{}}`,
		"broken null":       `{"model":nul}`,
		"missing colon":     `{"model" "m"}`,
		"missing value":     `{"model":}`,
		"bad separator":     `{"model":"m" "segments":[]}`,
		"segment separator": `{"model":"m","segments":[{} {}]}`,
	} {
		_, _, err := ParseScoreRequest([]byte(body), 10, okResolve)
		if err == nil || errors.Is(err, ErrMissingModel) || errors.Is(err, ErrNoSegments) {
			t.Errorf("%s: err = %v, want a syntax error", name, err)
		}
	}
	// An empty model name with deferred segments is still a missing model.
	if _, _, err := ParseScoreRequest([]byte(`{"model":"","segments":[{"x":1}]}`), 10, okResolve); !errors.Is(err, ErrMissingModel) {
		t.Fatalf("empty model: err = %v", err)
	}
	// The deferred re-scan must also run structurally when resolve fails.
	boom := errors.New("no such model")
	failResolve := func(string) (*ScoreRequestParser, error) { return nil, boom }
	if _, _, err := ParseScoreRequest([]byte(`{"segments":[{"x":1}],"model":"ghost"}`), 10, failResolve); !errors.Is(err, boom) {
		t.Fatalf("deferred resolve failure: err = %v", err)
	}
}

// TestSkipValueShapes drives the structural walker over every value
// shape and failure mode directly.
func TestSkipValueShapes(t *testing.T) {
	valid := []string{
		`"str"`, `-12.5e+3`, `true`, `false`, `null`, `{}`, `[]`,
		`{"a":1}`, `{"a":1,"b":[2,3],"c":{"d":null}}`,
		`[1,"two",true,false,null,{"x":[]},[[]]]`,
		`{"nested":{"deep":{"deeper":[{"bottom":0}]}}}`,
	}
	for _, in := range valid {
		s := lineScanner{buf: []byte(in + " ,tail")}
		if err := skipValue(&s, 0, true); err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		s.skipSpace()
		if s.pos >= len(s.buf) || s.buf[s.pos] != ',' {
			t.Errorf("%q: walker stopped at offset %d, not at the trailing comma", in, s.pos)
		}
	}
	invalid := []string{
		``, `}`, `tru`, `nulL`, `fals!`, `"unterminated`, `01`, `+1`,
		`{`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{"a":1 "b":2}`, `{1:2}`,
		`[`, `[1,]`, `[1 2]`, `[,]`, `{"a":[1}`, `[{"a":1]`,
	}
	for _, in := range invalid {
		s := lineScanner{buf: []byte(in)}
		if err := skipValue(&s, 0, true); err == nil {
			t.Errorf("%q: accepted", in)
		}
	}
}
