package data

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"roadcrash/internal/rng"
)

// readOne parses a single NDJSON line against the given schema and
// returns the row values (or the parse error).
func readOne(t *testing.T, schema []Attribute, line string) ([]float64, []Attribute, error) {
	t.Helper()
	br := NewNDJSONBatchReader(strings.NewReader(line), schema, 4)
	b, err := br.Next()
	if err != nil {
		return nil, nil, err
	}
	if b.Len() != 1 {
		t.Fatalf("parsed %d rows from %q", b.Len(), line)
	}
	row := make([]float64, len(schema))
	for j := range row {
		row[j] = b.At(0, j)
	}
	return row, br.Attrs(), nil
}

// TestNDJSONStringDecoding pins the scanner's JSON string semantics
// against encoding/json's: every escape form, surrogate pairs, lone
// surrogates and invalid UTF-8 collapsing to U+FFFD, raw non-ASCII
// passing through.
func TestNDJSONStringDecoding(t *testing.T) {
	schema := []Attribute{{Name: "s", Kind: Nominal}}
	cases := map[string]string{
		`{"s": "plain"}`:                      "plain",
		`{"s": "a\"b\\c\/d"}`:                 "a\"b\\c/d",
		`{"s": "\b\f\n\r\t"}`:                 "\b\f\n\r\t",
		`{"s": "\u0041\u00e9"}`:               "Aé",
		`{"s": "\ud83d\ude00"}`:               "😀",
		`{"s": "\ud800"}`:                     "\uFFFD", // lone high surrogate
		`{"s": "\ud800x"}`:                    "\uFFFDx",
		`{"s": "\udc00\ud800"}`:               "\uFFFD\uFFFD", // wrong order
		"{\"s\": \"caf\u00e9\"}":              "café",         // raw UTF-8
		"{\"s\": \"\x7f\"}":                   "\x7f",         // raw DEL is legal JSON
		"{\"s\": \"a\xffb\"}":                 "a\uFFFDb",     // invalid UTF-8 byte
		`{"s": "mixed\u0020end"}`:             "mixed end",
		"{\"s\": \"\xe2\x82\xacok\"}":         "€ok",
		"{\"s\": \"esc\\n\xe2\x82\xac\x7f\"}": "esc\n€\x7f",
	}
	for line, want := range cases {
		row, attrs, err := readOne(t, schema, line)
		if err != nil {
			t.Errorf("%q: %v", line, err)
			continue
		}
		if got := attrs[0].Levels[int(row[0])]; got != want {
			t.Errorf("%q: level %q, want %q", line, got, want)
		}
	}
}

// TestNDJSONStringErrors pins the scanner's reject set for strings and
// structure: invalid escapes, truncated escapes, raw control characters,
// unterminated strings, bad separators and bad literals all fail cleanly.
func TestNDJSONStringErrors(t *testing.T) {
	schema := []Attribute{
		{Name: "s", Kind: Nominal},
		{Name: "x", Kind: Interval},
		{Name: "flag", Kind: Binary},
	}
	cases := []string{
		`{"s": "\x41"}`,        // invalid escape
		`{"s": "\u00"}`,        // truncated \u escape
		`{"s": "\uZZZZ"}`,      // non-hex \u digits
		`{"s": "\`,             // escape at end of input
		`{"s": "open`,          // unterminated string (fast path)
		`{"s": "open\n`,        // unterminated after escape (slow path)
		"{\"s\": \"a\x01b\"}",  // raw control char (fast path)
		"{\"s\": \"\\n\x01\"}", // raw control char (slow path)
		`{"s" "v"}`,            // missing colon
		`{"s": "v" "x": 1}`,    // missing comma
		`{"x": trueX}`,         // bad literal tail
		`{"x": tru}`,           // truncated literal
		`{"flag": nul}`,        // truncated null
		`{"x": +5}`,            // '+' cannot start a number
		`{"x": 5..5}`,          // malformed number
		`{"x": 01}`,            // leading zero (valid for ParseFloat, not JSON)
		`{"x": 1.}`,            // trailing dot
		`{"x": 1.e5}`,          // exponent after bare dot
		`{"x": .5}`,            // bare leading dot
		`{"x": -}`,             // sign without digits
		`{"x": 1e}`,            // exponent without digits
		`{"x": 1e+}`,           // signed exponent without digits
		`{1: 2}`,               // non-string key
		`["x"]`,                // not an object
		`{"x": 1,}`,            // trailing comma
		`  `,                   // whitespace only (after blank-skip: EOF is fine)
	}
	for _, line := range cases {
		br := NewNDJSONBatchReader(strings.NewReader(line), schema, 4)
		_, err := br.Next()
		if err == nil {
			t.Errorf("%q: expected an error", line)
		} else if err == io.EOF && strings.TrimSpace(line) != "" {
			t.Errorf("%q: got EOF, want a parse error", line)
		}
	}
}

// TestNDJSONValueForms pins the accepted value forms per attribute kind,
// including the string encodings and whitespace tolerance.
func TestNDJSONValueForms(t *testing.T) {
	schema := []Attribute{
		{Name: "x", Kind: Interval},
		{Name: "flag", Kind: Binary},
	}
	for line, want := range map[string][2]float64{
		`{ "x" : -12.5e1 , "flag" : true }`: {-125, 1},
		`{"x": "3.25", "flag": "YES"}`:      {3.25, 1},
		`{"x": "Inf", "flag": "FALSE"}`:     {Missing, 0}, // Inf stored, checked below
		`{"x": null, "flag": "0"}`:          {Missing, 0},
		`{"flag": "1"}`:                     {Missing, 1},
		`{"flag": "No"}`:                    {Missing, 0},
		`{"flag": false}`:                   {Missing, 0},
	} {
		row, _, err := readOne(t, schema, line)
		if err != nil {
			t.Errorf("%q: %v", line, err)
			continue
		}
		if line == `{"x": "Inf", "flag": "FALSE"}` {
			if !(row[0] > 0 && row[0]*2 == row[0]) {
				t.Errorf("%q: x = %v, want +Inf", line, row[0])
			}
		} else if IsMissing(want[0]) != IsMissing(row[0]) || (!IsMissing(want[0]) && row[0] != want[0]) {
			t.Errorf("%q: x = %v, want %v", line, row[0], want[0])
		}
		if row[1] != want[1] {
			t.Errorf("%q: flag = %v, want %v", line, row[1], want[1])
		}
	}
}

// TestNDJSONNumbers pins numbers on both sides of the scanner's exact
// path (mantissa <= 2^53, decimal exponent within ±22) bit for bit
// against strconv.ParseFloat, with the keys in schema order, out of it and
// spelled with \u escapes. A token ParseFloat reports out of range
// (1e400) is a malformed number here, as it always was.
func TestNDJSONNumbers(t *testing.T) {
	schema := []Attribute{{Name: "x", Kind: Interval}, {Name: "y", Kind: Interval}}
	tokens := []string{
		"0", "-0", "-0.0", "0e5", "-0e-5", "100", "0.5", "2.5e-3", "1E+2", "123.456e-2",
		"9007199254740992", "-9007199254740992", // 2^53: the largest exact mantissa
		"9007199254740993", "-9007199254740993", // 2^53+1: to ParseFloat
		"9007199254740992e22", "9007199254740992e-22",
		"1234567890123456789", "12345678901234567890", // 19- and 20-digit mantissas
		"0.1234567890123456789", "0.12345678901234567890",
		"0.0000000000000000000001", "0.00000000000000000000001", // 22 and 23 fraction digits
		"0.0000010000000000000001", // 17-digit mantissa past 2^53: rounding it first would be wrong
		"1e22", "1e23", "1e-22", "1e-23", "4.35e21", "2.8000000000000003",
		"1e18446744073709551621", "1e-18446744073709551621", // exponent 2^64+5 must not wrap to 5
		"5e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "1e-400", "1e400", "-1e400",
	}
	layouts := []string{`{"x": %s, "y": 7}`, `{"y": 7, "x": %s}`, `{"\u0078": %s, "\u0079": 7}`}
	for _, tok := range tokens {
		want, wantErr := strconv.ParseFloat(tok, 64)
		for _, layout := range layouts {
			line := fmt.Sprintf(layout, tok)
			row, _, err := readOne(t, schema, line)
			if wantErr != nil {
				if err == nil || !strings.Contains(err.Error(), "malformed number") {
					t.Errorf("%s: got %v, want a malformed number (ParseFloat: %v)", line, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", line, err)
				continue
			}
			if math.Float64bits(row[0]) != math.Float64bits(want) || row[1] != 7 {
				t.Errorf("%s: x = %v (%#x), y = %v; want x = %v (%#x), y = 7", line, row[0], math.Float64bits(row[0]), row[1], want, math.Float64bits(want))
			}
		}
	}
}

// TestRowWhitespace runs each row through NDJSONBatchReader (one line)
// and ParseScoreRequest (one segment) and asserts the same accept/reject:
// only space, tab, CR and LF may surround a row. \v, \f, U+0085 and
// U+00A0 are not JSON whitespace and reject the row on both paths.
func TestRowWhitespace(t *testing.T) {
	schema := []Attribute{{Name: "x", Kind: Interval}}
	cases := []struct {
		row string
		ok  bool
	}{
		{`{"x":1}`, true},
		{` {"x":1} `, true},
		{"\t{\"x\":1}\t", true},
		{"\r {\"x\" : 1}\r", true},
		{"\v{\"x\":1}", false},
		{"{\"x\":1}\v", false},
		{"\f{\"x\":1}", false},
		{"{\"x\":1}\f", false},
		{"\u0085{\"x\":1}", false},
		{"\u00a0{\"x\":1}", false},
		{"{\"x\":1}\u00a0", false},
		{"{\"x\":\v1}", false},
		{"\v", false},
	}
	for _, c := range cases {
		br := NewNDJSONBatchReader(strings.NewReader(c.row+"\n"), schema, 4)
		b, err := br.Next()
		if err == io.EOF {
			t.Errorf("%q: NDJSON skipped the line as blank", c.row)
			continue
		}
		streamOK := err == nil && b.Len() == 1
		p := NewScoreRequestParser(schema)
		_, _, err = ParseScoreRequest([]byte(`{"model":"m","segments":[`+c.row+`]}`), 8,
			func(string) (*ScoreRequestParser, error) { return p, nil })
		scoreOK := err == nil
		if streamOK != c.ok || scoreOK != c.ok {
			t.Errorf("%q: NDJSON accepted %v, /score accepted %v, want %v", c.row, streamOK, scoreOK, c.ok)
		}
	}
}

// TestAppendJSONString pins the JSON-safe quoting the batch writers use:
// control characters take \u00XX or shorthand escapes, quotes and
// backslashes escape, valid UTF-8 passes raw, invalid UTF-8 becomes the
// \ufffd escape — and every output must parse back to the input through
// the scanner (the round-trip the old strconv quoting broke for DEL).
func TestAppendJSONString(t *testing.T) {
	cases := map[string]string{
		"plain":        `"plain"`,
		`q"b\`:         `"q\"b\\"`,
		"nl\ntab\t":    `"nl\ntab\t"`,
		"cr\r":         `"cr\r"`,
		"\x00\x01\x1f": `"\u0000\u0001\u001f"`,
		"\x7f":         "\"\x7f\"",
		"café€":        `"café€"`,
		"bad\xffbyte":  `"bad\ufffdbyte"`,
	}
	schema := []Attribute{{Name: "s", Kind: Nominal}}
	for in, want := range cases {
		got := string(AppendJSONString(nil, in))
		if got != want {
			t.Errorf("AppendJSONString(%q) = %s, want %s", in, got, want)
		}
		// Round-trip through the scanner (invalid UTF-8 already replaced).
		line := `{"s": ` + got + `}`
		row, attrs, err := readOne(t, schema, line)
		if err != nil {
			t.Errorf("%q: wrote unparsable JSON %s: %v", in, got, err)
			continue
		}
		wantBack := strings.ReplaceAll(in, "\xff", "\uFFFD")
		if level := attrs[0].Levels[int(row[0])]; level != wantBack {
			t.Errorf("%q round-tripped to %q", in, level)
		}
	}
}

// TestAppendJSONFloatMatchesEncodingJSON pins the float encoder to
// encoding/json over the formatting regime boundaries and a seeded
// spread of random values.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1.0 / 3.0, 2.0 / 3.0,
		1e-6, 9.999999999e-7, 1e-7, 5e-324, math.SmallestNonzeroFloat64,
		1e21, 9.99999e20, 1.0000001e21, math.MaxFloat64, -math.MaxFloat64,
		0.1, 0.30000000000000004, 1234567.891011, -98765.4321e-12, 3.141592653589793,
	}
	r := rng.New(99)
	for i := 0; i < 2000; i++ {
		v := (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(45)-22))
		vals = append(vals, v)
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONFloat(nil, v); string(got) != string(want) {
			t.Fatalf("%v (%b): fast %q, encoding/json %q", v, v, got, want)
		}
	}
}

// TestAppendJSONStringMatchesEncodingJSON pins the string encoder — HTML
// escaping, control shorthands, invalid UTF-8 replacement, U+2028/U+2029
// — to encoding/json.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "cp-8-tree", "decision_tree", "plain ascii",
		`quote " and \ backslash`, "<script>&amp;</script>",
		"tab\tnewline\ncr\rbell\abackspace\bformfeed\f",
		"nul\x00 unit\x1f esc\x1b", "line sep  para sep ",
		"smiley \U0001F600 accent é kanji 漢", "invalid \xff\xfe utf8", "trunc \xe2\x28\xa1 seq",
		strings.Repeat("a<b&c>d\"e\\f\x01", 50),
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString(nil, s); string(got) != string(want) {
			t.Fatalf("%q: fast %q, encoding/json %q", s, got, want)
		}
	}
}
