package data

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the hand-rolled NDJSON object scanner behind
// NDJSONBatchReader. It exists for two reasons. Correctness: the generic
// encoding/json path decodes each line into a map, where duplicate keys
// silently resolve last-wins — {"aadt":1,"aadt":9} would score 9 with no
// error anywhere — while this scanner sees every key in document order and
// rejects duplicates per row. Speed: one row costs a single left-to-right
// pass with no intermediate map, no interface boxing and no reflection,
// which matters once the compiled inference engine makes parsing, not
// scoring, the streaming hot path. Within that pass each byte is read once
// on the common path: a key in schema order matches its pre-quoted name in
// one comparison, and a number is grammar-checked and converted in the
// same scan. Every other key or number falls through to the general code.
//
// The accepted value grammar matches the documented feed format (numbers,
// strings, true/false, null; objects and arrays are rejected as
// unsupported values). String decoding follows encoding/json: the four-hex
// \uXXXX escape with UTF-16 surrogate pairs, unpaired surrogates and
// invalid UTF-8 replaced by U+FFFD, raw control characters rejected.

// lineScanner walks one NDJSON line.
type lineScanner struct {
	buf []byte
	pos int
}

// isJSONSpace reports whether c is JSON whitespace: space, tab, LF or CR.
// Every other byte above ' ' fails the first comparison.
func isJSONSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// skipSpace advances past JSON whitespace. When the next byte is not
// whitespace, the common case between tokens, it returns after one
// comparison.
func (s *lineScanner) skipSpace() {
	for s.pos < len(s.buf) && isJSONSpace(s.buf[s.pos]) {
		s.pos++
	}
}

// eat consumes c if it is the next byte.
func (s *lineScanner) eat(c byte) bool {
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// syntaxErr reports what was expected at the current position.
func (s *lineScanner) syntaxErr(want string) error {
	if s.pos >= len(s.buf) {
		return fmt.Errorf("unexpected end of object, want %s", want)
	}
	return fmt.Errorf("unexpected character %q at offset %d, want %s", s.buf[s.pos], s.pos, want)
}

// scanString consumes a JSON string and returns its decoded bytes. The
// fast path — no escapes, no control bytes, no non-ASCII — returns a
// zero-copy slice of the line; anything else goes through decodeString.
// The opening quote must already be the next byte.
func (s *lineScanner) scanString() ([]byte, error) {
	if !s.eat('"') {
		return nil, s.syntaxErr("a string")
	}
	start := s.pos
	for i := s.pos; i < len(s.buf); i++ {
		c := s.buf[i]
		switch {
		case c == '"':
			s.pos = i + 1
			return s.buf[start:i], nil
		case c == '\\' || c >= utf8.RuneSelf:
			return s.decodeString(start)
		case c < 0x20:
			return nil, fmt.Errorf("raw control character %q in string at offset %d", c, i)
		}
	}
	return nil, fmt.Errorf("unterminated string at offset %d", start-1)
}

// decodeString is the slow path: it resumes at offset start (inside the
// string) and decodes escapes and UTF-8 exactly as encoding/json does —
// \uXXXX with surrogate pairs, unpaired surrogates and invalid UTF-8
// collapsing to U+FFFD.
func (s *lineScanner) decodeString(start int) ([]byte, error) {
	out := make([]byte, 0, len(s.buf)-start+8)
	out = append(out, s.buf[start:s.pos]...)
	i := s.pos
	for i < len(s.buf) {
		c := s.buf[i]
		switch {
		case c == '"':
			s.pos = i + 1
			return out, nil
		case c < 0x20:
			return nil, fmt.Errorf("raw control character %q in string at offset %d", c, i)
		case c == '\\':
			i++
			if i >= len(s.buf) {
				return nil, fmt.Errorf("unterminated escape at offset %d", i-1)
			}
			switch s.buf[i] {
			case '"', '\\', '/':
				out = append(out, s.buf[i])
				i++
			case 'b':
				out = append(out, '\b')
				i++
			case 'f':
				out = append(out, '\f')
				i++
			case 'n':
				out = append(out, '\n')
				i++
			case 'r':
				out = append(out, '\r')
				i++
			case 't':
				out = append(out, '\t')
				i++
			case 'u':
				r, n, err := s.decodeHexRune(i - 1)
				if err != nil {
					return nil, err
				}
				out = utf8.AppendRune(out, r)
				i += n - 1
			default:
				return nil, fmt.Errorf("invalid escape \\%c at offset %d", s.buf[i], i-1)
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s.buf[i:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, utf8.RuneError)
				i++
				continue
			}
			out = append(out, s.buf[i:i+size]...)
			i += size
		}
	}
	return nil, fmt.Errorf("unterminated string")
}

// decodeHexRune decodes the \uXXXX escape starting at offset i (the
// backslash), pairing UTF-16 surrogates; unpaired surrogates become
// U+FFFD. It returns the rune and the bytes consumed from the backslash
// on.
func (s *lineScanner) decodeHexRune(i int) (rune, int, error) {
	r1, err := hex4(s.buf, i+2)
	if err != nil {
		return 0, 0, err
	}
	if !utf16.IsSurrogate(r1) {
		return r1, 6, nil
	}
	// A high surrogate may pair with a following \uXXXX low surrogate.
	if i+12 <= len(s.buf) && s.buf[i+6] == '\\' && s.buf[i+7] == 'u' {
		r2, err := hex4(s.buf, i+8)
		if err == nil {
			if r := utf16.DecodeRune(r1, r2); r != utf8.RuneError {
				return r, 12, nil
			}
		}
	}
	return utf8.RuneError, 6, nil
}

// hex4 parses four hex digits at buf[i:].
func hex4(buf []byte, i int) (rune, error) {
	if i+4 > len(buf) {
		return 0, fmt.Errorf("truncated \\u escape at offset %d", i-2)
	}
	var r rune
	for _, c := range buf[i : i+4] {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, fmt.Errorf("invalid \\u escape digit %q at offset %d", c, i)
		}
	}
	return r, nil
}

// numberChar reports whether c can appear inside a number token.
func numberChar(c byte) bool {
	return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// isDigit reports whether c is an ASCII decimal digit.
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// maxExactMantissa is the largest decimal mantissa scanNumber scales
// itself: every integer up to 2^53 is exact in a float64.
const maxExactMantissa = 1 << 53

// scanNumber consumes a number token and parses it in one scan. The token
// is the longest run of number bytes, as a tokenizer would split it, and
// must match the RFC 8259 grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv.ParseFloat is
// wider ("01", "1.", "1.e5"), and the reader documents strict parsing — a
// malformed producer must fail here, not at the next JSON tool downstream.
//
// The scan accumulates the decimal mantissa as it checks the grammar.
// When the mantissa is at most 2^53 and the decimal exponent within ±22,
// both factors are exact float64s and one correctly rounded multiply or
// divide gives the exact-case answer of Clinger's algorithm, bit-identical
// to ParseFloat's. Every other token goes to ParseFloat.
func (s *lineScanner) scanNumber() (float64, error) {
	buf, start := s.buf, s.pos
	i := start
	neg := i < len(buf) && buf[i] == '-'
	if neg {
		i++
	}
	var mant uint64 // stops growing once past maxExactMantissa
	exp := 0        // decimal exponent applied to mant
	valid := i < len(buf) && isDigit(buf[i])
	if valid && buf[i] == '0' {
		i++ // a leading 0 is the whole integer part: "01" fails below
	} else {
		for ; i < len(buf) && isDigit(buf[i]); i++ {
			if mant <= maxExactMantissa {
				mant = mant*10 + uint64(buf[i]-'0')
			}
		}
	}
	if valid && i < len(buf) && buf[i] == '.' {
		i++
		valid = i < len(buf) && isDigit(buf[i])
		for ; i < len(buf) && isDigit(buf[i]); i++ {
			if mant <= maxExactMantissa {
				mant = mant*10 + uint64(buf[i]-'0')
			}
			exp--
		}
	}
	if valid && i < len(buf) && (buf[i] == 'e' || buf[i] == 'E') {
		i++
		expNeg := i < len(buf) && buf[i] == '-'
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			i++
		}
		valid = i < len(buf) && isDigit(buf[i])
		e := 0
		for ; i < len(buf) && isDigit(buf[i]); i++ {
			if e < 1e6 { // far outside float64 range either way
				e = e*10 + int(buf[i]-'0')
			}
		}
		if expNeg {
			e = -e
		}
		exp += e
	}
	if !valid || (i < len(buf) && numberChar(buf[i])) {
		for i < len(buf) && numberChar(buf[i]) {
			i++
		}
		s.pos = i
		return 0, fmt.Errorf("malformed number %q at offset %d", buf[start:i], start)
	}
	s.pos = i
	if mant <= maxExactMantissa && exp >= -22 && exp <= 22 {
		f := float64(mant)
		if exp < 0 {
			f /= exactPow10[-exp]
		} else {
			f *= exactPow10[exp]
		}
		if neg {
			f = -f
		}
		return f, nil
	}
	v, err := strconv.ParseFloat(string(buf[start:i]), 64)
	if err != nil {
		// The token passed the grammar, so only ErrRange is left.
		return 0, &numberRangeError{tok: string(buf[start:i]), off: start}
	}
	return v, nil
}

// numberRangeError is scanNumber's error for a well-formed number outside
// float64 range. It reads as every other malformed number; its type lets
// a walker that checks syntax only accept the token.
type numberRangeError struct {
	tok string
	off int
}

func (e *numberRangeError) Error() string {
	return fmt.Sprintf("malformed number %q at offset %d", e.tok, e.off)
}

// scanLiteral consumes the given keyword (true/false/null).
func (s *lineScanner) scanLiteral(word string) error {
	if len(s.buf)-s.pos < len(word) || string(s.buf[s.pos:s.pos+len(word)]) != word {
		return s.syntaxErr(fmt.Sprintf("%q", word))
	}
	s.pos += len(word)
	if s.pos < len(s.buf) {
		if c := s.buf[s.pos]; c != ',' && c != '}' && c != ']' && !isJSONSpace(c) {
			return fmt.Errorf("unexpected character %q after %q at offset %d", c, word, s.pos)
		}
	}
	return nil
}

// rowDecoder is the schema-directed object decoder shared by the NDJSON
// feed reader and the /score request parser: it owns a private copy of the
// schema, the name index over it, per-column decoding state and the
// reusable row buffer one {...} object decodes into. Duplicate keys within
// one object are rejected via per-column generation marks, so a decode
// never silently resolves {"aadt":1,"aadt":9} last-wins the way a Go map
// would.
type rowDecoder struct {
	attrs  []Attribute
	byName map[string]int
	cols   []decodeCol
	rowBuf []float64
	gen    int
}

// decodeCol is one column's decoding state.
type decodeCol struct {
	// quoted is the name as a JSON string token, quotes included, when
	// its raw bytes decode to the name and the name resolves to this
	// column; nil otherwise (names needing escapes, a name repeated in the
	// schema before its last column), which leaves the key to the
	// scanString + byName fallback.
	quoted []byte
	levels map[string]int // nominal level name -> index
	seen   int            // generation mark for duplicate-key checks
}

// newRowDecoder deep-copies the schema and builds the decoding indexes.
// Nominal level sets grow as new level names appear in the data; the
// caller's attrs are never mutated. The decoder is returned by value for
// its owner to embed, and the quoted names share one backing array, so a
// reader built per request allocates neither per column nor for the
// decoder itself.
func newRowDecoder(attrs []Attribute) rowDecoder {
	copied := make([]Attribute, len(attrs))
	byName := make(map[string]int, len(attrs))
	cols := make([]decodeCol, len(attrs))
	size := 0
	for j, a := range attrs {
		copied[j] = Attribute{Name: a.Name, Kind: a.Kind, Levels: append([]string(nil), a.Levels...)}
		byName[a.Name] = j
		size += len(a.Name) + 2
		if a.Kind == Nominal {
			idx := make(map[string]int, len(a.Levels))
			for l, name := range a.Levels {
				idx[name] = l
			}
			cols[j].levels = idx
		}
	}
	quoted := make([]byte, 0, size)
	for j, a := range attrs {
		lo := len(quoted)
		quoted = AppendJSONString(quoted, a.Name)
		if byName[a.Name] != j || string(quoted[lo+1:len(quoted)-1]) != a.Name {
			quoted = quoted[:lo]
			continue
		}
		cols[j].quoted = quoted[lo:]
	}
	return rowDecoder{
		attrs:  copied,
		byName: byName,
		cols:   cols,
		rowBuf: make([]float64, len(copied)),
	}
}

// missingRow fills rowBuf with missing markers and returns it — the decode
// of an explicit null row.
func (d *rowDecoder) missingRow() []float64 {
	for j := range d.rowBuf {
		d.rowBuf[j] = Missing
	}
	return d.rowBuf
}

// parseObject decodes one {...} object from the scanner into rowBuf
// (schema order, absent keys missing), scanning left to right. Keys are
// resolved in document order, so unknown attributes and duplicate keys
// within one object are rejected with the offending name. Writers emit
// keys in schema order, so each key is first compared with the quoted name
// of the column after the previous key's; only on a miss is it decoded and
// looked up by name. Any key order is valid. The scanner is left just past
// the closing '}'; trailing-data policy is the caller's.
func (d *rowDecoder) parseObject(s *lineScanner) error {
	for j := range d.rowBuf {
		d.rowBuf[j] = Missing
	}
	d.gen++
	s.skipSpace()
	if !s.eat('{') {
		return s.syntaxErr("'{'")
	}
	s.skipSpace()
	if s.eat('}') {
		return nil
	}
	next := 0 // the column whose quoted name is tried first
	for {
		var key []byte
		j := -1
		if next < len(d.cols) {
			if q := d.cols[next].quoted; q != nil && bytes.HasPrefix(s.buf[s.pos:], q) {
				j, key = next, q[1:len(q)-1]
				s.pos += len(q)
			}
		}
		if j < 0 {
			var err error
			if key, err = s.scanString(); err != nil {
				return err
			}
			var ok bool
			if j, ok = d.byName[string(key)]; !ok {
				return fmt.Errorf("unknown attribute %q", key)
			}
		}
		if d.cols[j].seen == d.gen {
			return fmt.Errorf("duplicate attribute %q", key)
		}
		d.cols[j].seen = d.gen
		next = j + 1
		s.skipSpace()
		if !s.eat(':') {
			return s.syntaxErr("':'")
		}
		if err := d.scanValue(s, j); err != nil {
			return err
		}
		s.skipSpace()
		if s.eat(',') {
			s.skipSpace()
			continue
		}
		if s.eat('}') {
			return nil
		}
		return s.syntaxErr("',' or '}'")
	}
}

// parseLine decodes one NDJSON object into rowBuf via the shared row
// decoder, enforcing the line rule that nothing but whitespace may follow
// the object.
func (r *NDJSONBatchReader) parseLine(line []byte) error {
	s := lineScanner{buf: line}
	if err := r.dec.parseObject(&s); err != nil {
		return fmt.Errorf("data: NDJSON row %d: %v", r.row, err)
	}
	s.skipSpace()
	if s.pos != len(s.buf) {
		return fmt.Errorf("data: NDJSON row %d: trailing data %q after object", r.row, s.buf[s.pos:])
	}
	return nil
}

// scanValue consumes one value and stores attribute j's column value in
// rowBuf (null leaves the missing marker in place). Value conventions per
// kind match the documented feed format: numbers for interval attributes
// (or a parsable numeric string), level names for nominal attributes
// (unseen names are interned as new levels), and 0/1, true/false or the
// strings "0"/"1"/"true"/"false"/"yes"/"no" for binary attributes.
func (d *rowDecoder) scanValue(s *lineScanner, j int) error {
	s.skipSpace()
	at := &d.attrs[j]
	if s.pos >= len(s.buf) {
		return s.syntaxErr("a value")
	}
	switch c := s.buf[s.pos]; {
	case c == '"':
		raw, err := s.scanString()
		if err != nil {
			return err
		}
		switch at.Kind {
		case Nominal:
			idx, ok := d.cols[j].levels[string(raw)]
			if !ok {
				idx = len(at.Levels)
				at.Levels = append(at.Levels, string(raw))
				d.cols[j].levels[string(raw)] = idx
			}
			d.rowBuf[j] = float64(idx)
		case Binary:
			v, err := parseBinaryWord(raw)
			if err != nil {
				return fmt.Errorf("binary attribute %q got %q", at.Name, raw)
			}
			d.rowBuf[j] = v
		default:
			f, err := strconv.ParseFloat(string(raw), 64)
			if err != nil {
				return fmt.Errorf("interval attribute %q got %q", at.Name, raw)
			}
			d.rowBuf[j] = f
		}
	case c == '-' || (c >= '0' && c <= '9'):
		v, err := s.scanNumber()
		if err != nil {
			return err
		}
		switch at.Kind {
		case Nominal:
			return fmt.Errorf("nominal attribute %q wants a level name, got number %v", at.Name, v)
		case Binary:
			if v != 0 && v != 1 {
				return fmt.Errorf("binary attribute %q got %v", at.Name, v)
			}
		}
		d.rowBuf[j] = v
	case c == 't' || c == 'f':
		word := "true"
		v := 1.0
		if c == 'f' {
			word, v = "false", 0
		}
		if err := s.scanLiteral(word); err != nil {
			return err
		}
		if at.Kind != Binary {
			return fmt.Errorf("attribute %q is %s, got a boolean", at.Name, at.Kind)
		}
		d.rowBuf[j] = v
	case c == 'n':
		return s.scanLiteral("null") // missing: rowBuf keeps its marker
	case c == '{':
		return fmt.Errorf("attribute %q has unsupported value type object", at.Name)
	case c == '[':
		return fmt.Errorf("attribute %q has unsupported value type array", at.Name)
	default:
		return s.syntaxErr("a value")
	}
	return nil
}

// parseBinaryWord maps the accepted binary string forms to 0/1.
func parseBinaryWord(raw []byte) (float64, error) {
	switch len(raw) {
	case 1:
		switch raw[0] {
		case '0':
			return 0, nil
		case '1':
			return 1, nil
		}
	case 2:
		if lowerEq(raw, "no") {
			return 0, nil
		}
	case 3:
		if lowerEq(raw, "yes") {
			return 1, nil
		}
	case 4:
		if lowerEq(raw, "true") {
			return 1, nil
		}
	case 5:
		if lowerEq(raw, "false") {
			return 0, nil
		}
	}
	return 0, fmt.Errorf("not a binary word")
}

// lowerEq reports whether raw equals the lowercase word ASCII
// case-insensitively.
func lowerEq(raw []byte, word string) bool {
	for i := 0; i < len(word); i++ {
		if raw[i]|0x20 != word[i] {
			return false
		}
	}
	return true
}

const hexDigits = "0123456789abcdef"

// AppendJSONFloat appends f exactly as encoding/json's float64 encoder
// does: ES6 number-to-string conversion — %f inside [1e-6, 1e21), %e
// outside, with single-digit exponents unpadded (1e-7, not 1e-07). It is
// the one number spelling of every JSON writer in the system: /score and
// /score/stream risks, NDJSON rows and the offline score CSV. The caller
// guarantees f is finite (JSON has no NaN or infinity literal).
func AppendJSONFloat(buf []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(buf)
		if n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// AppendJSONString appends the JSON encoding of s (quotes included)
// exactly as encoding/json does with its default HTML escaping: quotes,
// backslashes and control characters escaped (\b \f \n \r \t
// shorthands), <, > and & as \u00XX, U+2028/U+2029 escaped, and invalid
// UTF-8 emitted as the six-byte \ufffd escape. strconv.AppendQuote is no
// substitute: its Go escapes — \x7f for DEL, \U000e0000 for unprintable
// astral runes — are not JSON, so a writer quoting attribute names or
// nominal levels with it produces lines its own reader rejects.
func AppendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				buf = append(buf, c)
				i++
				continue
			}
			switch c {
			case '"', '\\':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, `\ufffd`...)
			i++
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			continue
		}
		buf = append(buf, s[i:i+size]...)
		i += size
	}
	return append(buf, '"')
}
