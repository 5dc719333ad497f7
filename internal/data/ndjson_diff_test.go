package data

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"
	"unicode/utf16"
	"unicode/utf8"
)

// refLineScanner and refRowDecoder are a frozen copy of the row decoder as
// it stood before the one-pass fast paths: every key through scanString
// plus the byName map, every number through a numberChar scan, a separate
// grammar check and strconv.ParseFloat. FuzzRowDecoderDifferential drives
// it and the live decoder with the same bytes; wherever they are promised
// identical (error text, end offset, row values, interned levels) they
// must agree exactly. The pure helpers the two share unchanged (hex4,
// parseBinaryWord, lowerEq) are not copied.
type refLineScanner struct {
	buf []byte
	pos int
}

func (s *refLineScanner) skipSpace() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func (s *refLineScanner) eat(c byte) bool {
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

func (s *refLineScanner) syntaxErr(want string) error {
	if s.pos >= len(s.buf) {
		return fmt.Errorf("unexpected end of object, want %s", want)
	}
	return fmt.Errorf("unexpected character %q at offset %d, want %s", s.buf[s.pos], s.pos, want)
}

func (s *refLineScanner) scanString() ([]byte, error) {
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

func (s *refLineScanner) decodeString(start int) ([]byte, error) {
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

func (s *refLineScanner) decodeHexRune(i int) (rune, int, error) {
	r1, err := hex4(s.buf, i+2)
	if err != nil {
		return 0, 0, err
	}
	if !utf16.IsSurrogate(r1) {
		return r1, 6, nil
	}
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

func refNumberChar(c byte) bool {
	return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

func refValidJSONNumber(tok []byte) bool {
	i := 0
	if i < len(tok) && tok[i] == '-' {
		i++
	}
	switch {
	case i < len(tok) && tok[i] == '0':
		i++
	case i < len(tok) && tok[i] >= '1' && tok[i] <= '9':
		for i < len(tok) && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	default:
		return false
	}
	if i < len(tok) && tok[i] == '.' {
		i++
		if i >= len(tok) || tok[i] < '0' || tok[i] > '9' {
			return false
		}
		for i < len(tok) && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		if i >= len(tok) || tok[i] < '0' || tok[i] > '9' {
			return false
		}
		for i < len(tok) && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	}
	return i == len(tok)
}

func (s *refLineScanner) scanNumber() (float64, error) {
	start := s.pos
	for s.pos < len(s.buf) && refNumberChar(s.buf[s.pos]) {
		s.pos++
	}
	tok := s.buf[start:s.pos]
	if !refValidJSONNumber(tok) {
		return 0, fmt.Errorf("malformed number %q at offset %d", tok, start)
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("malformed number %q at offset %d", tok, start)
	}
	return v, nil
}

func (s *refLineScanner) scanLiteral(word string) error {
	if len(s.buf)-s.pos < len(word) || string(s.buf[s.pos:s.pos+len(word)]) != word {
		return s.syntaxErr(fmt.Sprintf("%q", word))
	}
	s.pos += len(word)
	if s.pos < len(s.buf) {
		if c := s.buf[s.pos]; c != ',' && c != '}' && c != ']' && c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return fmt.Errorf("unexpected character %q after %q at offset %d", c, word, s.pos)
		}
	}
	return nil
}

type refRowDecoder struct {
	attrs      []Attribute
	byName     map[string]int
	levelIndex []map[string]int
	rowBuf     []float64
	seen       []int
	gen        int
}

func newRefRowDecoder(attrs []Attribute) *refRowDecoder {
	copied := make([]Attribute, len(attrs))
	byName := make(map[string]int, len(attrs))
	levelIndex := make([]map[string]int, len(attrs))
	for j, a := range attrs {
		copied[j] = Attribute{Name: a.Name, Kind: a.Kind, Levels: append([]string(nil), a.Levels...)}
		byName[a.Name] = j
		if a.Kind == Nominal {
			idx := make(map[string]int, len(a.Levels))
			for l, name := range a.Levels {
				idx[name] = l
			}
			levelIndex[j] = idx
		}
	}
	return &refRowDecoder{
		attrs:      copied,
		byName:     byName,
		levelIndex: levelIndex,
		rowBuf:     make([]float64, len(copied)),
		seen:       make([]int, len(copied)),
	}
}

func (d *refRowDecoder) parseObject(s *refLineScanner) error {
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
	for {
		key, err := s.scanString()
		if err != nil {
			return err
		}
		j, ok := d.byName[string(key)]
		if !ok {
			return fmt.Errorf("unknown attribute %q", key)
		}
		if d.seen[j] == d.gen {
			return fmt.Errorf("duplicate attribute %q", key)
		}
		d.seen[j] = d.gen
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

func (d *refRowDecoder) scanValue(s *refLineScanner, j int) error {
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
			idx, ok := d.levelIndex[j][string(raw)]
			if !ok {
				idx = len(at.Levels)
				at.Levels = append(at.Levels, string(raw))
				d.levelIndex[j][string(raw)] = idx
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
		return s.scanLiteral("null")
	case c == '{':
		return fmt.Errorf("attribute %q has unsupported value type object", at.Name)
	case c == '[':
		return fmt.Errorf("attribute %q has unsupported value type array", at.Name)
	default:
		return s.syntaxErr("a value")
	}
	return nil
}

// diffSchema covers every attribute kind and names in and out of the key
// fast path: one needing escapes, one in invalid UTF-8 (a key can never
// decode to it), one non-ASCII, the empty name, and a name repeated in the
// schema, which resolves to its last column. The shadowed "twice" follows
// a reachable column, so a fast path that matched it would show.
var diffSchema = []Attribute{
	{Name: "aadt", Kind: Interval},
	{Name: "surface", Kind: Nominal, Levels: []string{"dry", "wet"}},
	{Name: "lit", Kind: Binary},
	{Name: "twice", Kind: Interval},
	{Name: "say \"hi\"\\", Kind: Interval},
	{Name: "caf\u00e9", Kind: Nominal},
	{Name: "bad\xffname", Kind: Binary},
	{Name: "speed", Kind: Interval},
	{Name: "twice", Kind: Nominal},
	{Name: "", Kind: Interval},
}

// FuzzRowDecoderDifferential feeds the same bytes to the live row decoder
// and the frozen copy above. Input is split on newlines and each piece is
// decoded as one object by long-lived decoders, so generation marks and
// level interning carry across rows as they do in a stream. Every piece
// must give the same error text, end offset, row bits and interned level
// set; the piece is also read as a bare number token, which must agree in
// value bits, error text and end offset.
func FuzzRowDecoderDifferential(f *testing.F) {
	seeds := []string{
		// Schema order, the fast path for every key that has one.
		`{"aadt":4200,"surface":"dry","lit":true,"say \"hi\"\\":1,"café":"x","bad\ud800name":0,"speed":80,"twice":"a","":-1}`,
		`{"lit":true,"twice":"b"}`,
		`{"café":"x","bad\ufffdname":0}`,
		"{\"café\":\"x\",\"bad\uFFFDname\":0}",
		// Any order, skipped columns, escaped and raw spellings of one name.
		"{\"speed\":1.5,\"aadt\":2}\n{\"caf\\u00e9\":\"y\",\"lit\":\"no\"}\n{\"surface\":\"wet\",\"speed\":null}",
		// Duplicates through the fast path and through the fallback.
		`{"aadt":1,"aadt":2}`,
		`{"surface":"a","aadt":1,"surface":"b"}`,
		`{"twice":1}`,
		"{\"bad\xffname\":1}",
		// Prefixes of a quoted name that are not the name.
		`{"aad":1}`, `{"aadtt":1}`, `{"aadt`, `{"aadt"`, `{"aadt":`,
		// Numbers on and off the exact path, and the malformed set.
		`{"aadt":9007199254740992,"speed":9007199254740993}`,
		`{"aadt":1e22,"speed":1e23}`,
		`{"aadt":0.0000000000000000000001,"speed":0.00000000000000000000001}`,
		`{"aadt":-0,"speed":-0.0}`,
		`{"aadt":2.5e-3,"speed":5e-324}`,
		`{"aadt":1e400}`,
		`{"aadt":12345678901234567890}`,
		`{"aadt":01}`, `{"aadt":1.}`, `{"aadt":.5}`, `{"aadt":-}`, `{"aadt":1e+}`, `{"aadt":1.e5}`, `{"aadt":1e5e5}`,
		"-12.5E+3", "0", "-0.000", "123456789012345678901234567890e-30",
		// Whitespace in every slot, and bytes that are not JSON whitespace.
		" \t{ \"aadt\" :\r1 , \"lit\" : false }\t ",
		"\v{\"aadt\":1}", "{\"aadt\":1\f}",
		// Literals and unsupported values.
		`{"lit":nul}`, `{"lit":truex}`, `{"aadt":{}}`, `{"aadt":[]}`, `{"aadt":+1}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		dec, ref := newRowDecoder(diffSchema), newRefRowDecoder(diffSchema)
		for _, piece := range bytes.Split([]byte(in), []byte("\n")) {
			s, rs := lineScanner{buf: piece}, refLineScanner{buf: piece}
			err, rerr := dec.parseObject(&s), ref.parseObject(&rs)
			if errText(err) != errText(rerr) || s.pos != rs.pos {
				t.Fatalf("object %q: error %q at %d, frozen decoder %q at %d", piece, errText(err), s.pos, errText(rerr), rs.pos)
			}
			for j := range dec.rowBuf {
				if math.Float64bits(dec.rowBuf[j]) != math.Float64bits(ref.rowBuf[j]) {
					t.Fatalf("object %q: column %d = %v, frozen decoder %v", piece, j, dec.rowBuf[j], ref.rowBuf[j])
				}
			}
			for j := range dec.attrs {
				if fmt.Sprint(dec.attrs[j].Levels) != fmt.Sprint(ref.attrs[j].Levels) {
					t.Fatalf("object %q: column %d levels %q, frozen decoder %q", piece, j, dec.attrs[j].Levels, ref.attrs[j].Levels)
				}
			}
			if len(piece) == 0 || (piece[0] != '-' && (piece[0] < '0' || piece[0] > '9')) {
				continue
			}
			s, rs = lineScanner{buf: piece}, refLineScanner{buf: piece}
			v, err := s.scanNumber()
			rv, rerr := rs.scanNumber()
			if math.Float64bits(v) != math.Float64bits(rv) || errText(err) != errText(rerr) || s.pos != rs.pos {
				t.Fatalf("number %q: %v (%q) at %d, frozen decoder %v (%q) at %d", piece, v, errText(err), s.pos, rv, errText(rerr), rs.pos)
			}
		}
	})
}

// errText renders an error for comparison, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
