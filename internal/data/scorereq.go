package data

import (
	"errors"
	"fmt"
)

// This file is the hand-rolled parser behind POST /score: it decodes a
// {"model":..., "segments":[{...}...]} request body in one left-to-right
// pass directly into a columnar Batch — no map[string]any, no reflection —
// using the same scanner and row-decoding machinery as the NDJSON feed
// reader, so the duplicate-key, unknown-attribute and value-kind rules are
// identical across the batch and streaming endpoints.
//
// The parser preserves the error precedence of the generic-decoder path it
// replaces: malformed JSON anywhere beats every semantic check, a missing
// model name beats segment problems, the empty-batch and batch-limit
// checks beat model resolution, model resolution beats per-segment errors.
// To keep that order without decoding everything twice, segment objects
// are decoded into the batch only once the model is known; a "segments"
// key arriving first is validated structurally, remembered by offset and
// re-scanned after the top-level object closes. A segment that is valid
// JSON but fails the schema (unknown attribute, duplicate key, wrong value
// kind) is remembered as a SegmentError while the remaining segments are
// walked structurally, so the reported segment is always the lowest bad
// one and the count checks still see the full batch size.

// ErrMissingModel reports a request without a (non-empty) model name.
var ErrMissingModel = errors.New("missing model name")

// ErrNoSegments reports a request whose segments array is absent, null or
// empty.
var ErrNoSegments = errors.New("no segments to score")

// BatchLimitError reports a segment count over the caller's limit.
type BatchLimitError struct {
	N, Limit int
}

// Error states the segment count and the limit it exceeds.
func (e *BatchLimitError) Error() string {
	return fmt.Sprintf("batch of %d exceeds the %d-segment limit", e.N, e.Limit)
}

// SegmentError locates a semantic error (unknown attribute, duplicate key,
// wrong value kind) in one segment of an otherwise well-formed request.
// Segment is the zero-based position in the segments array.
type SegmentError struct {
	Segment int
	Err     error
}

// Error prefixes the underlying error with the segment position.
func (e *SegmentError) Error() string { return fmt.Sprintf("segment %d: %v", e.Segment, e.Err) }

// Unwrap returns the underlying error, so errors.Is and errors.As see it.
func (e *SegmentError) Unwrap() error { return e.Err }

// maxScoreDepth caps JSON nesting while structurally skipping unknown
// values, matching encoding/json's 10000-level decoder limit so a deeply
// nested body fails the same way on both paths.
const maxScoreDepth = 10000

// segmentDepth is the nesting around one /score segment: the request
// object and the segments array.
const segmentDepth = 2

// ScoreRequestParser owns the reusable decoding state for one model's
// /score requests: a schema-directed row decoder and the columnar batch
// segments decode into. A parser is single-use at a time (the batch is
// reset per request) but may be reused across sequential requests — level
// names discovered in one request stay interned for the next, exactly like
// a long-lived NDJSON reader. It must not be shared across goroutines.
type ScoreRequestParser struct {
	dec   rowDecoder
	batch *Batch
}

// NewScoreRequestParser builds a parser decoding segments into the given
// schema (for scoring, the model's training schema). The schema is
// deep-copied; nominal level sets grow as unseen level names appear.
func NewScoreRequestParser(attrs []Attribute) *ScoreRequestParser {
	dec := newRowDecoder(attrs)
	return &ScoreRequestParser{dec: dec, batch: NewBatch(dec.attrs, 256)}
}

// InternedLevels returns the total nominal level names currently interned.
// Callers pooling parsers across requests use it to retire instances that
// adversarial traffic has bloated with unique level strings.
func (p *ScoreRequestParser) InternedLevels() int {
	n := 0
	for _, a := range p.dec.attrs {
		n += len(a.Levels)
	}
	return n
}

// ParseScoreRequest decodes one /score request body. resolve is called at
// most once, with the request's model name, and returns the parser for
// that model (or an error, e.g. unknown model, which is propagated
// verbatim once the empty-batch and limit checks have passed). On success
// the returned batch — owned by the resolved parser and valid until its
// next use — holds every segment as one row in schema order.
//
// Error precedence matches the generic-decoder path this replaces:
// malformed JSON (including unknown or duplicate top-level fields and
// trailing data after the object) beats ErrMissingModel, which beats
// ErrNoSegments, which beats BatchLimitError, which beats the resolve
// error, which beats the lowest SegmentError.
func ParseScoreRequest(body []byte, maxSegments int, resolve func(model string) (*ScoreRequestParser, error)) (string, *Batch, error) {
	s := lineScanner{buf: body}
	s.skipSpace()
	if !s.eat('{') {
		return "", nil, s.syntaxErr("'{'")
	}
	var (
		model                   string
		haveModel, haveSegments bool
		segStart                = -1 // deferred segments offset, -1 when decoded inline
		parser                  *ScoreRequestParser
		resolveErr              error
		resolved                bool
		count                   int
		segErr                  error
	)
	s.skipSpace()
	if !s.eat('}') {
		for {
			key, err := s.scanString()
			if err != nil {
				return model, nil, err
			}
			s.skipSpace()
			if !s.eat(':') {
				return model, nil, s.syntaxErr("':'")
			}
			switch {
			case string(key) == "model":
				if haveModel {
					return model, nil, errors.New(`duplicate field "model"`)
				}
				haveModel = true
				s.skipSpace()
				if s.pos < len(s.buf) && s.buf[s.pos] == 'n' {
					if err := s.scanLiteral("null"); err != nil {
						return model, nil, err
					}
				} else {
					raw, err := s.scanString()
					if err != nil {
						return model, nil, err
					}
					model = string(raw)
				}
			case string(key) == "segments":
				if haveSegments {
					return model, nil, errors.New(`duplicate field "segments"`)
				}
				haveSegments = true
				if haveModel && model != "" {
					parser, resolveErr = resolve(model)
					resolved = true
					p := parser
					if resolveErr != nil {
						p = nil // structural walk only: count for the limit checks
					}
					count, segErr, err = parseSegments(&s, p, maxSegments)
				} else {
					// Model not known yet: validate structurally now (so
					// malformed JSON keeps precedence over a missing model
					// name) and re-scan from here once it is.
					segStart = s.pos
					_, _, err = parseSegments(&s, nil, maxSegments)
				}
				if err != nil {
					return model, nil, err
				}
			default:
				return model, nil, fmt.Errorf("unknown field %q", key)
			}
			s.skipSpace()
			if s.eat(',') {
				s.skipSpace()
				continue
			}
			if s.eat('}') {
				break
			}
			return model, nil, s.syntaxErr("',' or '}'")
		}
	}
	s.skipSpace()
	if s.pos != len(s.buf) {
		return model, nil, fmt.Errorf("trailing data after request object")
	}
	if model == "" {
		return model, nil, ErrMissingModel
	}
	if segStart >= 0 {
		if !resolved {
			parser, resolveErr = resolve(model)
			resolved = true
		}
		p := parser
		if resolveErr != nil {
			p = nil
		}
		s2 := lineScanner{buf: body, pos: segStart}
		var err error
		count, segErr, err = parseSegments(&s2, p, maxSegments)
		if err != nil {
			return model, nil, err
		}
	}
	if count == 0 {
		return model, nil, ErrNoSegments
	}
	if count > maxSegments {
		return model, nil, &BatchLimitError{N: count, Limit: maxSegments}
	}
	if resolveErr != nil {
		return model, nil, resolveErr
	}
	if segErr != nil {
		return model, nil, segErr
	}
	return model, parser.batch, nil
}

// parseSegments walks the segments value. With a parser it decodes each
// object element into the parser's batch; with nil it validates JSON
// syntax only. count is the element count, segErr the first semantic error
// (lowest segment), err a syntax error that fails the whole request as
// malformed. A null value means no segments; a null element is an
// all-missing row, as the generic decoder scored it.
func parseSegments(s *lineScanner, p *ScoreRequestParser, maxSegments int) (count int, segErr error, err error) {
	s.skipSpace()
	if s.pos < len(s.buf) && s.buf[s.pos] == 'n' {
		return 0, nil, s.scanLiteral("null")
	}
	if !s.eat('[') {
		return 0, nil, s.syntaxErr("'['")
	}
	if p != nil {
		p.batch.Reset()
	}
	s.skipSpace()
	if s.eat(']') {
		return 0, nil, nil
	}
	for {
		s.skipSpace()
		typed := p != nil && segErr == nil && count < maxSegments
		switch {
		case s.pos < len(s.buf) && s.buf[s.pos] == 'n':
			if err := s.scanLiteral("null"); err != nil {
				return count, segErr, err
			}
			if typed {
				p.batch.AppendRow(p.dec.missingRow())
			}
		case s.pos >= len(s.buf) || s.buf[s.pos] != '{':
			// Any other element shape was a decode error — malformed — on
			// the generic path, never a per-segment error.
			return count, segErr, s.syntaxErr("'{'")
		case typed:
			start := s.pos
			if perr := p.dec.parseObject(s); perr != nil {
				// Rewind and re-walk structurally: valid JSON that failed
				// the schema is this segment's error and the remaining
				// segments still need counting; invalid JSON fails the
				// whole request as malformed.
				s.pos = start
				if err := skipValue(s, segmentDepth, true); err != nil {
					return count, segErr, err
				}
				segErr = &SegmentError{Segment: count, Err: perr}
			} else {
				p.batch.AppendRow(p.dec.rowBuf)
			}
		default:
			if err := skipValue(s, segmentDepth, true); err != nil {
				return count, segErr, err
			}
		}
		count++
		s.skipSpace()
		if s.eat(',') {
			continue
		}
		if s.eat(']') {
			return count, segErr, nil
		}
		return count, segErr, s.syntaxErr("',' or ']'")
	}
}

// skipValue consumes one JSON value of any shape, validating syntax only.
// It runs the same token scanners as the typed path (same string, number
// and literal grammar) so "malformed" means the same thing on both, and is
// iterative with an explicit container stack, so input nesting cannot
// overflow the goroutine stack. depth is the number of containers already
// open around the value; with it the total nesting is capped at
// maxScoreDepth, as encoding/json caps it. convert also rejects numbers
// outside float64 range, as encoding/json does wherever it converts them:
// every number inside a /score segment, but none in a field it skips.
func skipValue(s *lineScanner, depth int, convert bool) error {
	var depthBuf [16]byte
	stack := depthBuf[:0] // one byte per open container: '{' or '['
	for {
		s.skipSpace()
		if s.pos >= len(s.buf) {
			return s.syntaxErr("a value")
		}
		closed := false // did this iteration complete a value?
		switch c := s.buf[s.pos]; {
		case c == '{':
			s.pos++
			if depth+len(stack) >= maxScoreDepth {
				return fmt.Errorf("exceeded max depth of %d", maxScoreDepth)
			}
			stack = append(stack, '{')
			s.skipSpace()
			if s.eat('}') {
				stack = stack[:len(stack)-1]
				closed = true
			} else {
				if _, err := s.scanString(); err != nil {
					return err
				}
				s.skipSpace()
				if !s.eat(':') {
					return s.syntaxErr("':'")
				}
			}
		case c == '[':
			s.pos++
			if depth+len(stack) >= maxScoreDepth {
				return fmt.Errorf("exceeded max depth of %d", maxScoreDepth)
			}
			stack = append(stack, '[')
			s.skipSpace()
			if s.eat(']') {
				stack = stack[:len(stack)-1]
				closed = true
			}
		case c == '"':
			if _, err := s.scanString(); err != nil {
				return err
			}
			closed = true
		case c == '-' || (c >= '0' && c <= '9'):
			if _, err := s.scanNumber(); err != nil {
				if _, outOfRange := err.(*numberRangeError); convert || !outOfRange {
					return err
				}
			}
			closed = true
		case c == 't':
			if err := s.scanLiteral("true"); err != nil {
				return err
			}
			closed = true
		case c == 'f':
			if err := s.scanLiteral("false"); err != nil {
				return err
			}
			closed = true
		case c == 'n':
			if err := s.scanLiteral("null"); err != nil {
				return err
			}
			closed = true
		default:
			return s.syntaxErr("a value")
		}
		if !closed {
			continue
		}
		// A value just finished: consume separators and closers until the
		// next value is due or every container is closed.
		for {
			if len(stack) == 0 {
				return nil
			}
			s.skipSpace()
			if stack[len(stack)-1] == '{' {
				if s.eat(',') {
					s.skipSpace()
					if _, err := s.scanString(); err != nil {
						return err
					}
					s.skipSpace()
					if !s.eat(':') {
						return s.syntaxErr("':'")
					}
					break
				}
				if s.eat('}') {
					stack = stack[:len(stack)-1]
					continue
				}
				return s.syntaxErr("',' or '}'")
			}
			if s.eat(',') {
				break
			}
			if s.eat(']') {
				stack = stack[:len(stack)-1]
				continue
			}
			return s.syntaxErr("',' or ']'")
		}
	}
}
