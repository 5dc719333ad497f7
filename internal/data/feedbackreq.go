package data

import (
	"bytes"
	"errors"
)

// This file is the hand-rolled parser behind POST /feedback. It decodes a
// {"model":..., "version":..., "labels":[{"segment_id":..., "crash_prone":
// ...}, ...]} body in one left-to-right pass into reusable columns, with
// the scanner and structural walker of the /score parser. It accepts and
// decodes exactly what json.Unmarshal into the equivalent struct (string
// model and version, a slice of {*float64, *bool} labels) does:
//
//   - a key selects a field when it equals the field name under
//     bytes.EqualFold after escape decoding, as encoding/json matches
//     struct fields; any other key is skipped, at any depth up to the
//     10000-level cap, and its numbers are not converted;
//   - a later duplicate key wins. A repeated "labels" array decodes into
//     the elements the earlier one left, as encoding/json reuses the
//     slice: a field the later element omits keeps its earlier value;
//   - null leaves model and version unchanged, leaves a label element as
//     it was (empty unless an earlier "labels" array filled it), resets
//     the labels to none, and makes segment_id or crash_prone missing;
//   - a value of the wrong type, or a segment_id outside float64 range,
//     is an error, as is anything after the top-level value but JSON
//     whitespace (which a json.Decoder would leave unread).

// FeedbackRequest is one decoded POST /feedback body. Label i grades
// segment IDs[i] with outcome Labels[i], 1 for crash-prone and 0 for not;
// Missing marks a segment_id or crash_prone that was null or absent.
// ParseFeedbackRequest reuses the columns' storage from one body to the
// next.
type FeedbackRequest struct {
	Model   string
	Version string
	IDs     []float64
	Labels  []float64
}

// feedbackDepth and labelDepth are the nesting around a top-level field
// value (the request object) and around a label field value (the request
// object, the labels array and the label object).
const (
	feedbackDepth = 1
	labelDepth    = 3
)

// ParseFeedbackRequest decodes one /feedback body into r, replacing what
// r held. Every error means the body was malformed; a body that decodes
// may still lack a model name or labels, which is the caller's check.
func ParseFeedbackRequest(body []byte, r *FeedbackRequest) error {
	s := lineScanner{buf: body}
	var model, version []byte
	// ids and ys hold one slot per label decoded since the labels were
	// last reset; the first n are the current labels, and a repeated
	// "labels" array decodes into the slots from the start.
	ids, ys := r.IDs[:0], r.Labels[:0]
	n := 0
	s.skipSpace()
	switch {
	case s.pos < len(s.buf) && s.buf[s.pos] == 'n':
		if err := s.scanLiteral("null"); err != nil {
			return err
		}
	case s.eat('{'):
		s.skipSpace()
		if s.eat('}') {
			break
		}
		for {
			key, err := s.scanString()
			if err != nil {
				return err
			}
			s.skipSpace()
			if !s.eat(':') {
				return s.syntaxErr("':'")
			}
			s.skipSpace()
			switch {
			case bytes.EqualFold(key, []byte("model")):
				if model, err = scanStringOrNull(&s, model); err != nil {
					return err
				}
			case bytes.EqualFold(key, []byte("version")):
				if version, err = scanStringOrNull(&s, version); err != nil {
					return err
				}
			case bytes.EqualFold(key, []byte("labels")):
				if ids, ys, n, err = parseLabels(&s, ids, ys); err != nil {
					return err
				}
			default:
				if err := skipValue(&s, feedbackDepth, false); err != nil {
					return err
				}
			}
			s.skipSpace()
			if s.eat(',') {
				s.skipSpace()
				continue
			}
			if s.eat('}') {
				break
			}
			return s.syntaxErr("',' or '}'")
		}
	default:
		return s.syntaxErr("'{'")
	}
	s.skipSpace()
	if s.pos != len(s.buf) {
		return errors.New("trailing data after request object")
	}
	// A pooled request usually sees the same names again; comparing
	// first keeps the steady state free of string allocations.
	if string(model) != r.Model {
		r.Model = string(model)
	}
	if string(version) != r.Version {
		r.Version = string(version)
	}
	r.IDs, r.Labels = ids[:n], ys[:n]
	return nil
}

// scanStringOrNull consumes a string field's value: a string replaces
// prev, null keeps it.
func scanStringOrNull(s *lineScanner, prev []byte) ([]byte, error) {
	if s.pos < len(s.buf) && s.buf[s.pos] == 'n' {
		return prev, s.scanLiteral("null")
	}
	if s.pos < len(s.buf) && s.buf[s.pos] != '"' {
		return nil, errors.New("model and version must be strings")
	}
	return s.scanString()
}

// parseLabels consumes the labels value into the columns ids and ys (see
// ParseFeedbackRequest) and returns them with the label count. Null and
// an empty array reset the columns.
func parseLabels(s *lineScanner, ids, ys []float64) ([]float64, []float64, int, error) {
	if s.pos < len(s.buf) && s.buf[s.pos] == 'n' {
		return ids[:0], ys[:0], 0, s.scanLiteral("null")
	}
	if !s.eat('[') {
		return ids, ys, 0, errors.New("labels must be an array")
	}
	s.skipSpace()
	if s.eat(']') {
		return ids[:0], ys[:0], 0, nil
	}
	for n := 0; ; {
		s.skipSpace()
		if n == len(ids) {
			ids, ys = append(ids, Missing), append(ys, Missing)
		}
		var err error
		switch {
		case s.pos < len(s.buf) && s.buf[s.pos] == 'n':
			err = s.scanLiteral("null")
		case s.eat('{'):
			err = parseLabel(s, &ids[n], &ys[n])
		default:
			err = errors.New("a label must be an object")
		}
		if err != nil {
			return ids, ys, n, err
		}
		n++
		s.skipSpace()
		if s.eat(',') {
			continue
		}
		if s.eat(']') {
			return ids, ys, n, nil
		}
		return ids, ys, n, s.syntaxErr("',' or ']'")
	}
}

// parseLabel consumes one label object after its '{', storing the fields
// it names into *id and *y.
func parseLabel(s *lineScanner, id, y *float64) error {
	s.skipSpace()
	if s.eat('}') {
		return nil
	}
	for {
		key, err := s.scanString()
		if err != nil {
			return err
		}
		s.skipSpace()
		if !s.eat(':') {
			return s.syntaxErr("':'")
		}
		s.skipSpace()
		var c byte
		if s.pos < len(s.buf) {
			c = s.buf[s.pos]
		}
		switch {
		case bytes.EqualFold(key, []byte("segment_id")):
			switch {
			case c == 'n':
				*id = Missing
				err = s.scanLiteral("null")
			case c == '-' || isDigit(c):
				*id, err = s.scanNumber()
			default:
				err = errors.New("segment_id must be a number")
			}
		case bytes.EqualFold(key, []byte("crash_prone")):
			switch c {
			case 'n':
				*y = Missing
				err = s.scanLiteral("null")
			case 't':
				*y = 1
				err = s.scanLiteral("true")
			case 'f':
				*y = 0
				err = s.scanLiteral("false")
			default:
				err = errors.New("crash_prone must be a boolean")
			}
		default:
			err = skipValue(s, labelDepth, false)
		}
		if err != nil {
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
