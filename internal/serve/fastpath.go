package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"roadcrash/internal/artifact"
	"roadcrash/internal/data"
)

// This file is the /score fast path: pooled request state, a body reader
// that reuses its buffer, and an append-based response encoder whose
// output is byte-for-byte what json.Encoder produced on the path it
// replaced (same float formatting, same HTML-escaped strings, same
// trailing newline) — pinned by the differential suite in
// fastpath_test.go. Generic JSON decoding, not inference, was what held
// /score back; here a request costs one left-to-right parse into a
// columnar batch, one ScoreColumns call and one buffer write, with no
// per-row allocations. BenchmarkScoreFastPath measures the handler, and
// `bash perfbench/run.sh --workload score-routed` a served request end
// to end.

// scoreState is one model's per-request decoding and scoring state: the
// hand-rolled request parser over the model's request schema and a
// columnar batch scorer bound to the parser's batch schema. States are
// pooled per model — the parser interns nominal level names across
// requests exactly like a long-lived NDJSON reader, and the scorer's
// bindings stay valid because the batch schema only ever grows levels.
type scoreState struct {
	parser *data.ScoreRequestParser
	bs     *artifact.BatchScorer
}

// maxPooledLevels bounds how many nominal level names beyond the training
// schema a pooled parser may intern before it is retired instead of
// pooled, so adversarial traffic full of unique level strings cannot grow
// pool memory without bound.
const maxPooledLevels = 1024

// scoreState takes a pooled state for this model, or builds one.
func (m *Model) scoreState() *scoreState {
	if st, ok := m.statePool.Get().(*scoreState); ok {
		return st
	}
	return &scoreState{
		parser: data.NewScoreRequestParser(m.schema),
		bs:     artifact.NewBatchScorerFor(m.Scorer, m.Mapper),
	}
}

// putScoreState returns a state to the model's pool, unless traffic has
// bloated its interned level set.
func (m *Model) putScoreState(st *scoreState) {
	if st.parser.InternedLevels() > m.schemaLevels+maxPooledLevels {
		return
	}
	m.statePool.Put(st)
}

// scoreBufs is the reusable byte storage of one /score request: the body
// read buffer and the response render buffer.
type scoreBufs struct {
	body []byte
	resp []byte
}

// maxPooledBuf caps the buffer capacity returned to the pool (1 MiB); one
// outsized request must not pin tens of megabytes per pool entry forever.
const maxPooledBuf = 1 << 20

var scoreBufPool = sync.Pool{New: func() any { return new(scoreBufs) }}

func putScoreBufs(b *scoreBufs) {
	if cap(b.body) > maxPooledBuf {
		b.body = nil
	}
	if cap(b.resp) > maxPooledBuf {
		b.resp = nil
	}
	scoreBufPool.Put(b)
}

// ReadBody reads the whole request body into buf, which the caller may
// reuse across requests (nil allocates), enforcing the byte limit via
// http.MaxBytesReader so an oversized body surfaces as
// *http.MaxBytesError and closes the connection. The buffer is presized
// to the declared Content-Length, but to at most 1 MiB: a client that
// declares a length it never sends cannot make the server allocate it up
// front, and a longer body grows the buffer only as its bytes arrive.
// The router reads its batch bodies with it too, so both tiers treat a
// body alike; BodyError gives the answer to a failure.
//
// A failed read closes req.Body with the connection's reads already past
// their deadline, so net/http answers at once and then closes the
// connection. Otherwise it would first drain the rest of the body, once
// /score's handler has cleared its deadline or on an endpoint that never
// set one, and a stalled sender would hold the connection, unanswered.
func ReadBody(w http.ResponseWriter, req *http.Request, limit int64, buf []byte) ([]byte, error) {
	r := http.MaxBytesReader(w, req.Body, limit)
	buf = buf[:0]
	if n := req.ContentLength; n > 0 && n <= limit {
		// +1 so the final Read can return 0, io.EOF without a growth step.
		if want := min(n+1, maxPooledBuf); int64(cap(buf)) < want {
			buf = make([]byte, 0, want)
		}
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			http.NewResponseController(w).SetReadDeadline(time.Now())
			req.Body.Close()
			return buf, err
		}
	}
}

// BodyError is the status and error message that answer a ReadBody
// failure: 413 naming the limit for a body over it, 400 with a fixed
// message for a body still incomplete at its read deadline, and 400 for
// any other read error, such as a body that ends before its
// Content-Length. The deadline's message is fixed because the net error
// behind it names both ends of the connection, and a client learns
// nothing from the addresses.
func BodyError(err error) (int, string) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return http.StatusBadRequest, bodyDeadlineMessage
	}
	return http.StatusBadRequest, fmt.Sprintf("malformed request: %v", err)
}

// bodyDeadlineMessage answers a body that did not arrive in time.
const bodyDeadlineMessage = "request body not received before the request deadline"

// writeBodyError answers a ReadBody failure as BodyError says.
func writeBodyError(w http.ResponseWriter, err error) {
	status, msg := BodyError(err)
	writeError(w, status, msg)
}

// unknownModelError is the resolve-callback error for a model name not in
// the registry; the handler maps it to 404. %q, not plain quoting, keeps
// the message byte-identical to the old handler's for names with quotes
// or unprintables in them.
type unknownModelError string

func (e unknownModelError) Error() string { return fmt.Sprintf("unknown model %q", string(e)) }

// appendScoreResponse renders the ScoreResponse JSON exactly as
// json.Encoder.Encode rendered the struct: field order model, kind,
// scores; HTML-escaped strings; ES6-style float formatting; a trailing
// newline.
func appendScoreResponse(b []byte, model string, kind artifact.Kind, scores []float64) []byte {
	b = append(b, `{"model":`...)
	b = data.AppendJSONString(b, model)
	b = append(b, `,"kind":`...)
	b = data.AppendJSONString(b, string(kind))
	b = append(b, `,"scores":[`...)
	for i, risk := range scores {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRisk(b, risk)
	}
	return append(b, ']', '}', '\n')
}

// appendRisk renders one score as the JSON object of SegmentScore and
// StreamScore, {"risk":…,"crash_prone":…}, for /score and for every
// /score/stream line.
func appendRisk(b []byte, risk float64) []byte {
	b = append(b, `{"risk":`...)
	b = data.AppendJSONFloat(b, risk)
	if risk >= 0.5 {
		return append(b, `,"crash_prone":true}`...)
	}
	return append(b, `,"crash_prone":false}`...)
}
