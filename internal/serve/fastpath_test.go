package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/core"
	"roadcrash/internal/data"
	"roadcrash/internal/roadnet"
)

// referenceScoreHandler is a frozen copy of the generic-decoder /score
// handler the fast path replaced (encoding/json into ScoreRequest,
// per-segment MapValues, per-row PredictProb, json.Encoder response).
// The differential tests below drive it and the live handler with the
// same bodies: wherever the fast path promises bit-identical behavior,
// status, headers and body must match byte for byte.
func referenceScoreHandler(reg *Registry, cfg Config) http.HandlerFunc {
	cfg = cfg.withDefaults()
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, cfg.MaxBodyBytes))
		dec.DisallowUnknownFields()
		var sr ScoreRequest
		if err := dec.Decode(&sr); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed request: %v", err))
			return
		}
		if sr.Model == "" {
			writeError(w, http.StatusBadRequest, "missing model name")
			return
		}
		if len(sr.Segments) == 0 {
			writeError(w, http.StatusBadRequest, "no segments to score")
			return
		}
		if len(sr.Segments) > MaxBatch {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds the %d-segment limit", len(sr.Segments), MaxBatch))
			return
		}
		m, ok := reg.Get(sr.Model)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", sr.Model))
			return
		}
		resp := ScoreResponse{Model: sr.Model, Kind: m.Artifact.Kind, Scores: make([]SegmentScore, len(sr.Segments))}
		for i, seg := range sr.Segments {
			row, err := m.Mapper.MapValues(seg)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("segment %d: %v", i, err))
				return
			}
			risk := m.Scorer.PredictProb(row)
			if !artifact.Finite([]float64{risk}) {
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("segment %d: model produced a non-finite score", i))
				return
			}
			resp.Scores[i] = SegmentScore{Risk: risk, CrashProne: risk >= 0.5}
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// newDiffPair builds one registry with the cp-8-tree fixture and returns
// the live server plus the frozen reference handler over the same models.
func newDiffPair(t *testing.T) (*Server, http.HandlerFunc) {
	t.Helper()
	dir := t.TempDir()
	fixture(t, dir)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	return NewServer(reg), referenceScoreHandler(reg, Config{})
}

func doScore(h http.Handler, method, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, "/score", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestScoreDifferential drives the fast path and the frozen generic-path
// reference with the same bodies. For every class where the fast path
// promises bit-identical behavior — success responses and the canonical
// error responses (missing model, no segments, batch limit, unknown
// model, wrong method) — status, Content-Type and body must match byte
// for byte. Malformed-JSON and per-segment errors keep their statuses but
// reword the message, so those probes compare status (and, for segment
// errors, that the reported segment index — lowest bad segment — agrees).
func TestScoreDifferential(t *testing.T) {
	srv, ref := newDiffPair(t)

	bigBatch := `{"model":"cp-8-tree","segments":[{}` + strings.Repeat(`,{}`, MaxBatch) + `]}`
	exact := map[string]string{
		"happy single":       `{"model":"cp-8-tree","segments":[{"aadt":3000,"surface":"gravel"}]}`,
		"happy multi":        `{"model":"cp-8-tree","segments":[{"aadt":3000,"surface":"gravel"},{"aadt":800,"surface":"seal"},{"aadt":1900},{}]}`,
		"numeric string":     `{"model":"cp-8-tree","segments":[{"aadt":"1200","surface":"seal"}]}`,
		"nan string missing": `{"model":"cp-8-tree","segments":[{"aadt":"NaN"}]}`,
		"unseen level":       `{"model":"cp-8-tree","segments":[{"aadt":2600,"surface":"granite"}]}`,
		"null value":         `{"model":"cp-8-tree","segments":[{"aadt":null,"surface":"gravel"}]}`,
		"bool binary":        `{"model":"cp-8-tree","segments":[{"aadt":50,"crash_prone":true},{"crash_prone":false}]}`,
		"binary words":       `{"model":"cp-8-tree","segments":[{"crash_prone":"yes"},{"crash_prone":"0"}]}`,
		"null segment":       `{"model":"cp-8-tree","segments":[null,{"aadt":5}]}`,
		"escaped strings":    `{"model":"cp-8-tree","segments":[{"surface":"seal","aadt":"2006"}]}`,
		"model last":         `{"segments":[{"aadt":3000,"surface":"gravel"}],"model":"cp-8-tree"}`,
		"whitespace":         "\n\t {  \"model\" : \"cp-8-tree\" ,\n \"segments\" : [ { \"aadt\" : 3e3 } , null ] } \n",

		"empty object":      `{}`,
		"empty model":       `{"model":"","segments":[{"aadt":1}]}`,
		"null model":        `{"model":null,"segments":[{"aadt":1}]}`,
		"no segments key":   `{"model":"cp-8-tree"}`,
		"empty segments":    `{"model":"cp-8-tree","segments":[]}`,
		"null segments":     `{"model":"cp-8-tree","segments":null}`,
		"unknown model":     `{"model":"nope","segments":[{"aadt":1}]}`,
		"unknown model esc": `{"model":"a\"b","segments":[{}]}`,
		"batch limit":       bigBatch,
	}
	for name, body := range exact {
		t.Run("exact/"+name, func(t *testing.T) {
			got := doScore(srv, http.MethodPost, body)
			want := doScore(ref, http.MethodPost, body)
			if got.Code != want.Code {
				t.Fatalf("status: fast %d, reference %d (%s vs %s)", got.Code, want.Code, got.Body, want.Body)
			}
			if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
				t.Fatalf("content type: fast %q, reference %q", g, w)
			}
			if got.Body.String() != want.Body.String() {
				t.Fatalf("body diverged:\nfast:      %q\nreference: %q", got.Body, want.Body)
			}
		})
	}

	// GET must 405 identically through the real mux (the reference handler
	// carries the same method check).
	t.Run("exact/method", func(t *testing.T) {
		got := doScore(srv, http.MethodGet, "")
		want := doScore(ref, http.MethodGet, "")
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("GET: fast %d %q, reference %d %q", got.Code, got.Body, want.Code, want.Body)
		}
	})

	statusOnly := map[string]string{
		"not json":            `{not json`,
		"empty body":          ``,
		"bare number":         `5`,
		"bare array":          `[]`,
		"truncated":           `{"model":"cp-8-tree","segments":[{"aadt":1}]`,
		"unknown field":       `{"model":"cp-8-tree","segmnets":[{"aadt":1}]}`,
		"segment not object":  `{"model":"cp-8-tree","segments":[5]}`,
		"segments object":     `{"model":"cp-8-tree","segments":{"aadt":1}}`,
		"huge exponent":       `{"model":"cp-8-tree","segments":[{"aadt":1e999}]}`,
		"unknown attribute":   `{"model":"cp-8-tree","segments":[{"aatd":1}]}`,
		"nominal number":      `{"model":"cp-8-tree","segments":[{"surface":5}]}`,
		"binary out of range": `{"model":"cp-8-tree","segments":[{"crash_prone":2}]}`,
		"binary bad word":     `{"model":"cp-8-tree","segments":[{"crash_prone":"maybe"}]}`,
		"object value":        `{"model":"cp-8-tree","segments":[{"aadt":{"v":1}}]}`,
		"lowest segment":      `{"model":"cp-8-tree","segments":[{},{"aatd":1},{"surface":9},{"aadt":2}]}`,
	}
	for name, body := range statusOnly {
		t.Run("status/"+name, func(t *testing.T) {
			got := doScore(srv, http.MethodPost, body)
			want := doScore(ref, http.MethodPost, body)
			if got.Code != want.Code {
				t.Fatalf("status: fast %d (%s), reference %d (%s)", got.Code, got.Body, want.Code, want.Body)
			}
			// Segment errors must report the same (lowest) segment index.
			if idx := strings.Index(want.Body.String(), "segment "); idx >= 0 {
				prefix := want.Body.String()[idx : idx+len("segment 0:")]
				if !strings.Contains(got.Body.String(), prefix) {
					t.Fatalf("fast path lost the segment position: fast %q, reference %q", got.Body, want.Body)
				}
			}
		})
	}
}

// TestScoreScenarioDifferential replays live ScenarioStream traffic — the
// same generator and request construction the load generator uses —
// through both paths. Every response must be 200 and byte-identical.
func TestScoreScenarioDifferential(t *testing.T) {
	study, err := core.NewStudy(core.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := study.ExportArtifact(core.ExportOptions{Phase: 2, Threshold: 8, Learner: "tree"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := artifact.WriteFile(filepath.Join(dir, "m.json"), a); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	ref := referenceScoreHandler(reg, Config{})

	m, ok := reg.Get(a.Name)
	if !ok {
		t.Fatalf("model %q not registered", a.Name)
	}
	send := make(map[string]bool)
	for _, at := range m.Mapper.Attrs() {
		if at.Name != a.Target {
			send[at.Name] = true
		}
	}

	const rows, chunk = 384, 64
	opt := roadnet.DefaultScenarioOptions(rows)
	opt.ChunkSize = chunk
	opt.Seed = 7
	stream, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		t.Fatal(err)
	}
	attrs := stream.Attrs()
	requests := 0
	for {
		b, err := stream.Next()
		if err != nil {
			break
		}
		segments := make([]map[string]any, b.Len())
		for i := range segments {
			seg := make(map[string]any)
			for j, at := range attrs {
				if !send[at.Name] {
					continue
				}
				v := b.At(i, j)
				if data.IsMissing(v) {
					continue
				}
				if at.Kind == data.Nominal {
					seg[at.Name] = at.Levels[int(v)]
				} else {
					seg[at.Name] = v
				}
			}
			segments[i] = seg
		}
		body, err := json.Marshal(map[string]any{"model": a.Name, "segments": segments})
		if err != nil {
			t.Fatal(err)
		}
		got := doScore(srv, http.MethodPost, string(body))
		want := doScore(ref, http.MethodPost, string(body))
		if want.Code != http.StatusOK {
			t.Fatalf("reference rejected scenario traffic: %d %s", want.Code, want.Body)
		}
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("chunk %d diverged: fast %d, reference %d\nfast:      %.200q\nreference: %.200q",
				requests, got.Code, want.Code, got.Body, want.Body)
		}
		requests++
	}
	if requests != rows/chunk {
		t.Fatalf("replayed %d chunks, want %d", requests, rows/chunk)
	}
}

// TestScoreRejectsTrailingGarbage pins the conformance fix: the generic
// decoder stopped at the first complete JSON value, silently accepting —
// and silently ignoring — anything after it; the fast path rejects the
// request as malformed.
func TestScoreRejectsTrailingGarbage(t *testing.T) {
	srv, ref := newDiffPair(t)
	for name, body := range map[string]string{
		"second object": `{"model":"cp-8-tree","segments":[{"aadt":1}]}{"model":"evil"}`,
		"stray token":   `{"model":"cp-8-tree","segments":[{"aadt":1}]} x`,
		"stray bracket": `{"model":"cp-8-tree","segments":[{"aadt":1}]}]`,
	} {
		if rec := doScore(ref, http.MethodPost, body); rec.Code != http.StatusOK {
			t.Fatalf("%s: reference handler was expected to (wrongly) accept trailing data, got %d", name, rec.Code)
		}
		rec := doScore(srv, http.MethodPost, body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (%s)", name, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "trailing data") {
			t.Fatalf("%s: error %q does not name the trailing data", name, rec.Body)
		}
	}
	// Trailing whitespace is not garbage.
	if rec := doScore(srv, http.MethodPost, `{"model":"cp-8-tree","segments":[{"aadt":1}]}`+" \n\t "); rec.Code != http.StatusOK {
		t.Fatalf("trailing whitespace rejected: %d %s", rec.Code, rec.Body)
	}
}

// TestScoreDuplicateKeysRejected pins the other documented divergence
// from the generic decoder: duplicate keys — top-level or within a
// segment — are now rejected, where encoding/json silently kept the last
// value. The same rule already governed /score/stream rows.
func TestScoreDuplicateKeysRejected(t *testing.T) {
	srv, ref := newDiffPair(t)
	for name, body := range map[string]string{
		"segment key":  `{"model":"cp-8-tree","segments":[{"aadt":1,"aadt":2}]}`,
		"model key":    `{"model":"cp-8-tree","model":"cp-8-tree","segments":[{"aadt":1}]}`,
		"segments key": `{"model":"cp-8-tree","segments":[],"segments":[{"aadt":1}]}`,
	} {
		if rec := doScore(ref, http.MethodPost, body); rec.Code != http.StatusOK {
			t.Fatalf("%s: reference handler was expected to (wrongly) accept duplicate keys, got %d", name, rec.Code)
		}
		rec := doScore(srv, http.MethodPost, body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (%s)", name, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "duplicate") {
			t.Fatalf("%s: error %q does not name the duplicate", name, rec.Body)
		}
	}
}

// TestScoreBinaryWordsCaseInsensitive pins the harmonization divergence:
// the fast path accepts TRUE/Yes/False like the streaming endpoint always
// did, where the old MapValues path accepted lowercase only.
func TestScoreBinaryWordsCaseInsensitive(t *testing.T) {
	srv, ref := newDiffPair(t)
	upper := `{"model":"cp-8-tree","segments":[{"aadt":50,"crash_prone":"True"}]}`
	lower := `{"model":"cp-8-tree","segments":[{"aadt":50,"crash_prone":"true"}]}`
	if rec := doScore(ref, http.MethodPost, upper); rec.Code != http.StatusBadRequest {
		t.Fatalf("reference handler was expected to reject mixed-case words, got %d", rec.Code)
	}
	got := doScore(srv, http.MethodPost, upper)
	want := doScore(srv, http.MethodPost, lower)
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
		t.Fatalf("mixed-case binary word: %d %s (lowercase gave %s)", got.Code, got.Body, want.Body)
	}
}

// scoreBody builds a well-formed n-segment request body.
func scoreBody(n int) string {
	var b strings.Builder
	b.WriteString(`{"model":"cp-8-tree","segments":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		surface := "seal"
		if i%2 == 1 {
			surface = "gravel"
		}
		fmt.Fprintf(&b, `{"aadt":%d,"surface":%q}`, 500+(i*37)%4000, surface)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestScoreAllocsFlatPerRow pins the tentpole's allocation behavior: the
// fast path must not allocate per row (the old path built a map, a
// mapped-row slice and a []float64{risk} wrapper for every segment). The
// per-request constant (pool round-trips, header map, recorder growth)
// is tolerated; the marginal cost per additional row must stay under one
// allocation amortized.
func TestScoreAllocsFlatPerRow(t *testing.T) {
	srv, _ := newDiffPair(t)
	const small, large = 8, 520
	run := func(body string) func() {
		return func() {
			rec := doScore(srv, http.MethodPost, body)
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d: %s", rec.Code, rec.Body)
			}
		}
	}
	smallBody, largeBody := scoreBody(small), scoreBody(large)
	run(smallBody)() // warm pools and lazily-built state
	run(largeBody)()
	allocsSmall := testing.AllocsPerRun(50, run(smallBody))
	allocsLarge := testing.AllocsPerRun(50, run(largeBody))
	perRow := (allocsLarge - allocsSmall) / float64(large-small)
	if perRow >= 1 {
		t.Fatalf("allocations scale with rows: %.1f allocs at %d rows, %.1f at %d rows (%.2f/row)",
			allocsSmall, small, allocsLarge, large, perRow)
	}
}

// BenchmarkScoreFastPath measures the served request end to end through
// the handler (no network): parse, columnar score, render.
func BenchmarkScoreFastPath(b *testing.B) {
	dir := b.TempDir()
	fixture(b, dir)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(reg)
	for _, rows := range []int{1, 64, 1024} {
		body := scoreBody(rows)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				rec := doScore(srv, http.MethodPost, body)
				if rec.Code != http.StatusOK {
					b.Fatalf("status = %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
