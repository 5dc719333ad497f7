package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"roadcrash/internal/artifact"
	"roadcrash/internal/core"
	"roadcrash/internal/data"
	"roadcrash/internal/geo"
	"roadcrash/internal/roadnet"
	"roadcrash/internal/serve"
)

// newService exports a small-scale study model and serves it — loadgen
// tests run against the same artifact + server stack the CLI deploys.
func newService(t *testing.T, cfg serve.Config) *httptest.Server {
	return newServiceFor(t, cfg, core.ExportOptions{Phase: 2, Threshold: 8, Learner: "tree"})
}

// newServiceFor is newService with the export under the caller's control,
// so workloads can target any learner kind.
func newServiceFor(t *testing.T, cfg serve.Config, opt core.ExportOptions) *httptest.Server {
	t.Helper()
	study, err := core.NewStudy(core.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := study.ExportArtifact(opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := artifact.WriteFile(filepath.Join(dir, "m.json"), a); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.New(reg, cfg))
	t.Cleanup(srv.Close)
	return srv
}

// TestRunMixed drives both endpoints against a healthy service: every
// request must succeed, rows must be counted on both endpoints, and the
// latency summary must be populated and ordered.
func TestRunMixed(t *testing.T) {
	srv := newService(t, serve.Config{})
	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		Mode:        ModeMixed,
		Concurrency: 2,
		Duration:    400 * time.Millisecond,
		BatchRows:   32,
		StreamRows:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model == "" || rep.Batch == nil || rep.Stream == nil {
		t.Fatalf("report incomplete: %+v", rep)
	}
	for name, er := range map[string]*EndpointReport{"score": rep.Batch, "stream": rep.Stream} {
		if er.Requests == 0 {
			t.Fatalf("%s: no requests issued", name)
		}
		if er.Errors != 0 {
			t.Fatalf("%s: %d errors against a healthy service: %v", name, er.Errors, er.StatusCounts)
		}
		if er.RowsScored == 0 || er.RowsPerSecond <= 0 {
			t.Fatalf("%s: no rows counted: %+v", name, er)
		}
		l := er.LatencyMS
		if l.P50 <= 0 || l.P50 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max {
			t.Fatalf("%s: malformed latency summary %+v", name, l)
		}
	}
	// Every request carries exactly the configured row count, and every
	// request succeeded — so the counts must match exactly. (Equality,
	// not divisibility: a counter that double-counts rows per request
	// still passes a multiple-of check.)
	if want := 32 * int64(rep.Batch.Requests); rep.Batch.RowsScored != want {
		t.Fatalf("batch rows %d, want %d (32 per request over %d requests)", rep.Batch.RowsScored, want, rep.Batch.Requests)
	}
	if want := 64 * int64(rep.Stream.Requests); rep.Stream.RowsScored != want {
		t.Fatalf("stream rows %d, want %d (64 per request over %d requests)", rep.Stream.RowsScored, want, rep.Stream.Requests)
	}
	if rep.TotalRows != rep.Batch.RowsScored+rep.Stream.RowsScored {
		t.Fatalf("total rows %d != %d + %d", rep.TotalRows, rep.Batch.RowsScored, rep.Stream.RowsScored)
	}
	// A mixed run with traffic on both endpoints reports the stream/batch
	// throughput ratio (the batch fast path's benchmark number).
	if want := rep.Stream.RowsPerSecond / rep.Batch.RowsPerSecond; rep.StreamToBatchRatio != want {
		t.Fatalf("stream/batch ratio %v, want %v", rep.StreamToBatchRatio, want)
	}
}

// TestRunZINBCountWorkload drives both endpoints against a served ZINB
// count model — the format-version-2 kind whose risk is P(count > t) from
// a hurdle regression rather than a classifier — pinning that the load
// generator can discover its schema from /models and sustain traffic
// against it with zero errors.
func TestRunZINBCountWorkload(t *testing.T) {
	srv := newServiceFor(t, serve.Config{}, core.ExportOptions{Phase: 1, Threshold: 0, Learner: "zinb"})
	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		Mode:        ModeMixed,
		Concurrency: 2,
		Duration:    300 * time.Millisecond,
		BatchRows:   16,
		StreamRows:  32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != "phase1-zinb-cp0" {
		t.Fatalf("drove model %q, want the exported zinb artifact", rep.Model)
	}
	for name, er := range map[string]*EndpointReport{"score": rep.Batch, "stream": rep.Stream} {
		if er.Requests == 0 || er.RowsScored == 0 {
			t.Fatalf("%s: no traffic against the zinb model: %+v", name, er)
		}
		if er.Errors != 0 {
			t.Fatalf("%s: %d errors against a healthy zinb service: %v", name, er.Errors, er.StatusCounts)
		}
	}
}

// TestRunFeedbackLoop drives a feedback-enabled service with the label
// loop on: scoring payloads carry segment_id, labels trail the traffic by
// the configured lag, and every label must land matched — the server
// joins it to a score it recorded moments earlier. Scenario rows never
// lose their segment_id or crash_count to missing-value injection, so the
// matched count is exact, not approximate.
func TestRunFeedbackLoop(t *testing.T) {
	srv := newService(t, serve.Config{FeedbackWindow: 4096})
	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		Mode:        ModeBatch,
		Concurrency: 1,
		Duration:    500 * time.Millisecond,
		BatchRows:   32,
		Feedback:    true,
		FeedbackLag: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batch.Errors != 0 {
		t.Fatalf("scoring errors in a feedback run: %v", rep.Batch.StatusCounts)
	}
	fb := rep.Feedback
	if fb == nil || fb.Requests == 0 {
		t.Fatalf("no feedback traffic recorded: %+v", rep)
	}
	if fb.Errors != 0 {
		t.Fatalf("feedback errors against a healthy service: %v", fb.StatusCounts)
	}
	// Concurrency 1 and a lag of one batch: every label batch is complete
	// — one label per segment, 8 segments per 32-row batch (4 year-rows
	// each) — and arrives while its scores are still in the join window,
	// so the server must match every label.
	if want := 8 * int64(fb.Requests); fb.RowsScored != want {
		t.Fatalf("matched %d labels over %d feedback requests, want all %d", fb.RowsScored, fb.Requests, want)
	}
	// The online metrics the labels feed must be live on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"crashprone_feedback_labels_total", "crashprone_online_brier", "crashprone_online_brier_window"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics lacks %s after a feedback run", want)
		}
	}
}

// TestRunFeedbackOffByDefault pins that a plain run neither sends labels
// nor reports a feedback endpoint.
func TestRunFeedbackOffByDefault(t *testing.T) {
	srv := newService(t, serve.Config{})
	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		Mode:        ModeBatch,
		Concurrency: 1,
		Duration:    200 * time.Millisecond,
		BatchRows:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feedback != nil {
		t.Fatalf("non-feedback run reported a feedback endpoint: %+v", rep.Feedback)
	}
}

// TestRunFeedbackStreamMode pins that the delayed-label loop also rides
// the streaming endpoint's traffic, with an explicit -label-threshold
// override and injected drift.
func TestRunFeedbackStreamMode(t *testing.T) {
	srv := newService(t, serve.Config{FeedbackWindow: 4096})
	rep, err := Run(context.Background(), Options{
		BaseURL:        srv.URL,
		Mode:           ModeStream,
		Concurrency:    1,
		Duration:       400 * time.Millisecond,
		StreamRows:     64,
		Feedback:       true,
		FeedbackLag:    1,
		LabelThreshold: 3,
		DriftRiskShift: 2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stream == nil || rep.Stream.Errors != 0 {
		t.Fatalf("streaming errors in a feedback run: %+v", rep.Stream)
	}
	fb := rep.Feedback
	if fb == nil || fb.Requests == 0 || fb.Errors != 0 {
		t.Fatalf("feedback traffic broken: %+v", fb)
	}
	if want := 16 * int64(fb.Requests); fb.RowsScored != want {
		t.Fatalf("matched %d labels over %d feedback requests, want all %d", fb.RowsScored, fb.Requests, want)
	}
}

// TestRunFeedbackErrorAccounting pins the failure accounting: when only
// the label path is down (a proxy answers 503 on /feedback while scoring
// proxies through), every label POST is recorded as a hard feedback error
// with its status, no labels count as matched, and the scoring side stays
// clean.
func TestRunFeedbackErrorAccounting(t *testing.T) {
	srv := newService(t, serve.Config{FeedbackWindow: 4096})
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/feedback", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"label store down"}`, http.StatusServiceUnavailable)
	})
	mux.Handle("/", httputil.NewSingleHostReverseProxy(u))
	front := httptest.NewServer(mux)
	defer front.Close()

	rep, err := Run(context.Background(), Options{
		BaseURL:     front.URL,
		Mode:        ModeBatch,
		Concurrency: 1,
		Duration:    300 * time.Millisecond,
		BatchRows:   16,
		Feedback:    true,
		FeedbackLag: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batch.Errors != 0 {
		t.Fatalf("scoring must not fail when only /feedback is down: %v", rep.Batch.StatusCounts)
	}
	fb := rep.Feedback
	if fb == nil || fb.Requests == 0 {
		t.Fatalf("no feedback attempts recorded: %+v", rep)
	}
	if fb.Errors != fb.Requests || fb.StatusCounts["503"] != fb.Requests {
		t.Fatalf("want every feedback POST recorded as a 503 error, got %+v", fb)
	}
	if fb.RowsScored != 0 {
		t.Fatalf("labels matched through a dead label path: %d", fb.RowsScored)
	}
}

// TestFeedbackSenderLabels pins the label-derivation rules directly:
// year-row dedupe, missing-value skips, threshold comparison and the
// no-bookkeeping-columns degenerate case.
func TestFeedbackSenderLabels(t *testing.T) {
	attrs := []data.Attribute{
		{Name: roadnet.AttrSegmentID, Kind: data.Interval},
		{Name: "aadt", Kind: data.Interval},
		{Name: roadnet.CrashCountAttr, Kind: data.Interval},
	}
	fs := newFeedbackSender(attrs, "m", "http://unused", 8, 1)
	b := data.NewBatch(attrs, 8)
	b.AppendRow([]float64{1, 100, 12})            // crash-prone
	b.AppendRow([]float64{1, 100, 12})            // same segment, next year: deduped
	b.AppendRow([]float64{2, 100, 3})             // below threshold
	b.AppendRow([]float64{3, 100, data.Missing})  // unlabeled count: skipped
	b.AppendRow([]float64{data.Missing, 100, 12}) // unidentifiable row: skipped
	got := fs.labels(b)
	want := []labelPair{{id: 1, y: true}, {id: 2, y: false}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("labels = %+v, want %+v", got, want)
	}

	// A schema without the bookkeeping columns yields no labels, and
	// pushing the nil result is a no-op rather than an empty POST.
	bare := newFeedbackSender(attrs[1:2], "m", "http://unused", 8, 1)
	if l := bare.labels(b); l != nil {
		t.Fatalf("labels without bookkeeping columns = %+v, want nil", l)
	}
	bare.push(context.Background(), nil, func(sample) {
		t.Fatal("nil label batch must not be sent")
	})
}

// TestSendersRecordTransportAndTruncation pins how each request kind
// classifies what comes back, including the branches a timed run reaches
// only when its deadline lands mid-request: no connection (or no
// parseable target) is a transport error, a non-200 keeps its status and
// hands back a 429's Retry-After hint, an answer that ends early is a
// truncated request, and a whole answer is ok with its rows. None of
// these is a deadline abort. Label POSTs take no hint.
func TestSendersRecordTransportAndTruncation(t *testing.T) {
	attrs := []data.Attribute{{Name: "aadt", Kind: data.Interval}}
	b := data.NewBatch(attrs, 1)
	b.AppendRow([]float64{100})
	noHint := time.Duration(-1)
	kinds := []struct {
		endpoint  string
		send      func(target string) (sample, time.Duration)
		truncated string // a 200 that ends before the answer is whole
		whole     string // a 200 carrying one row
	}{
		{"score",
			func(target string) (sample, time.Duration) {
				return (&batchClient{}).do(context.Background(), target, "m", b, []int{0})
			},
			`{"model":"m","kind":"decision_tree","scores":[{"risk":0.5,"crash_prone":true}`,
			`{"model":"m","kind":"decision_tree","scores":[{"risk":0.5,"crash_prone":true}]}` + "\n"},
		{"stream",
			func(target string) (sample, time.Duration) {
				return streamRequest(context.Background(), target, "m", b, []int{0})
			},
			`{"risk":0.5,"crash_prone":true}` + "\n",
			`{"risk":0.5,"crash_prone":true}` + "\n" + `{"done":true,"rows":1}` + "\n"},
		{"hotspots",
			func(target string) (sample, time.Duration) {
				return hotspotRequest(context.Background(), target, "m", 1)
			},
			`{"k":1,"cells":[`,
			`{"k":1,"cells":[{"cell":1}]}`},
		{"feedback",
			func(target string) (sample, time.Duration) {
				fs := newFeedbackSender(nil, "m", target, 8, 1)
				return fs.send(context.Background(), []labelPair{{id: 1, y: true}}), noHint
			},
			`{"model":"m","outcomes":{"matched":`,
			`{"model":"m","outcomes":{"matched":1}}`},
	}
	// answer serves one fixed reply to every request.
	answer := func(status int, retryAfter, body string) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			io.WriteString(w, body)
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()

	for _, k := range kinds {
		for _, tc := range []struct {
			name   string
			target string
			status string
			hint   time.Duration
			rows   int64
		}{
			{"closed server", closed.URL, "transport", noHint, 0},
			{"unparseable target", "http://[::1", "transport", noHint, 0},
			{"503 with Retry-After", answer(http.StatusServiceUnavailable, "3", `{"error":"draining"}`), "503", noHint, 0},
			{"429 with Retry-After", answer(http.StatusTooManyRequests, "3", `{"error":"at capacity"}`), "429", 3 * time.Second, 0},
			{"truncated", answer(http.StatusOK, "", k.truncated), "truncated", noHint, 0},
			{"whole", answer(http.StatusOK, "", k.whole), "200", noHint, 1},
		} {
			t.Run(k.endpoint+"/"+tc.name, func(t *testing.T) {
				s, hint := k.send(tc.target)
				wantHint := tc.hint
				if k.endpoint == "feedback" {
					wantHint = noHint // label POSTs are never retried, so they take no hint
				}
				ok := tc.status == "200"
				if s.endpoint != k.endpoint || s.status != tc.status || s.ok != ok || s.rows != tc.rows || s.aborted || hint != wantHint {
					t.Fatalf("sample %+v hint %v, want endpoint %s status %s ok %v rows %d hint %v",
						s, hint, k.endpoint, tc.status, ok, tc.rows, wantHint)
				}
			})
		}
	}
}

// TestRunCounts429 pins the capacity-experiment path: with the server's
// only admission slot deterministically occupied by a held stream, every
// loadgen request must come back 429 and be recorded as a rejection, not
// a run failure. (Relying on loadgen's own workers to collide is flaky on
// one CPU — fast requests interleave without overlapping.)
func TestRunCounts429(t *testing.T) {
	srv := newService(t, serve.Config{MaxInFlight: 1})

	// Occupy the slot with a stream whose body stays open, and wait until
	// the server reports it in flight via the public metrics surface.
	pr, pw := io.Pipe()
	heldDone := make(chan struct{})
	go func() {
		defer close(heldDone)
		resp, err := http.Post(srv.URL+"/score/stream?model=phase2-tree-cp8", "application/x-ndjson", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), "crashprone_in_flight_requests 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("held stream never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		Mode:        ModeStream,
		Concurrency: 2,
		Duration:    500 * time.Millisecond,
		StreamRows:  64,
	})
	pw.Close()
	<-heldDone
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stream.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if rep.Stream.Rejected429 != rep.Stream.Requests {
		t.Fatalf("slot held, yet not every request was rejected: %+v", rep.Stream)
	}
	if rep.Stream.StatusCounts["429"] != rep.Stream.Rejected429 {
		t.Fatalf("status counts inconsistent: %+v", rep.Stream)
	}
	if rep.Stream.Errors != rep.Stream.Rejected429 {
		t.Fatalf("429s not counted as errors: %+v", rep.Stream)
	}
	if rep.Stream.RowsScored != 0 {
		t.Fatalf("rejected requests scored rows: %+v", rep.Stream)
	}
}

// TestRunErrors pins the fail-fast paths: unreachable service and unknown
// model name.
func TestRunErrors(t *testing.T) {
	if _, err := Run(context.Background(), Options{}); err == nil {
		t.Error("missing BaseURL must fail")
	}
	if _, err := Run(context.Background(), Options{BaseURL: "http://127.0.0.1:1"}); err == nil {
		t.Error("unreachable service must fail")
	}
	srv := newService(t, serve.Config{})
	if _, err := Run(context.Background(), Options{BaseURL: srv.URL, Model: "nope"}); err == nil {
		t.Error("unknown model must fail")
	}
	if _, err := ParseMode("sideways"); err == nil {
		t.Error("bad mode must fail")
	}
	for _, m := range []string{"batch", "stream", "mixed"} {
		if _, err := ParseMode(m); err != nil {
			t.Errorf("ParseMode(%q): %v", m, err)
		}
	}
}

// fakeScorer is a minimal scoring service for retry/multi-target tests:
// it lists one model and answers /score by echoing one score per segment.
// reject429 holds how many initial /score requests get a 429 with an
// immediate Retry-After hint; hits counts the /score requests received.
func fakeScorer(t *testing.T, reject429 int, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/models", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"models":[{"name":"m","schema":["aadt","crash_prone"],"target":"crash_prone"}]}`)
	})
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n <= int64(reject429) {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":"at capacity"}`)
			return
		}
		var req struct {
			Segments []json.RawMessage `json:"segments"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		scores := make([]string, len(req.Segments))
		for i := range scores {
			scores[i] = `{"risk":0.5}`
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"scores":[%s]}`, strings.Join(scores, ","))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRunRetries429 pins the opt-in retry path: the service 429s the
// first three /score requests (Retry-After: 0), then recovers. With
// Retry on, the single affected request must be retried to success and
// reported as retried-then-succeeded — not as a hard failure.
func TestRunRetries429(t *testing.T) {
	var hits atomic.Int64
	srv := fakeScorer(t, 3, &hits)

	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		Mode:        ModeBatch,
		Concurrency: 1,
		Duration:    300 * time.Millisecond,
		BatchRows:   8,
		Retry:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Batch
	if b.Errors != 0 {
		t.Fatalf("retried run recorded hard failures: %+v", b)
	}
	if b.Retries != 3 || b.RetriedOK != 1 {
		t.Fatalf("retries=%d retriedOK=%d, want exactly 3 retries rescuing 1 request", b.Retries, b.RetriedOK)
	}
	if b.StatusCounts["429"] != 0 || b.StatusCounts["200"] != b.Requests {
		t.Fatalf("only final statuses should be counted: %+v", b.StatusCounts)
	}
	if b.Rejected429 != 0 {
		t.Fatalf("rescued requests must not count as rejections: %+v", b)
	}
}

// TestRunRetriesExhausted pins the bounded-attempts guarantee: a service
// that never stops rejecting burns every retry and the request lands as
// a 429 rejection, with the retries still on the books.
func TestRunRetriesExhausted(t *testing.T) {
	var hits atomic.Int64
	srv := fakeScorer(t, 1<<30, &hits)

	rep, err := Run(context.Background(), Options{
		BaseURL:       srv.URL,
		Mode:          ModeBatch,
		Concurrency:   1,
		Duration:      200 * time.Millisecond,
		BatchRows:     8,
		Retry:         true,
		RetryAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Batch
	if b.Requests == 0 || b.Rejected429 != b.Requests || b.RetriedOK != 0 {
		t.Fatalf("exhausted retries must surface as rejections: %+v", b)
	}
	// The run deadline may expire mid-backoff on the final request, which
	// then lands with fewer than its full retry budget burned — every
	// completed request must still account for both retries.
	if b.Retries < 2*(b.Requests-1) {
		t.Fatalf("retries=%d for %d requests with 2 attempts each, want every attempt counted", b.Retries, b.Requests)
	}
}

// TestRunMultiTarget pins the fleet-spread path: with two targets and two
// workers, both services must receive traffic and the report must name
// the full target set.
func TestRunMultiTarget(t *testing.T) {
	var hitsA, hitsB atomic.Int64
	srvA := fakeScorer(t, 0, &hitsA)
	srvB := fakeScorer(t, 0, &hitsB)

	rep, err := Run(context.Background(), Options{
		Targets:     []string{srvA.URL, srvB.URL},
		Mode:        ModeBatch,
		Concurrency: 2,
		Duration:    300 * time.Millisecond,
		BatchRows:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Targets) != 2 {
		t.Fatalf("report targets = %v, want both", rep.Targets)
	}
	if rep.Batch.Errors != 0 {
		t.Fatalf("healthy fleet recorded errors: %+v", rep.Batch)
	}
	if hitsA.Load() == 0 || hitsB.Load() == 0 {
		t.Fatalf("traffic not spread: a=%d b=%d", hitsA.Load(), hitsB.Load())
	}
	// A request in flight when the run deadline hits is dropped from the
	// report but still reaches a server, so the fleet may see a few more.
	if got := hitsA.Load() + hitsB.Load(); got < int64(rep.Batch.Requests) {
		t.Fatalf("fleet received %d requests, report says %d", got, rep.Batch.Requests)
	}
}

// TestWithRetryBackoffWithoutHint pins the fallback schedule: transport
// failures with no Retry-After hint back off exponentially until an
// attempt succeeds, and the winning sample carries the retry count.
func TestWithRetryBackoffWithoutHint(t *testing.T) {
	opt := Options{Retry: true, RetryAttempts: 4}
	calls := 0
	start := time.Now()
	s := withRetry(context.Background(), opt, func() (sample, time.Duration) {
		calls++
		if calls < 3 {
			return sample{status: "transport"}, -1
		}
		return sample{status: "200", ok: true}, -1
	})
	if !s.ok || s.retries != 2 || calls != 3 {
		t.Fatalf("ok=%v retries=%d calls=%d, want success on the 3rd attempt", s.ok, s.retries, calls)
	}
	// Two backoffs: 50ms + 100ms.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("retries finished in %v, want exponential backoff >= 150ms", elapsed)
	}
}

// TestWithRetryDeadlineMidBackoff pins the run-boundary behavior: when
// the run context expires during a backoff wait, the last real outcome
// is reported instead of sleeping past the deadline.
func TestWithRetryDeadlineMidBackoff(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	calls := 0
	s := withRetry(ctx, Options{Retry: true, RetryAttempts: 4}, func() (sample, time.Duration) {
		calls++
		return sample{status: "transport"}, -1
	})
	if s.ok || s.status != "transport" || calls != 1 {
		t.Fatalf("status=%q calls=%d, want the single pre-deadline attempt reported", s.status, calls)
	}
}

// TestRetryAfterHint pins the hint parser: only a parseable, non-negative
// Retry-After on a 429 is a hint; zero means retry now, everything else
// falls back to backoff (-1).
func TestRetryAfterHint(t *testing.T) {
	mk := func(code int, retryAfter string) *http.Response {
		h := http.Header{}
		if retryAfter != "" {
			h.Set("Retry-After", retryAfter)
		}
		return &http.Response{StatusCode: code, Header: h}
	}
	for _, tc := range []struct {
		code int
		hdr  string
		want time.Duration
	}{
		{http.StatusOK, "3", -1},
		{http.StatusTooManyRequests, "", -1},
		{http.StatusTooManyRequests, "soon", -1},
		{http.StatusTooManyRequests, "-2", -1},
		{http.StatusTooManyRequests, "0", 0},
		{http.StatusTooManyRequests, "2", 2 * time.Second},
	} {
		if got := retryAfterHint(mk(tc.code, tc.hdr)); got != tc.want {
			t.Errorf("retryAfterHint(%d, %q) = %v, want %v", tc.code, tc.hdr, got, tc.want)
		}
	}
}

// TestCountScores pins the scan-based score counter the batch client
// uses instead of a JSON decode: one "risk" key per score object before
// the closing bracket, and anything without a scores array reads as
// truncated (-1).
func TestCountScores(t *testing.T) {
	for _, tc := range []struct {
		resp string
		want int
	}{
		{`{"model":"m","kind":"tree","scores":[{"risk":0.25,"crash_prone":false}]}` + "\n", 1},
		{`{"model":"m","kind":"tree","scores":[{"risk":0.25,"crash_prone":false},{"risk":0.75,"crash_prone":true},{"risk":1e-09,"crash_prone":false}]}` + "\n", 3},
		{`{"model":"m","kind":"tree","scores":[]}`, 0},
		{`{"error":"boom"}`, -1},
		{``, -1},
		{`{"model":"m","scores":[{"risk":0.25,"crash_prone":false}`, -1},
	} {
		if got := countScores([]byte(tc.resp)); got != tc.want {
			t.Errorf("countScores(%q) = %d, want %d", tc.resp, got, tc.want)
		}
	}
}

// TestReadAll checks the buffer-reusing body reader: it must return the
// full stream, reuse capacity when the buffer is big enough, and
// propagate non-EOF errors.
func TestReadAll(t *testing.T) {
	buf := make([]byte, 0, 64)
	got, err := readAll(strings.NewReader("hello world"), buf)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("readAll = %q, %v", got, err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("readAll did not reuse the caller's buffer")
	}
	big := strings.Repeat("x", 10_000)
	got, err = readAll(strings.NewReader(big), got[:0])
	if err != nil || string(got) != big {
		t.Fatalf("readAll grow: len %d, err %v", len(got), err)
	}
	if _, err := readAll(io.MultiReader(strings.NewReader("partial"), iotest.ErrReader(io.ErrUnexpectedEOF)), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("readAll error passthrough = %v", err)
	}
}

// hotspotService serves one fitted hotspot artifact for hotspot-mode runs.
func hotspotService(t *testing.T) *httptest.Server {
	t.Helper()
	opt := roadnet.DefaultScenarioOptions(8000)
	opt.Seed = 5
	stream, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := geo.CollectSegments(stream)
	if err != nil {
		t.Fatal(err)
	}
	g, err := geo.NewGrid(0, 0, roadnet.ExtentKm, roadnet.ExtentKm, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := geo.FitKDE(g, obs, 1, geo.DefaultKDEOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := artifact.New("grid-kde", artifact.KindHotspot, m, geo.Schema(), 0, 5, "cell_label", nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if _, err := reg.Register(a); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewServer(reg))
	t.Cleanup(srv.Close)
	return srv
}

// TestRunHotspotMode drives GET /hotspots: the model resolves from
// /models like every other workload, each request returns exactly
// HotspotK ranked cells, and the run is error-free.
func TestRunHotspotMode(t *testing.T) {
	srv := hotspotService(t)
	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		Mode:        ModeHotspot,
		Concurrency: 2,
		Duration:    300 * time.Millisecond,
		HotspotK:    24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != "grid-kde" || rep.Hotspots == nil || rep.Batch != nil || rep.Stream != nil {
		t.Fatalf("report incomplete: %+v", rep)
	}
	er := rep.Hotspots
	if er.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if er.Errors != 0 {
		t.Fatalf("%d errors against a healthy service: %v", er.Errors, er.StatusCounts)
	}
	if want := 24 * int64(er.Requests); er.RowsScored != want {
		t.Fatalf("ranked cells %d, want %d (24 per request over %d requests)", er.RowsScored, want, er.Requests)
	}
	if rep.TotalRows != er.RowsScored {
		t.Fatalf("total rows %d != hotspot cells %d", rep.TotalRows, er.RowsScored)
	}
	l := er.LatencyMS
	if l.P50 <= 0 || l.P50 > l.P95 || l.P95 > l.Max {
		t.Fatalf("malformed latency summary %+v", l)
	}
}

// TestHotspotRequestErrorPaths exercises the hotspot client's failure
// accounting directly: server errors keep their status, and a body that
// does not carry the promised k cells counts as truncated.
func TestHotspotRequestErrorPaths(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/hotspots", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("model") {
		case "boom":
			http.Error(w, "exploded", http.StatusInternalServerError)
		case "garbage":
			io.WriteString(w, "not json")
		case "short":
			io.WriteString(w, `{"k":5,"cells":[{"cell":1}]}`)
		default:
			io.WriteString(w, `{"k":1,"cells":[{"cell":1}]}`)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx := context.Background()
	if s, _ := hotspotRequest(ctx, srv.URL, "boom", 5); s.ok || s.status != "500" {
		t.Fatalf("500 response: %+v", s)
	}
	for _, model := range []string{"garbage", "short"} {
		if s, _ := hotspotRequest(ctx, srv.URL, model, 5); s.ok || s.status != "truncated" {
			t.Fatalf("%s response: %+v", model, s)
		}
	}
	s, _ := hotspotRequest(ctx, srv.URL, "ok", 1)
	if !s.ok || s.rows != 1 || s.endpoint != "hotspots" {
		t.Fatalf("good response: %+v", s)
	}
}
