// Package loadgen is the scenario-driven load generator for the scoring
// service: it drives POST /score and POST /score/stream with synthetic
// segment-year traffic from roadnet.ScenarioStream at a target
// concurrency for a fixed duration, and reports throughput, latency
// quantiles and error rates. It is the measuring half of the serving
// story — the server enforces admission control and deadlines, loadgen
// quantifies what the deployment sustains (and counts 429 rejections
// separately, so capacity experiments read directly off the report).
// Workers can spread over several targets (per-replica load without a
// router) and optionally retry 429s honoring the server's Retry-After
// hint, reporting retried-then-succeeded requests apart from hard
// failures.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"roadcrash/internal/data"
	"roadcrash/internal/roadnet"
)

// Mode selects which endpoints a run drives.
type Mode string

const (
	// ModeBatch drives POST /score only.
	ModeBatch Mode = "batch"
	// ModeStream drives POST /score/stream only.
	ModeStream Mode = "stream"
	// ModeMixed alternates batch and stream requests per worker.
	ModeMixed Mode = "mixed"
	// ModeHotspot drives GET /hotspots only — the top-k ranking read path,
	// which carries no request body and exercises the serving tier's
	// cheapest endpoint at full concurrency.
	ModeHotspot Mode = "hotspot"
)

// ParseMode validates a -mode flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeBatch, ModeStream, ModeMixed, ModeHotspot:
		return Mode(s), nil
	}
	return "", fmt.Errorf("loadgen: unknown mode %q (want batch, stream, mixed or hotspot)", s)
}

// Options configures a load run. Zero fields select defaults.
type Options struct {
	// BaseURL locates the service, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Targets optionally spreads workers round-robin over several service
	// URLs (per-replica load without a routing tier). Empty means
	// [BaseURL]. The first target answers GET /models.
	Targets []string
	// Retry opts into client-side retries: a 429 rejection or transport
	// error is retried up to RetryAttempts times, honoring the server's
	// Retry-After hint (seconds; absent falls back to exponential
	// backoff). Retried-then-succeeded requests are reported separately
	// from hard failures.
	Retry bool
	// RetryAttempts bounds the retries per request when Retry is set
	// (default 4).
	RetryAttempts int
	// Model names the model to drive; empty picks the first model the
	// service lists.
	Model string
	// Mode selects the endpoints (default ModeMixed).
	Mode Mode
	// Concurrency is the number of request workers (default 8).
	Concurrency int
	// Duration bounds the run (default 10s).
	Duration time.Duration
	// BatchRows is the segment count per /score request (default 256).
	BatchRows int
	// StreamRows is the row count per /score/stream request (default 4096).
	StreamRows int
	// HotspotK is the cell count each hotspot-mode request asks for
	// (default 16). Ignored outside ModeHotspot.
	HotspotK int
	// Seed makes the synthetic traffic deterministic per worker.
	Seed uint64
	// Weather selects the scenario regime of the generated rows.
	Weather roadnet.Weather
	// Feedback opts the run into the label loop: scoring payloads carry
	// the segment_id column and, FeedbackLag requests after a batch is
	// scored, its ground-truth labels (crash_count > threshold) are
	// POSTed to /feedback — delayed labels, as production sees them. The
	// target must serve with the feedback loop enabled.
	Feedback bool
	// FeedbackLag is how many scoring requests a worker completes before
	// it sends a scored batch's labels (default 2).
	FeedbackLag int
	// LabelThreshold is the crash-count threshold labels are derived
	// with; 0 takes the model's own training threshold from /models.
	LabelThreshold int
	// DriftAfterRow/DriftRiskShift inject concept drift into each
	// worker's scenario stream from the given per-stream row on (see
	// roadnet.ScenarioOptions) — the workload that should trip the
	// server's drift alarm when labels flow back.
	DriftAfterRow  int
	DriftRiskShift float64
}

func (o Options) withDefaults() Options {
	if len(o.Targets) == 0 && o.BaseURL != "" {
		o.Targets = []string{o.BaseURL}
	}
	if o.BaseURL == "" && len(o.Targets) > 0 {
		o.BaseURL = o.Targets[0]
	}
	if o.Retry && o.RetryAttempts <= 0 {
		o.RetryAttempts = 4
	}
	if o.Mode == "" {
		o.Mode = ModeMixed
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	if o.BatchRows <= 0 {
		o.BatchRows = 256
	}
	if o.StreamRows <= 0 {
		o.StreamRows = 4096
	}
	if o.HotspotK <= 0 {
		o.HotspotK = 16
	}
	if o.Seed == 0 {
		o.Seed = 20110322
	}
	if o.Feedback && o.FeedbackLag <= 0 {
		o.FeedbackLag = 2
	}
	return o
}

// LatencySummary is a latency distribution in milliseconds, quantiles
// computed exactly from the recorded per-request samples. Only successful
// requests contribute: pooling sub-millisecond 429 rejections with
// multi-second served streams would make a capacity run's p50 meaningless.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// EndpointReport aggregates one endpoint's results. When retries are
// enabled, Errors counts only hard failures (still failing after the
// last retry); RetriedOK counts requests that failed at least once but
// ultimately succeeded, and Retries counts every extra attempt spent.
type EndpointReport struct {
	Requests          int            `json:"requests"`
	Errors            int            `json:"errors"`
	StatusCounts      map[string]int `json:"status_counts"`
	Rejected429       int            `json:"rejected_429"`
	Retries           int            `json:"retries,omitempty"`
	RetriedOK         int            `json:"retried_ok,omitempty"`
	RowsScored        int64          `json:"rows_scored"`
	RequestsPerSecond float64        `json:"requests_per_second"`
	RowsPerSecond     float64        `json:"rows_per_second"`
	LatencyMS         LatencySummary `json:"latency_ms"`
}

// Report is the JSON result of a load run.
type Report struct {
	Target          string          `json:"target"`
	Targets         []string        `json:"targets,omitempty"`
	Model           string          `json:"model"`
	Mode            Mode            `json:"mode"`
	Concurrency     int             `json:"concurrency"`
	DurationSeconds float64         `json:"duration_seconds"`
	Batch           *EndpointReport `json:"score,omitempty"`
	Stream          *EndpointReport `json:"score_stream,omitempty"`
	// Hotspots aggregates GET /hotspots requests of a hotspot-mode run;
	// its RowsScored counts ranked cells returned.
	Hotspots *EndpointReport `json:"hotspots,omitempty"`
	// Feedback aggregates the delayed-label POST /feedback requests of a
	// feedback-enabled run; its RowsScored counts labels the server
	// matched to recorded scores.
	Feedback        *EndpointReport `json:"feedback,omitempty"`
	TotalRows       int64           `json:"total_rows_scored"`
	TotalRowsPerSec float64         `json:"total_rows_per_second"`
	// StreamToBatchRatio is stream rows/s over batch rows/s — the number
	// the batch fast path is judged by (BENCH_5 measured 3.2 before it;
	// the target is ~1 to 1.5, batch within 1.5x of stream). Only set by
	// mixed-mode runs where both endpoints scored rows.
	StreamToBatchRatio float64 `json:"stream_to_batch_rows_ratio,omitempty"`
}

// sample is one completed request.
type sample struct {
	endpoint string // "score", "stream" or "feedback"
	status   string // HTTP status code, "transport" or "truncated"
	latency  time.Duration
	rows     int64
	ok       bool
	// retries is how many extra attempts this request consumed before the
	// recorded outcome.
	retries int
	// aborted marks a request cut off by the run deadline itself; such
	// samples are dropped — a shutdown artifact is not a service error.
	aborted bool
}

// Run executes the load run and aggregates the report. Request failures
// (transport errors, non-200 statuses, truncated streams) are counted,
// not fatal — error rates are part of the measurement. Run itself fails
// only when the service cannot be interrogated at all or the options are
// invalid.
func Run(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	if len(opt.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: at least one target URL is required")
	}
	model, sendNames, threshold, err := resolveModel(ctx, opt.Targets[0], opt.Model)
	if err != nil {
		return nil, err
	}
	if opt.Feedback {
		// Scoring payloads must carry the join key even when the model's
		// schema does not train on it; the server's feedback parser accepts
		// the extra column.
		sendNames[roadnet.AttrSegmentID] = true
		if opt.LabelThreshold > 0 {
			threshold = opt.LabelThreshold
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, opt.Duration)
	defer cancel()
	var (
		mu      sync.Mutex
		samples []sample
	)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opt.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(runCtx, opt, model, sendNames, threshold, w, func(s sample) {
				if s.aborted {
					return
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			})
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := &Report{
		Target: opt.BaseURL, Model: model, Mode: opt.Mode,
		Concurrency: opt.Concurrency, DurationSeconds: elapsed,
	}
	if len(opt.Targets) > 1 {
		rep.Targets = opt.Targets
	}
	if opt.Mode == ModeBatch || opt.Mode == ModeMixed {
		rep.Batch = summarize(samples, "score", elapsed)
	}
	if opt.Mode == ModeStream || opt.Mode == ModeMixed {
		rep.Stream = summarize(samples, "stream", elapsed)
	}
	if opt.Mode == ModeHotspot {
		rep.Hotspots = summarize(samples, "hotspots", elapsed)
	}
	if opt.Feedback {
		rep.Feedback = summarize(samples, "feedback", elapsed)
	}
	for _, er := range []*EndpointReport{rep.Batch, rep.Stream, rep.Hotspots} {
		if er != nil {
			rep.TotalRows += er.RowsScored
		}
	}
	if elapsed > 0 {
		rep.TotalRowsPerSec = float64(rep.TotalRows) / elapsed
	}
	if rep.Batch != nil && rep.Stream != nil && rep.Batch.RowsPerSecond > 0 && rep.Stream.RowsPerSecond > 0 {
		rep.StreamToBatchRatio = rep.Stream.RowsPerSecond / rep.Batch.RowsPerSecond
	}
	return rep, nil
}

// resolveModel asks GET /models for the target model's schema and returns
// the model name, the attribute names a scoring payload may carry (the
// training schema minus the target, which clients never send) and the
// model's training crash-count threshold — the default labeling rule for
// feedback runs.
func resolveModel(ctx context.Context, baseURL, want string) (string, map[string]bool, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/models", nil)
	if err != nil {
		return "", nil, 0, fmt.Errorf("loadgen: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", nil, 0, fmt.Errorf("loadgen: interrogating %s/models: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", nil, 0, fmt.Errorf("loadgen: GET /models returned %d", resp.StatusCode)
	}
	var list struct {
		Models []struct {
			Name      string   `json:"name"`
			Schema    []string `json:"schema"`
			Target    string   `json:"target"`
			Threshold int      `json:"threshold"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return "", nil, 0, fmt.Errorf("loadgen: decoding /models: %w", err)
	}
	if len(list.Models) == 0 {
		return "", nil, 0, fmt.Errorf("loadgen: service has no models")
	}
	for _, m := range list.Models {
		if want != "" && m.Name != want {
			continue
		}
		send := make(map[string]bool, len(m.Schema))
		for _, name := range m.Schema {
			if name != m.Target {
				send[name] = true
			}
		}
		return m.Name, send, m.Threshold, nil
	}
	return "", nil, 0, fmt.Errorf("loadgen: service does not serve model %q", want)
}

// worker issues requests until the context expires. Each worker owns
// deterministic scenario streams (seed + worker index), one per endpoint
// it drives, chunked at that endpoint's request row count — traffic is
// reproducible for a given option set. With several targets, worker i
// drives Targets[i mod len] for the whole run, spreading concurrency
// evenly over the fleet.
func worker(ctx context.Context, opt Options, model string, sendNames map[string]bool, threshold, id int, record func(sample)) {
	target := opt.Targets[id%len(opt.Targets)]
	mkStream := func(chunk int, seedOffset uint64) *roadnet.ScenarioStream {
		scn := roadnet.DefaultScenarioOptions(math.MaxInt / 2)
		scn.ChunkSize = chunk
		scn.Seed = opt.Seed + seedOffset
		scn.Weather = opt.Weather
		scn.DriftAfterRow = opt.DriftAfterRow
		scn.DriftRiskShift = opt.DriftRiskShift
		stream, err := roadnet.NewScenarioStream(scn)
		if err != nil {
			// Options are validated by withDefaults; a failure here is a bug.
			panic(err)
		}
		return stream
	}
	if opt.Mode == ModeHotspot {
		// The ranking endpoint needs no scenario traffic: every request is
		// the same parameterized GET.
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			record(withRetry(ctx, opt, func() (sample, time.Duration) {
				return hotspotRequest(ctx, target, model, opt.HotspotK)
			}))
		}
	}
	var batchSrc, streamSrc *roadnet.ScenarioStream
	var include []int
	bc := &batchClient{}
	if opt.Mode == ModeBatch || opt.Mode == ModeMixed {
		batchSrc = mkStream(opt.BatchRows, 2*uint64(id))
		include = sendColumns(batchSrc.Attrs(), sendNames)
	}
	if opt.Mode == ModeStream || opt.Mode == ModeMixed {
		streamSrc = mkStream(opt.StreamRows, 2*uint64(id)+1)
		include = sendColumns(streamSrc.Attrs(), sendNames)
	}
	var fb *feedbackSender
	if opt.Feedback {
		attrs := batchSrc
		if attrs == nil {
			attrs = streamSrc
		}
		fb = newFeedbackSender(attrs.Attrs(), model, target, threshold, opt.FeedbackLag)
	}

	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		default:
		}
		useStream := opt.Mode == ModeStream || (opt.Mode == ModeMixed && (id+i)%2 == 1)
		var s sample
		var labels []labelPair
		if useStream {
			b, err := streamSrc.Next()
			if err != nil {
				panic(fmt.Sprintf("loadgen: scenario stream failed: %v", err))
			}
			if fb != nil {
				labels = fb.labels(b)
			}
			s = withRetry(ctx, opt, func() (sample, time.Duration) {
				return streamRequest(ctx, target, model, b, include)
			})
		} else {
			b, err := batchSrc.Next()
			if err != nil {
				panic(fmt.Sprintf("loadgen: scenario stream failed: %v", err))
			}
			if fb != nil {
				labels = fb.labels(b)
			}
			s = withRetry(ctx, opt, func() (sample, time.Duration) {
				return bc.do(ctx, target, model, b, include)
			})
		}
		record(s)
		// Only successfully scored batches feed labels back: the server never
		// recorded scores for a failed request, so its labels could only land
		// unmatched.
		if fb != nil && s.ok {
			fb.push(ctx, labels, record)
		}
	}
	// Labels still queued when the run ends stay unsent — delayed labels
	// legitimately outlive the traffic that earned them.
}

// labelPair is one segment's delayed ground-truth outcome.
type labelPair struct {
	id int64
	y  bool
}

// feedbackSender derives ground-truth labels from the scenario batches a
// worker scores and POSTs them to /feedback after a configurable lag, so
// the server sees the delayed-label join its window exists for. One
// sender per worker; not safe for concurrent use.
type feedbackSender struct {
	model     string
	target    string
	threshold int
	lag       int
	segCol    int
	countCol  int
	queue     [][]labelPair
	body      []byte
}

func newFeedbackSender(attrs []data.Attribute, model, target string, threshold, lag int) *feedbackSender {
	fs := &feedbackSender{
		model: model, target: target, threshold: threshold, lag: lag,
		segCol: -1, countCol: -1,
	}
	for j, at := range attrs {
		switch at.Name {
		case roadnet.AttrSegmentID:
			fs.segCol = j
		case roadnet.CrashCountAttr:
			fs.countCol = j
		}
	}
	return fs
}

// labels extracts this batch's (segment id, crash_prone) pairs before the
// batch buffer is recycled by the stream's next chunk. A scenario batch
// carries one row per segment-year, all year-rows of a segment sharing
// one observation-window crash count — so each segment yields exactly one
// label (year-rows are consecutive, making the dedupe a previous-id
// check).
func (fs *feedbackSender) labels(b *data.Batch) []labelPair {
	if fs.segCol < 0 || fs.countCol < 0 {
		return nil
	}
	labels := make([]labelPair, 0, b.Len())
	for i := 0; i < b.Len(); i++ {
		id, count := b.At(i, fs.segCol), b.At(i, fs.countCol)
		if data.IsMissing(id) || data.IsMissing(count) {
			continue
		}
		if n := len(labels); n > 0 && labels[n-1].id == int64(id) {
			continue
		}
		labels = append(labels, labelPair{id: int64(id), y: count > float64(fs.threshold)})
	}
	return labels
}

// push queues one scored batch's labels and, once the queue is deeper
// than the configured lag, sends the oldest batch to /feedback.
func (fs *feedbackSender) push(ctx context.Context, labels []labelPair, record func(sample)) {
	if labels == nil {
		return
	}
	fs.queue = append(fs.queue, labels)
	for len(fs.queue) > fs.lag {
		due := fs.queue[0]
		fs.queue = fs.queue[1:]
		record(fs.send(ctx, due))
	}
}

// send POSTs one label batch and reads the ingest outcome; matched labels
// count as the sample's rows.
func (fs *feedbackSender) send(ctx context.Context, labels []labelPair) sample {
	body := fs.body[:0]
	body = append(body, `{"model":`...)
	body = data.AppendJSONString(body, fs.model)
	body = append(body, `,"labels":[`...)
	for i, lp := range labels {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"segment_id":`...)
		body = strconv.AppendInt(body, lp.id, 10)
		body = append(body, `,"crash_prone":`...)
		body = strconv.AppendBool(body, lp.y)
		body = append(body, '}')
	}
	body = append(body, `]}`...)
	fs.body = body

	// Label POSTs are never retried, so a Retry-After hint has no use.
	s, _ := exchange(ctx, "feedback", http.MethodPost, fs.target+"/feedback", "application/json", body,
		func(r io.Reader) (int64, bool) {
			var out struct {
				Outcomes map[string]int `json:"outcomes"`
			}
			err := json.NewDecoder(r).Decode(&out)
			return int64(out.Outcomes["matched"]), err == nil
		})
	return s
}

// retryable reports whether a failed request is worth retrying: a 429
// rejection (the server said "come back") or a transport error (the
// connection never carried an answer, so resending is safe — scoring is
// read-only).
func retryable(status string) bool {
	return status == "429" || status == "transport"
}

// withRetry runs one request, retrying per Options.Retry. A 429's
// Retry-After hint sets the wait exactly (including zero); a failure
// without a hint backs off exponentially from 50ms. The returned sample
// is the final attempt's outcome with the retry count folded in, so a
// retried-then-succeeded request reports ok with retries > 0.
func withRetry(ctx context.Context, opt Options, fn func() (sample, time.Duration)) sample {
	s, hint := fn()
	if !opt.Retry {
		return s
	}
	for attempt := 0; attempt < opt.RetryAttempts && !s.ok && !s.aborted && retryable(s.status); attempt++ {
		wait := hint
		if wait < 0 {
			wait = 50 * time.Millisecond << attempt
		}
		if !sleepCtx(ctx, wait) {
			// Run deadline hit mid-backoff: report the last real outcome.
			s.retries = attempt
			return s
		}
		var next sample
		next, hint = fn()
		next.retries = attempt + 1
		s = next
	}
	return s
}

// sleepCtx waits d unless ctx ends first; it reports whether the full
// wait completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// sendColumns resolves which scenario columns the model schema accepts:
// the columns every payload carries.
func sendColumns(attrs []data.Attribute, sendNames map[string]bool) []int {
	var cols []int
	for j, at := range attrs {
		if sendNames[at.Name] {
			cols = append(cols, j)
		}
	}
	return cols
}

// retryAfterHint parses a 429's Retry-After header into a wait; -1 means
// no usable hint (fall back to backoff). A zero hint is honored as-is —
// "retry immediately" is a real server answer.
func retryAfterHint(resp *http.Response) time.Duration {
	if resp.StatusCode != http.StatusTooManyRequests {
		return -1
	}
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || secs < 0 {
		return -1
	}
	return time.Duration(secs) * time.Second
}

// batchClient sends POST /score requests, reusing its body and response
// buffers across calls. It encodes with the same append-based row writer
// the stream path uses: on a 1-CPU benchmark box, json.Marshal over
// []map[string]any was the largest single CPU sink in batch-mode runs —
// the generator throttled the very server it was measuring.
type batchClient struct {
	body []byte
	resp []byte
}

// do sends one POST /score and measures it end to end. The second return
// is the server's Retry-After hint (-1 when absent).
func (bc *batchClient) do(ctx context.Context, baseURL, model string, b *data.Batch, include []int) (sample, time.Duration) {
	body := bc.body[:0]
	body = append(body, `{"model":`...)
	body = data.AppendJSONString(body, model)
	body = append(body, `,"segments":[`...)
	for i := 0; i < b.Len(); i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = data.AppendNDJSONRow(body, b, i, include)
		body = body[:len(body)-1] // AppendNDJSONRow ends lines; segments join with commas
	}
	body = append(body, `]}`...)
	bc.body = body

	return exchange(ctx, "score", http.MethodPost, baseURL+"/score", "application/json", body,
		func(r io.Reader) (int64, bool) {
			var err error
			if bc.resp, err = readAll(r, bc.resp[:0]); err != nil {
				return 0, false
			}
			n := countScores(bc.resp)
			return int64(n), n >= 0
		})
}

// readAll reads r to EOF into buf, growing it as needed. Unlike
// io.ReadAll it reuses the caller's buffer, so steady-state batch
// responses cost no allocation.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
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
			return buf, err
		}
	}
}

// countScores counts the elements of the "scores" array in a /score
// response without a JSON decode: every score object carries exactly one
// "risk" key and no nested arrays, so the count is the occurrences of
// that key before the closing bracket. Returns -1 if the response
// carries no scores array.
func countScores(resp []byte) int {
	marker := []byte(`"scores":[`)
	i := bytes.LastIndex(resp, marker)
	if i < 0 {
		return -1
	}
	i += len(marker)
	j := bytes.IndexByte(resp[i:], ']')
	if j < 0 {
		return -1
	}
	return bytes.Count(resp[i:i+j], []byte(`"risk":`))
}

// streamRequest sends one POST /score/stream, reads every score line and
// verifies the done trailer; a missing or failed trailer counts as a
// truncated request. The second return is the server's Retry-After hint
// (-1 when absent).
func streamRequest(ctx context.Context, baseURL, model string, b *data.Batch, include []int) (sample, time.Duration) {
	var body bytes.Buffer
	buf := make([]byte, 0, 256)
	for i := 0; i < b.Len(); i++ {
		buf = data.AppendNDJSONRow(buf[:0], b, i, include)
		body.Write(buf)
	}
	return exchange(ctx, "stream", http.MethodPost, baseURL+"/score/stream?model="+model, "application/x-ndjson", body.Bytes(),
		func(r io.Reader) (int64, bool) {
			dec := json.NewDecoder(r)
			for {
				var line struct {
					Done  *bool  `json:"done"`
					Rows  int64  `json:"rows"`
					Error string `json:"error"`
				}
				if err := dec.Decode(&line); err != nil {
					return 0, false
				}
				if line.Done != nil {
					return line.Rows, *line.Done && line.Error == ""
				}
			}
		})
}

// hotspotRequest sends one GET /hotspots and counts the ranked cells it
// returns; a body without the promised k cells is truncated. The second
// return is the server's Retry-After hint (-1 when absent).
func hotspotRequest(ctx context.Context, baseURL, model string, k int) (sample, time.Duration) {
	url := baseURL + "/hotspots?model=" + model + "&k=" + strconv.Itoa(k)
	return exchange(ctx, "hotspots", http.MethodGet, url, "", nil, func(r io.Reader) (int64, bool) {
		var out struct {
			K     int               `json:"k"`
			Cells []json.RawMessage `json:"cells"`
		}
		err := json.NewDecoder(r).Decode(&out)
		return int64(len(out.Cells)), err == nil && len(out.Cells) == out.K
	})
}

// httpClient keeps one warm connection per worker: the default
// transport's idle pool of 2 per host would force most workers onto a
// fresh TCP handshake every request, charging connection setup to the
// measured latency and churning ephemeral ports on long runs.
var httpClient = &http.Client{Transport: &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 256,
}}

// exchange sends one request and measures it end to end as a sample of
// endpoint, classified as one of: a transport error (no answer, or a url
// that does not parse), a non-200 with its status and, for a 429, the
// Retry-After hint, a 200 whose body read reports it truncated, or a 200
// that is ok with the rows read counted. read consumes a 200's body and
// reports its rows and whether the answer was whole. The second return
// is the hint, -1 when there is none. A failure while the run's context
// is ending is marked aborted.
func exchange(ctx context.Context, endpoint, method, url, contentType string, body []byte,
	read func(io.Reader) (rows int64, whole bool)) (sample, time.Duration) {
	s := sample{endpoint: endpoint, status: "transport"}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	var resp *http.Response
	if err == nil {
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err = httpClient.Do(req)
	}
	if err != nil {
		s.latency = time.Since(start)
		s.aborted = ctx.Err() != nil
		return s, -1
	}
	defer resp.Body.Close()
	s.status = strconv.Itoa(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		s.latency = time.Since(start)
		return s, retryAfterHint(resp)
	}
	rows, whole := read(resp.Body)
	s.latency = time.Since(start)
	if !whole {
		s.status = "truncated"
		s.aborted = ctx.Err() != nil
		return s, -1
	}
	s.rows, s.ok = rows, true
	return s, -1
}

// summarize aggregates one endpoint's samples.
func summarize(samples []sample, endpoint string, elapsed float64) *EndpointReport {
	er := &EndpointReport{StatusCounts: make(map[string]int)}
	var latencies []float64
	var sum float64
	for _, s := range samples {
		if s.endpoint != endpoint {
			continue
		}
		er.Requests++
		er.StatusCounts[s.status]++
		er.Retries += s.retries
		if !s.ok {
			er.Errors++
			if s.status == "429" {
				er.Rejected429++
			}
			continue
		}
		if s.retries > 0 {
			er.RetriedOK++
		}
		ms := s.latency.Seconds() * 1000
		latencies = append(latencies, ms)
		sum += ms
		er.RowsScored += s.rows
	}
	if elapsed > 0 {
		er.RequestsPerSecond = float64(er.Requests) / elapsed
		er.RowsPerSecond = float64(er.RowsScored) / elapsed
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		er.LatencyMS = LatencySummary{
			P50:  quantile(latencies, 0.50),
			P95:  quantile(latencies, 0.95),
			P99:  quantile(latencies, 0.99),
			Mean: sum / float64(len(latencies)),
			Max:  latencies[len(latencies)-1],
		}
	}
	return er
}

// quantile reads the q-quantile from sorted samples by nearest-rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
