package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"roadcrash/internal/artifact"
	"roadcrash/internal/data"
	"roadcrash/internal/metrics"
)

// MaxBatch bounds the segments accepted by one /score call so a single
// request cannot hold a worker for unbounded time. Larger workloads belong
// on POST /score/stream, which has no row cap because it never buffers the
// batch.
const MaxBatch = 10000

// streamChunkSize is the row-batch size of the streaming endpoint: scores
// are computed and flushed to the client in chunks of this many rows, so
// response memory stays bounded and slow readers exert backpressure on the
// request body through the unread socket.
const streamChunkSize = 1024

// Config tunes the service's admission control and deadlines. The zero
// value of every field selects its default, so Config{} is a production-
// safe configuration.
type Config struct {
	// MaxInFlight caps concurrently admitted scoring requests (/score and
	// /score/stream); excess requests are rejected immediately with 429 so
	// overload degrades crisply instead of queueing into timeouts. Probe
	// and admin endpoints are exempt. Default 256.
	MaxInFlight int
	// RequestTimeout bounds a whole /score or /feedback request: the
	// connection read and write deadlines are set this far ahead when
	// handling starts, so a slow-sending or slow-reading client cannot
	// hold a worker open. Default 30s.
	RequestTimeout time.Duration
	// StreamTimeout is the progress deadline of /score/stream: every body
	// read that delivers bytes and every flushed chunk push the
	// connection's read and write deadlines this far ahead, so a stream
	// may run for hours at any feed rate while a sender that stops
	// sending or a client that stops reading is still cut off. Default
	// 30s.
	StreamTimeout time.Duration
	// MaxBodyBytes caps the /score and /feedback request bodies; a
	// larger body is answered 413. Default 64 MiB, which comfortably fits
	// MaxBatch fully-populated segments. The streaming endpoint reads its
	// body incrementally and is bounded per line instead.
	MaxBodyBytes int64
	// RetryAfter is the backoff hint sent in the Retry-After header of a
	// 429 rejection. Deployments that know their drain rate (roughly
	// MaxInFlight divided by sustainable requests per second) should set
	// it so well-behaved clients retry when a slot is plausibly free
	// rather than hammering a saturated server once a second. Rounded up
	// to whole seconds on the wire; default 1s.
	RetryAfter time.Duration
	// ReloadDir enables POST /reload: the whole model set is atomically
	// replaced with the artifacts in this directory. Empty disables the
	// endpoint (404).
	ReloadDir string
	// FeedbackWindow enables the label-feedback loop (POST /feedback,
	// shadow scoring, gated promotion): each model keeps its last
	// FeedbackWindow served scores in memory, keyed by segment id and
	// model version, for delayed labels to join against. The loop reads
	// the segment_id column that every replica's scoring requests may
	// carry and the models ignore; without the loop the column is
	// accepted and not read. 0 disables the loop and all its endpoints.
	// Note a staged shadow candidate's scores share the incumbent's
	// window. Each remembered score costs a 24-byte entry plus 8–16 bytes
	// of index, 32 bytes when the window is a power of two; a model's
	// window is allocated by its first scored row that carries a
	// segment_id.
	FeedbackWindow int
	// RollingWindow is the sample count of each model version's rolling
	// Brier window. Default 256.
	RollingWindow int
	// MinFeedback is how many joined labels a model version needs before
	// its drift baseline is pinned and before it can take part in a
	// promotion decision. Default 50.
	MinFeedback int
	// DriftFire raises a model's drift alarm when its windowed Brier
	// reaches baseline×DriftFire. Default 1.5.
	DriftFire float64
	// DriftClear lowers a firing alarm when the windowed Brier falls back
	// to baseline×DriftClear; the gap below DriftFire is the hysteresis
	// that keeps a hovering metric from flapping the alarm. Default 1.15.
	DriftClear float64
	// PromoteMargin is the relative windowed-Brier improvement a shadow
	// candidate must show over the incumbent to pass the promotion gate
	// (0.05 means 5% better). Default 0.05.
	PromoteMargin float64
	// AutoPromote runs the promotion gate automatically after every
	// feedback ingest, committing the staged shadow set the moment it
	// provably beats the incumbents. Off, promotion only happens on an
	// explicit POST /promote.
	AutoPromote bool
}

// DefaultConfig returns the default admission and deadline settings.
func DefaultConfig() Config {
	return Config{
		MaxInFlight:    256,
		RequestTimeout: 30 * time.Second,
		StreamTimeout:  30 * time.Second,
		MaxBodyBytes:   64 << 20,
		RetryAfter:     time.Second,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = def.MaxInFlight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = def.RequestTimeout
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = def.StreamTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = def.MaxBodyBytes
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = def.RetryAfter
	}
	if c.RollingWindow <= 0 {
		c.RollingWindow = 256
	}
	if c.MinFeedback <= 0 {
		c.MinFeedback = 50
	}
	if c.DriftFire <= 0 {
		c.DriftFire = 1.5
	}
	if c.DriftClear <= 0 {
		c.DriftClear = 1.15
	}
	if c.PromoteMargin <= 0 {
		c.PromoteMargin = 0.05
	}
	return c
}

// ScoreRequest is the POST /score body: one named model and a batch of
// segments, each a map of attribute name -> value. Values follow the
// row-mapper conventions: numbers for interval/binary attributes, level
// names for nominal ones, null/omitted for missing.
type ScoreRequest struct {
	Model    string           `json:"model"`
	Segments []map[string]any `json:"segments"`
}

// SegmentScore is one scored segment.
type SegmentScore struct {
	Risk       float64 `json:"risk"`
	CrashProne bool    `json:"crash_prone"`
}

// ScoreResponse answers POST /score.
type ScoreResponse struct {
	Model  string         `json:"model"`
	Kind   artifact.Kind  `json:"kind"`
	Scores []SegmentScore `json:"scores"`
}

// ModelInfo is one GET /models entry. Schema lists the training attribute
// names in training order, so clients (and the load generator) can build
// valid scoring payloads without reading the artifact file.
type ModelInfo struct {
	Name      string             `json:"name"`
	Kind      artifact.Kind      `json:"kind"`
	Version   string             `json:"version"`
	Threshold int                `json:"threshold"`
	Seed      uint64             `json:"seed"`
	Schema    []string           `json:"schema"`
	Target    string             `json:"target"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

// StreamScore is one POST /score/stream output line, carrying the score of
// the input row at the same position in the stream.
type StreamScore struct {
	Risk       float64 `json:"risk"`
	CrashProne bool    `json:"crash_prone"`
}

// StreamTrailer is the final POST /score/stream line. Clients must treat a
// stream without a trailer as truncated; a trailer with a non-empty Error
// reports the row that aborted the stream.
type StreamTrailer struct {
	Done  bool   `json:"done"`
	Rows  int    `json:"rows"`
	Error string `json:"error,omitempty"`
}

// ReloadResponse answers POST /reload with the model names now serving.
type ReloadResponse struct {
	Models []string `json:"models"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Server is the hardened scoring service: the HTTP API over a registry
// plus admission control, deadlines and live metrics.
type Server struct {
	reg *Registry
	cfg Config
	mux *http.ServeMux

	// retryAfter is cfg.RetryAfter rendered once by FormatRetryAfter.
	retryAfter string

	// staged holds the model set decoded by POST /reload/prepare, awaiting
	// /reload/commit or /reload/abort — the replica half of a fleet-atomic
	// rollout.
	stagedMu sync.Mutex
	staged   *Staged

	// feedback is the label-feedback subsystem (join windows, drift
	// state, staged shadow set); nil when Config.FeedbackWindow is 0,
	// and every hook below guards on that.
	feedback *feedbackState

	metrics   *metrics.Registry
	inFlight  *metrics.Gauge
	requests  *metrics.CounterVec   // {endpoint, code}
	modelReqs *metrics.CounterVec   // {model, endpoint}
	rows      *metrics.CounterVec   // {model}
	errors    *metrics.CounterVec   // {model, endpoint}
	latency   *metrics.HistogramVec // {endpoint}
	reloads   *metrics.CounterVec   // {outcome}

	// Feedback-loop metrics, registered only when the loop is enabled.
	fbLabels      *metrics.CounterVec    // {model, outcome}
	driftBaseline *metrics.FloatGaugeVec // {model}
	driftAlarm    *metrics.GaugeVec      // {model}
	shadowRows    *metrics.CounterVec    // {model, outcome}
	promotions    *metrics.CounterVec    // {outcome}
}

// FormatRetryAfter renders a backoff as a Retry-After header value:
// whole seconds, rounded up, so any positive d reads at least "1" (a
// Retry-After of 0 tells clients to retry at once). Replicas send it with
// a 429; the router sends it with its own 503s and 429s.
func FormatRetryAfter(d time.Duration) string {
	return strconv.FormatInt(int64((d+time.Second-1)/time.Second), 10)
}

// NewServer builds the service with the default configuration — the
// convenience constructor; New exposes the tuning knobs.
func NewServer(reg *Registry) *Server { return New(reg, Config{}) }

// New builds the service over a registry. Zero Config fields select their
// defaults.
func New(reg *Registry, cfg Config) *Server {
	s := &Server{reg: reg, cfg: cfg.withDefaults(), metrics: metrics.NewRegistry()}
	s.retryAfter = FormatRetryAfter(s.cfg.RetryAfter)
	s.inFlight = s.metrics.Gauge("crashprone_in_flight_requests",
		"Scoring requests currently being handled.")
	s.requests = s.metrics.CounterVec("crashprone_requests_total",
		"Scoring requests by endpoint and HTTP status code.", "endpoint", "code")
	s.modelReqs = s.metrics.CounterVec("crashprone_model_requests_total",
		"Scoring requests by model and endpoint.", "model", "endpoint")
	s.rows = s.metrics.CounterVec("crashprone_model_rows_scored_total",
		"Rows scored by model.", "model")
	s.errors = s.metrics.CounterVec("crashprone_model_errors_total",
		"Scoring failures by model and endpoint (bad rows, non-finite scores, aborted streams).",
		"model", "endpoint")
	s.latency = s.metrics.HistogramVec("crashprone_request_duration_seconds",
		"Scoring request latency by endpoint.", nil, "endpoint")
	s.reloads = s.metrics.CounterVec("crashprone_reloads_total",
		"POST /reload attempts by outcome.", "outcome")

	if s.cfg.FeedbackWindow > 0 {
		s.feedback = newFeedbackState(s.cfg)
		s.fbLabels = s.metrics.CounterVec("crashprone_feedback_labels_total",
			"Feedback labels by model and join outcome (matched, duplicate, unmatched, unknown_model, unknown_version).",
			"model", "outcome")
		s.feedback.onlineBrier = s.metrics.HistogramVec("crashprone_online_brier",
			"Per-label Brier contributions of joined feedback, by model and version.",
			brierBuckets, "model", "version")
		s.feedback.onlineLogloss = s.metrics.HistogramVec("crashprone_online_logloss",
			"Per-label log-loss contributions of joined feedback, by model and version.",
			loglossBuckets, "model", "version")
		s.feedback.onlineBrierWindow = s.metrics.FloatGaugeVec("crashprone_online_brier_window",
			"Rolling windowed Brier score by model and version.", "model", "version")
		s.driftBaseline = s.metrics.FloatGaugeVec("crashprone_drift_baseline",
			"Pinned windowed-Brier baseline of the serving model.", "model")
		s.driftAlarm = s.metrics.GaugeVec("crashprone_drift_alarm",
			"Drift alarm state by model (1 firing, 0 clear).", "model")
		s.shadowRows = s.metrics.CounterVec("crashprone_shadow_rows_total",
			"Rows shadow-scored against a staged candidate, by model and outcome (scored, error).",
			"model", "outcome")
		s.promotions = s.metrics.CounterVec("crashprone_promotions_total",
			"Shadow staging and promotion-gate decisions by outcome.", "outcome")
	}

	// The scoring endpoints check their method inside admit, so a wrong
	// method is admitted and counted like any other answer.
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", only(http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/metrics", only(http.MethodGet, s.handleMetrics))
	mux.HandleFunc("/models", only(http.MethodGet, s.handleModels))
	mux.HandleFunc("/score", s.admit("score", only(http.MethodPost, s.handleScore)))
	mux.HandleFunc("/score/stream", s.admit("stream", only(http.MethodPost, s.handleStream)))
	mux.HandleFunc("/hotspots", s.admit("hotspots", only(http.MethodGet, s.handleHotspots)))
	if s.cfg.ReloadDir != "" {
		mux.HandleFunc("/reload", only(http.MethodPost, s.handleReload))
		mux.HandleFunc("/reload/prepare", only(http.MethodPost, s.handleReloadPrepare))
		mux.HandleFunc("/reload/commit", only(http.MethodPost, s.handleReloadCommit))
		mux.HandleFunc("/reload/abort", only(http.MethodPost, s.handleReloadAbort))
	}
	if s.feedback != nil {
		mux.HandleFunc("/feedback", only(http.MethodPost, s.handleFeedback))
		if s.cfg.ReloadDir != "" {
			mux.HandleFunc("/shadow", s.handleShadow)
			mux.HandleFunc("/shadow/abort", only(http.MethodPost, s.handleShadowAbort))
			mux.HandleFunc("/promote", only(http.MethodPost, s.handlePromote))
		}
	}
	s.mux = mux
	return s
}

// ServeHTTP dispatches to the service's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) { s.mux.ServeHTTP(w, req) }

// Metrics returns the server's metric registry (the /metrics content).
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// statusWriter records the status code a handler sent, so the admission
// wrapper can label its request counter. Unwrap keeps
// http.ResponseController working through the wrapper (flushes and
// deadline control reach the underlying connection).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// admit is the admission-control wrapper of the scoring endpoints: it
// caps in-flight requests (crisp 429 on overload), tracks the in-flight
// gauge and records per-endpoint latency and status counts. The
// post-increment test makes the cap exact under concurrency — the gauge
// counts admitted requests only.
func (s *Server) admit(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if n := s.inFlight.Inc(); n > int64(s.cfg.MaxInFlight) {
			s.inFlight.Dec()
			s.requests.With(endpoint, "429").Inc()
			w.Header().Set("Retry-After", s.retryAfter)
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("server at capacity (%d requests in flight)", s.cfg.MaxInFlight))
			return
		}
		defer s.inFlight.Dec()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, req)
		s.latency.With(endpoint).Observe(time.Since(start).Seconds())
		s.requests.With(endpoint, strconv.Itoa(sw.code)).Inc()
	}
}

// only is the method guard of an endpoint that takes one method: any
// other is answered 405 naming it.
func only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != method {
			writeError(w, http.StatusMethodNotAllowed, method+" only")
			return
		}
		h(w, req)
	}
}

// handleHealthz reports liveness and readiness. Readiness requires at
// least one loaded model: a replica with an empty registry can only 404
// every scoring request, so it answers 503 with ready:false and a routing
// tier keeps traffic away until models load. `?live=1` asks for liveness
// only — always 200 while the process serves — so process supervisors can
// distinguish "restart me" from "don't route to me yet".
func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	n := s.reg.Len()
	if req.URL.Query().Get("live") == "1" {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "live": true, "models": n})
		return
	}
	if n == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no models loaded", "ready": false, "models": 0})
		return
	}
	body := map[string]any{"status": "ok", "ready": true, "models": n}
	if s.feedback != nil {
		// Drift detail rides on readiness so a routing tier (which already
		// polls /healthz) sees alarms without another endpoint. A firing
		// alarm does not fail readiness: a drifted model still scores.
		body["drift"] = s.driftDetail()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}

func (s *Server) handleModels(w http.ResponseWriter, req *http.Request) {
	models := s.reg.Models()
	infos := make([]ModelInfo, 0, len(models))
	for _, m := range models {
		a := m.Artifact
		schema := make([]string, 0, len(m.Mapper.Attrs()))
		for _, at := range m.Mapper.Attrs() {
			schema = append(schema, at.Name)
		}
		infos = append(infos, ModelInfo{
			Name: a.Name, Kind: a.Kind, Version: m.Version, Threshold: a.Threshold,
			Seed: a.Seed, Schema: schema, Target: a.Target, Metrics: a.Metrics,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

func (s *Server) handleReload(w http.ResponseWriter, req *http.Request) {
	names, err := s.reg.ReloadDir(s.cfg.ReloadDir)
	if err != nil {
		s.reloads.With("error").Inc()
		writeError(w, http.StatusInternalServerError,
			fmt.Sprintf("reload failed, previous model set still serving: %v", err))
		return
	}
	s.reloads.With("ok").Inc()
	writeJSON(w, http.StatusOK, ReloadResponse{Models: names})
}

// handleReloadPrepare decodes the reload directory into a staged set
// without touching the serving table — phase one of a fleet-atomic
// rollout. A new prepare replaces any previously staged set; a failed
// prepare clears it, so a stale set can never be committed after a newer
// prepare was refused.
func (s *Server) handleReloadPrepare(w http.ResponseWriter, req *http.Request) {
	staged, err := s.reg.PrepareDir(s.cfg.ReloadDir)
	s.stagedMu.Lock()
	s.staged = staged // nil on error
	s.stagedMu.Unlock()
	if err != nil {
		s.reloads.With("prepare_error").Inc()
		writeError(w, http.StatusInternalServerError,
			fmt.Sprintf("prepare failed, nothing staged, previous model set still serving: %v", err))
		return
	}
	s.reloads.With("prepared").Inc()
	writeJSON(w, http.StatusOK, ReloadResponse{Models: staged.Names()})
}

// handleReloadCommit atomically swaps the staged set in — phase two. The
// swap itself cannot fail; 409 means nothing was staged (no prepare, or
// an abort/failed prepare since).
func (s *Server) handleReloadCommit(w http.ResponseWriter, req *http.Request) {
	s.stagedMu.Lock()
	staged := s.staged
	s.staged = nil
	s.stagedMu.Unlock()
	if staged == nil {
		writeError(w, http.StatusConflict, "no prepared model set to commit (POST /reload/prepare first)")
		return
	}
	names := staged.Commit()
	s.reloads.With("ok").Inc()
	writeJSON(w, http.StatusOK, ReloadResponse{Models: names})
}

// handleReloadAbort drops any staged set, keeping the serving table
// untouched. Idempotent: aborting with nothing staged is a 200 no-op, so
// a fleet controller can abort every replica without tracking which ones
// prepared successfully.
func (s *Server) handleReloadAbort(w http.ResponseWriter, req *http.Request) {
	s.stagedMu.Lock()
	had := s.staged != nil
	s.staged = nil
	s.stagedMu.Unlock()
	s.reloads.With("aborted").Inc()
	writeJSON(w, http.StatusOK, map[string]any{"aborted": had})
}

// setDeadlines sets the connection's read and write deadlines to t; the
// zero time clears them. Errors are ignored: a transport without deadline
// support (ErrNotSupported) still serves correctly, just unguarded.
func setDeadlines(rc *http.ResponseController, t time.Time) {
	rc.SetReadDeadline(t)
	rc.SetWriteDeadline(t)
}

func (s *Server) handleScore(w http.ResponseWriter, req *http.Request) {
	// One deadline covers reading the body and writing the response, so a
	// slowloris client cannot hold the worker past RequestTimeout. The
	// deadlines are reset on the way out — a pooled keep-alive connection
	// must not inherit this request's deadline as an accidental idle
	// timeout.
	rc := http.NewResponseController(w)
	setDeadlines(rc, time.Now().Add(s.cfg.RequestTimeout))
	defer setDeadlines(rc, time.Time{})

	// The fast path: the body is read whole into a pooled buffer, parsed by
	// the hand-rolled ScoreRequest parser straight into a columnar batch
	// (no map[string]any, no reflection), scored in one columnar
	// ScoreColumns call and rendered by an append-based encoder whose
	// bytes match what json.Encoder produced here before (pinned by the
	// differential suite in fastpath_test.go).
	bufs := scoreBufPool.Get().(*scoreBufs)
	defer putScoreBufs(bufs)
	body, err := ReadBody(w, req, s.cfg.MaxBodyBytes, bufs.body)
	bufs.body = body
	if err != nil {
		writeBodyError(w, err)
		return
	}

	var m *Model
	var st *scoreState
	model, batch, err := data.ParseScoreRequest(body, MaxBatch, func(name string) (*data.ScoreRequestParser, error) {
		mm, ok := s.reg.Get(name)
		if !ok {
			return nil, unknownModelError(name)
		}
		m = mm
		st = mm.scoreState()
		return st.parser, nil
	})
	if st != nil {
		// The batch and its scores live in the pooled state; the response
		// is fully written before the handler returns, so the deferred put
		// cannot release them early.
		defer m.putScoreState(st)
	}
	if err != nil {
		var (
			limitErr *data.BatchLimitError
			segErr   *data.SegmentError
			unknown  unknownModelError
		)
		switch {
		case errors.Is(err, data.ErrMissingModel):
			writeError(w, http.StatusBadRequest, "missing model name")
		case errors.Is(err, data.ErrNoSegments):
			writeError(w, http.StatusBadRequest, "no segments to score")
		case errors.As(err, &limitErr):
			writeError(w, http.StatusBadRequest, limitErr.Error())
		case errors.As(err, &unknown):
			writeError(w, http.StatusNotFound, unknown.Error())
		case errors.As(err, &segErr):
			// The model resolved and the batch passed the count checks, so
			// this request reached the model exactly as a MapValues failure
			// did on the old path: counted for the model, counted as its
			// error.
			s.modelReqs.With(model, "score").Inc()
			s.errors.With(model, "score").Inc()
			writeError(w, http.StatusBadRequest, segErr.Error())
		default:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed request: %v", err))
		}
		return
	}

	s.modelReqs.With(model, "score").Inc()
	scores, err := st.bs.ScoreBatch(batch)
	if err != nil {
		// Unreachable with a parser-produced batch — kinds and binary
		// values are validated at parse time — kept as defense in depth.
		s.errors.With(model, "score").Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	for i, risk := range scores {
		if !artifact.IsFinite(risk) {
			s.errors.With(model, "score").Inc()
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("segment %d: model produced a non-finite score", i))
			return
		}
	}
	s.rows.With(model).Add(uint64(len(scores)))
	bufs.resp = appendScoreResponse(bufs.resp[:0], model, m.Artifact.Kind, scores)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(bufs.resp)
	if s.feedback != nil {
		// After the response: joining and shadow scoring must never delay
		// or fail what the client sees.
		s.observeScores(model, m, batch, scores)
	}
}

func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	name := req.URL.Query().Get("model")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing model query parameter")
		return
	}
	m, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
		return
	}
	s.modelReqs.With(name, "stream").Inc()
	s.streamScores(w, name, m, req)
}

// streamScores runs the out-of-core scoring path over an NDJSON request
// body: rows are parsed, mapped and scored in chunks of streamChunkSize
// and each chunk's scores are flushed before the next is read, so neither
// the request nor the response is ever materialized. The response is NDJSON
// too — one StreamScore line per input row, in order, closed by a
// StreamTrailer. Errors after the first flush cannot change the HTTP
// status, so they are reported in the trailer. Every arriving body read
// and every flushed chunk pushes the connection deadlines StreamTimeout
// ahead: the stream as a whole may run arbitrarily long and a feed of any
// rate stays alive, but a sender that stops sending — or a client that
// stops reading — is cut off within StreamTimeout.
func (s *Server) streamScores(w http.ResponseWriter, name string, m *Model, req *http.Request) {
	// The handler keeps reading the request body after it starts writing
	// the response. Without full-duplex mode the HTTP/1.x server discards
	// and closes the unread body at the first write, truncating any
	// stream with under ~256KiB left to read; HTTP/2 is duplex natively,
	// so an ErrNotSupported here is fine to ignore.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	extend := func() { setDeadlines(rc, time.Now().Add(s.cfg.StreamTimeout)) }
	extend()
	// As in handleScore: keep-alive connections outlive the stream.
	defer setDeadlines(rc, time.Time{})
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	body := &extendingReader{r: req.Body, extend: extend}
	br := data.NewNDJSONBatchReader(body, m.schema, streamChunkSize)
	bs := artifact.NewBatchScorerFor(m.Scorer, m.Mapper)
	var lines []byte // reused chunk render buffer
	rows, err := bs.ScoreAll(br, func(b *data.Batch, scores []float64) error {
		// Validate the whole chunk before emitting any of it, so the
		// trailer's row count always equals the score lines the client
		// received — a chunk either streams completely or not at all.
		if !artifact.Finite(scores) {
			return fmt.Errorf("model produced a non-finite score")
		}
		// Render the chunk with an append-based writer instead of one
		// reflective json.Encoder call per row: at compiled-engine
		// throughput the per-row encoder, not scoring, would dominate
		// the hot path. The lines are the JSON form of StreamScore.
		lines = lines[:0]
		for _, risk := range scores {
			lines = append(appendRisk(lines, risk), '\n')
		}
		if _, err := w.Write(lines); err != nil {
			return err
		}
		rc.Flush()
		extend()
		if s.feedback != nil {
			// The chunk reached the client: file its scores for the join
			// and shadow-score it against any staged candidate.
			s.observeScores(name, m, b, scores)
		}
		return nil
	})
	s.rows.With(name).Add(uint64(rows))
	trailer := StreamTrailer{Done: err == nil, Rows: rows}
	if err != nil {
		s.errors.With(name, "stream").Inc()
		trailer.Error = err.Error()
	}
	enc.Encode(trailer)
	rc.Flush()
}

// extendingReader pushes the stream deadlines forward whenever bytes
// arrive from the client, so the per-chunk deadline cuts off only
// genuinely stalled senders — a slow but active feed (even below one
// chunk per StreamTimeout) keeps its stream alive.
type extendingReader struct {
	r      io.Reader
	extend func()
}

func (e *extendingReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if n > 0 {
		e.extend()
	}
	return n, err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
