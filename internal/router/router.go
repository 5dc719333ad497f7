// Package router is the fault-tolerant sharded serving tier: a reverse
// scoring proxy that fans POST /score and POST /score/stream across N
// serve replicas. Routing is least-inflight over the replicas the health
// poller reports ready and the per-replica circuit breaker admits;
// robustness is the point, not an afterthought:
//
//   - retries with exponential backoff plus jitter on connect errors and
//     5xx, honoring Retry-After on 429 rejections (bounded by
//     RetryMaxDelay so a conservative hint cannot idle the fleet);
//   - hedged requests on the idempotent batch path: if a replica has not
//     answered within HedgeAfter, a second attempt races on another
//     replica and the first usable response wins — the p99 rescue;
//   - per-replica circuit breakers (consecutive failures open, half-open
//     probe recloses) eject failing or stalled replicas and readmit them
//     gracefully;
//   - mid-stream replica death is surfaced through the stream trailer
//     contract: the router appends {"done":false,...,"error":...} so a
//     truncated stream is always detectable by the client;
//   - POST /reload rolls the whole fleet atomically via the replicas'
//     two-phase /reload/prepare + /reload/commit — if any replica fails
//     to prepare, every replica keeps its old model set, matching
//     Registry.ReloadDir semantics one level up.
//
// The router exposes the same probe surface as a replica (GET /healthz,
// GET /metrics, GET /models) and forwards GET /hotspots like the model
// listing, so load generators and supervisors cannot tell the tiers
// apart.
package router

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roadcrash/internal/metrics"
	"roadcrash/internal/serve"
)

// Config tunes the routing tier. Zero fields select their defaults, so
// only Replicas is required.
type Config struct {
	// Replicas are the base URLs of the serve replicas to fan out over,
	// e.g. "http://127.0.0.1:8081". At least one is required.
	Replicas []string
	// MaxAttempts bounds the tries per batch request (first attempt
	// included). Default 3.
	MaxAttempts int
	// RetryBaseDelay seeds the exponential backoff between retries; the
	// delay for retry n is RetryBaseDelay·2ⁿ plus up to 50% jitter.
	// Default 25ms.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps every retry sleep, including an honored
	// Retry-After hint — a replica advertising a long drain must not idle
	// the whole fleet when a sibling has capacity. Default 1s.
	RetryMaxDelay time.Duration
	// AttemptTimeout bounds one batch attempt end to end. Default 30s.
	AttemptTimeout time.Duration
	// HedgeAfter launches a second, racing attempt for a batch request
	// whose first replica has not answered within this delay. Zero
	// disables hedging. Idempotent calls only — streams never hedge.
	HedgeAfter time.Duration
	// BreakerFailures is the consecutive-failure count that opens a
	// replica's circuit breaker. Default 5.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker ejects its replica
	// before a half-open probe is admitted. Default 2s.
	BreakerCooldown time.Duration
	// PollInterval paces the per-replica /healthz + /metrics poller.
	// Default 1s.
	PollInterval time.Duration
	// StreamStallTimeout cuts off a streaming replica that stops sending:
	// every upstream read resets the clock, mirroring the replica's own
	// progress deadline. Default 30s.
	StreamStallTimeout time.Duration
	// MaxBodyBytes caps a batch request body, matching the replica's own
	// limit. Default 64 MiB.
	MaxBodyBytes int64
	// JitterSeed seeds the router's private backoff-jitter RNG, making
	// retry schedules reproducible in tests. Zero selects a time-based
	// seed — the production default, where desynchronization is the
	// point.
	JitterSeed int64
}

// DefaultConfig returns the default routing and robustness settings.
func DefaultConfig() Config {
	return Config{
		MaxAttempts:        3,
		RetryBaseDelay:     25 * time.Millisecond,
		RetryMaxDelay:      time.Second,
		AttemptTimeout:     30 * time.Second,
		BreakerFailures:    5,
		BreakerCooldown:    2 * time.Second,
		PollInterval:       time.Second,
		StreamStallTimeout: 30 * time.Second,
		MaxBodyBytes:       64 << 20,
	}
}

// withDefaults fills zero fields from DefaultConfig. HedgeAfter stays
// zero unless set: hedging doubles worst-case load, so it is opt-in.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = def.MaxAttempts
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = def.RetryBaseDelay
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = def.RetryMaxDelay
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = def.AttemptTimeout
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = def.BreakerFailures
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = def.BreakerCooldown
	}
	if c.PollInterval <= 0 {
		c.PollInterval = def.PollInterval
	}
	if c.StreamStallTimeout <= 0 {
		c.StreamStallTimeout = def.StreamStallTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = def.MaxBodyBytes
	}
	return c
}

// replica is one upstream serve process: its address plus the live state
// routing decisions read — local in-flight count, the last polled
// readiness and in-flight gauge, and the circuit breaker fed by passive
// request outcomes.
type replica struct {
	base string // normalized base URL, no trailing slash
	// inflight counts this router's outstanding requests to the replica.
	inflight atomic.Int64
	// extLoad is the replica's own in-flight gauge from the last /metrics
	// poll — traffic from other routers and direct clients. It is up to
	// one poll interval stale and briefly double-counts our own in-flight
	// requests; both errors are small and identical across replicas, so
	// least-loaded ordering survives.
	extLoad atomic.Int64
	// ready is the last /healthz verdict: false while the replica is
	// unreachable or reports no loaded models. Optimistically true until
	// the first poll so a fresh router routes immediately.
	ready atomic.Bool
	br    *breaker
}

// load is the routing score: lower is less loaded.
func (r *replica) load() int64 { return r.inflight.Load() + r.extLoad.Load() }

// ReplicaHealth is one replica's entry in the router's GET /healthz
// report.
type ReplicaHealth struct {
	URL      string `json:"url"`
	Ready    bool   `json:"ready"`
	Breaker  string `json:"breaker"`
	InFlight int64  `json:"in_flight"`
	ExtLoad  int64  `json:"ext_load"`
}

// Router is the serving tier: an http.Handler fanning scoring traffic
// across replicas. Construct with New, call Start to begin health
// polling, Close to stop it.
type Router struct {
	cfg      Config
	replicas []*replica
	client   *http.Client
	mux      *http.ServeMux
	// retryAfterHeader is the hint sent with a fleet-wide 503: the
	// breaker cooldown rounded up to whole seconds, the soonest a retry
	// could plausibly find a readmitted replica.
	retryAfterHeader string

	// jitter is the router's private backoff RNG. Per-instance (not the
	// global math/rand source) so concurrent routers don't contend on
	// one lock in the retry path and tests can seed it deterministically.
	jitterMu sync.Mutex
	jitter   *rand.Rand

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	metrics      *metrics.Registry
	requests     *metrics.CounterVec   // {endpoint, code}
	replicaReqs  *metrics.CounterVec   // {replica, outcome}
	retries      *metrics.CounterVec   // {endpoint}
	hedges       *metrics.CounterVec   // {outcome}
	replicaReady *metrics.GaugeVec     // {replica}
	breakerState *metrics.GaugeVec     // {replica}
	fleetReloads *metrics.CounterVec   // {outcome}
	latency      *metrics.HistogramVec // {endpoint}
}

// New builds a router over the configured replicas. Zero Config fields
// select their defaults; at least one replica URL is required.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: at least one replica URL is required")
	}
	rt := &Router{
		cfg: cfg,
		// One warm connection pool shared across replicas: per-request
		// handshakes would charge connection setup to every routed call.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:          256,
			MaxIdleConnsPerHost:   256,
			ResponseHeaderTimeout: cfg.StreamStallTimeout,
		}},
		stop:    make(chan struct{}),
		metrics: metrics.NewRegistry(),
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rt.jitter = rand.New(rand.NewSource(seed))
	rt.retryAfterHeader = serve.FormatRetryAfter(cfg.BreakerCooldown)
	seen := make(map[string]bool)
	for _, raw := range cfg.Replicas {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		u, err := url.Parse(base)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: replica %q is not an absolute URL", raw)
		}
		if seen[base] {
			return nil, fmt.Errorf("router: duplicate replica %q", base)
		}
		seen[base] = true
		rep := &replica{base: base, br: newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown)}
		rep.ready.Store(true)
		rt.replicas = append(rt.replicas, rep)
	}

	rt.requests = rt.metrics.CounterVec("crashprone_router_requests_total",
		"Routed requests by endpoint and HTTP status code.", "endpoint", "code")
	rt.replicaReqs = rt.metrics.CounterVec("crashprone_router_replica_requests_total",
		"Attempts by replica and outcome (ok, rejected, error).", "replica", "outcome")
	rt.retries = rt.metrics.CounterVec("crashprone_router_retries_total",
		"Retried attempts by endpoint.", "endpoint")
	rt.hedges = rt.metrics.CounterVec("crashprone_router_hedges_total",
		"Hedged batch attempts by outcome (launched, won).", "outcome")
	rt.replicaReady = rt.metrics.GaugeVec("crashprone_router_replica_ready",
		"Last polled replica readiness (1 ready, 0 not).", "replica")
	rt.breakerState = rt.metrics.GaugeVec("crashprone_router_breaker_state",
		"Replica circuit breaker state (0 closed, 1 open, 2 half-open).", "replica")
	rt.fleetReloads = rt.metrics.CounterVec("crashprone_router_fleet_reloads_total",
		"Fleet reload attempts by outcome.", "outcome")
	rt.latency = rt.metrics.HistogramVec("crashprone_router_request_duration_seconds",
		"Routed request latency by endpoint.", nil, "endpoint")
	for _, rep := range rt.replicas {
		rt.replicaReady.With(rep.base).Set(1)
		rt.breakerState.With(rep.base).Set(0)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/score", rt.buffered(http.MethodPost, "/score"))
	mux.HandleFunc("/score/stream", rt.handleStream)
	mux.HandleFunc("/models", rt.buffered(http.MethodGet, "/models"))
	mux.HandleFunc("/hotspots", rt.buffered(http.MethodGet, "/hotspots"))
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/reload", rt.handleReload)
	rt.mux = mux
	return rt, nil
}

// Start runs one synchronous poll of every replica (so routing begins
// with fresh readiness) and then launches the background health pollers.
func (rt *Router) Start() {
	var wg sync.WaitGroup
	for _, rep := range rt.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			rt.pollOnce(rep)
		}(rep)
	}
	wg.Wait()
	for _, rep := range rt.replicas {
		rt.wg.Add(1)
		go rt.pollLoop(rep)
	}
}

// Close stops the health pollers. Safe to call more than once.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// ServeHTTP dispatches to the router's endpoints.
func (rt *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { rt.mux.ServeHTTP(w, req) }

// Health reports every replica's routing state, sorted by configuration
// order.
func (rt *Router) Health() []ReplicaHealth {
	out := make([]ReplicaHealth, 0, len(rt.replicas))
	now := time.Now()
	for _, rep := range rt.replicas {
		out = append(out, ReplicaHealth{
			URL:      rep.base,
			Ready:    rep.ready.Load() && rep.br.CanRoute(now),
			Breaker:  rep.br.State().String(),
			InFlight: rep.inflight.Load(),
			ExtLoad:  rep.extLoad.Load(),
		})
	}
	return out
}

// pick chooses the least-loaded replica that is ready, admitted by its
// breaker and not excluded, claiming the breaker slot on the winner. Ties
// break toward configuration order, so routing is deterministic when the
// fleet is idle. It returns nil when no replica is eligible.
func (rt *Router) pick(exclude map[*replica]bool) *replica {
	now := time.Now()
	var candidates []*replica
	for _, rep := range rt.replicas {
		if exclude[rep] || !rep.ready.Load() || !rep.br.CanRoute(now) {
			continue
		}
		candidates = append(candidates, rep)
	}
	// Try candidates in load order: Acquire can refuse (a raced half-open
	// probe), in which case the next-least-loaded replica gets the call.
	for len(candidates) > 0 {
		best := 0
		for i := 1; i < len(candidates); i++ {
			if candidates[i].load() < candidates[best].load() {
				best = i
			}
		}
		rep := candidates[best]
		if rep.br.Acquire(time.Now()) {
			return rep
		}
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return nil
}

// pickPreferFresh picks an untried replica when one is eligible, falling
// back to retrying an already-tried one — a retry should explore the
// fleet before hammering the replica that just failed.
func (rt *Router) pickPreferFresh(tried map[*replica]bool) *replica {
	if rep := rt.pick(tried); rep != nil {
		return rep
	}
	if len(tried) == 0 {
		return nil
	}
	return rt.pick(nil)
}

// recordOutcome feeds a request outcome into the replica's breaker and
// metrics. rejected (429) means the replica is alive but at capacity: it
// clears the failure streak without counting as either outcome for the
// breaker threshold.
func (rt *Router) recordOutcome(rep *replica, outcome string) {
	rt.replicaReqs.With(rep.base, outcome).Inc()
	switch outcome {
	case "ok", "rejected":
		rep.br.Success()
	case "error":
		rep.br.Fail(time.Now())
	}
	rt.breakerState.With(rep.base).Set(int64(rep.br.State()))
}

// backoffDelay is the sleep before retry n (0-based): exponential from
// RetryBaseDelay with up to 50% jitter, capped at RetryMaxDelay. An
// honored Retry-After hint overrides the exponential base but never the
// cap.
func (rt *Router) backoffDelay(retry int, retryAfter time.Duration) time.Duration {
	d := rt.cfg.RetryBaseDelay << retry
	if retryAfter > 0 {
		d = retryAfter
	}
	if d > rt.cfg.RetryMaxDelay {
		d = rt.cfg.RetryMaxDelay
	}
	// Jitter desynchronizes retry storms from many clients.
	rt.jitterMu.Lock()
	j := rt.jitter.Int63n(int64(d)/2 + 1)
	rt.jitterMu.Unlock()
	return d + time.Duration(j)
}

// parseRetryAfter reads a Retry-After header in both RFC 9110 forms —
// delta-seconds and HTTP-date — as a delay from now; zero means absent,
// unparseable, or a date already in the past. The serve tier sends
// delta-seconds, but a proxy or load balancer fronting a replica may
// rewrite the header to a date, and before this the router silently
// dropped those hints and fell back to exponential backoff.
func parseRetryAfter(h string) time.Duration {
	return parseRetryAfterAt(h, time.Now())
}

// parseRetryAfterAt is parseRetryAfter against an explicit clock, so the
// HTTP-date arithmetic is unit-testable.
func parseRetryAfterAt(h string, now time.Time) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	when, err := http.ParseTime(h)
	if err != nil {
		return 0
	}
	d := when.Sub(now)
	if d < 0 {
		return 0
	}
	return d
}

func (rt *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	health := rt.Health()
	if req.URL.Query().Get("live") == "1" {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "live": true, "replicas": health})
		return
	}
	eligible := 0
	for _, h := range health {
		if h.Ready {
			eligible++
		}
	}
	if eligible == 0 {
		w.Header().Set("Retry-After", rt.retryAfterHeader)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "no eligible replicas", "ready": false, "replicas": health,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "ready": true, "replicas": health})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.metrics.WritePrometheus(w)
}
