package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"roadcrash/internal/serve"
)

// attemptResult is one routed attempt against one replica: either a
// final response to forward, or a retryable failure with the context the
// retry loop needs (Retry-After hint, last status).
type attemptResult struct {
	rep        *replica
	resp       *http.Response // non-nil only when final
	cancel     context.CancelFunc
	err        error
	final      bool
	retryAfter time.Duration
	status     int // status of a non-final response, for exhaustion reporting
	hedge      bool
}

// discard releases a result that will not be forwarded (a hedge loser or
// a late arrival): it settles a 200's breaker verdict, which send leaves
// to whoever consumes the body, then drains a little so the connection
// can be reused, closes and cancels.
func (rt *Router) discard(a attemptResult) {
	if a.resp != nil {
		if a.resp.StatusCode == http.StatusOK {
			rt.recordOutcome(a.rep, "ok")
		}
		io.Copy(io.Discard, io.LimitReader(a.resp.Body, 64<<10))
		a.resp.Body.Close()
	}
	if a.cancel != nil {
		a.cancel()
	}
}

// send performs one attempt against one replica and classifies it. The
// caller derives ctx for this attempt alone and hands over its cancel: a
// batch attempt runs under AttemptTimeout, while a stream, which may
// legitimately run for hours, is policed by the stall guard and the
// transport's response-header timeout instead. A final result carries an
// open response body plus the cancel that must run after the body is
// consumed; a retryable one is already closed. send records every
// outcome but a final 200's, which waits for its body: forward and
// discard record it ok, and forwardStream at the stream's trailer.
func (rt *Router) send(ctx context.Context, cancel context.CancelFunc, rep *replica, req *http.Request, path string, body io.Reader) attemptResult {
	upReq, err := http.NewRequestWithContext(ctx, req.Method, rep.base+path, body)
	if err != nil {
		cancel()
		rt.recordOutcome(rep, "error")
		return attemptResult{rep: rep, err: err}
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		upReq.Header.Set("Content-Type", ct)
	}
	rep.inflight.Add(1)
	resp, err := rt.client.Do(upReq)
	rep.inflight.Add(-1)

	res := attemptResult{rep: rep, resp: resp, cancel: cancel, err: err}
	outcome := "ok"
	switch {
	case err != nil || resp.StatusCode >= 500:
		outcome = "error"
	case resp.StatusCode == http.StatusTooManyRequests:
		outcome = "rejected"
	default:
		// 2xx is success; a non-429 4xx (unknown model, bad JSON) is the
		// client's problem, not the replica's — the replica is healthy and
		// the answer is final.
		res.final = true
	}
	if !res.final || resp.StatusCode != http.StatusOK {
		rt.recordOutcome(rep, outcome)
	}
	if !res.final && resp != nil {
		res.status = resp.StatusCode
		res.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
		res.resp = nil
		cancel()
		res.cancel = nil
	}
	return res
}

// retry is the retry loop of every routed scoring call. Each round picks
// the least-loaded replica not yet in tried (falling back to one that
// is), adds it to tried and hands it to try; a final result is returned
// for the caller to forward. The caller owns tried, so that a hedging
// try can pick its second replica among the rest, and try gets no
// argument the compiler must assume escapes. Between rounds the loop
// backs off, honoring the last Retry-After hint, and a round after the
// first needs canRetry, when given, to hold. retry itself answers every
// call it gives up on: 499 when the client left during a backoff, 503
// when no replica is eligible, and the 429 or 502 of exhausted attempts;
// the second return is then false.
func (rt *Router) retry(w http.ResponseWriter, req *http.Request, endpoint string, tried map[*replica]bool,
	canRetry func() bool, try func(rep *replica) attemptResult) (attemptResult, bool) {
	var last attemptResult
	for attempt := 0; attempt < rt.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if canRetry != nil && !canRetry() {
				break
			}
			rt.retries.With(endpoint).Inc()
			if !rt.sleep(req.Context(), rt.backoffDelay(attempt-1, last.retryAfter)) {
				rt.countAndError(w, endpoint, statusClientClosed, "client gave up during retry backoff")
				return attemptResult{}, false
			}
		}
		rep := rt.pickPreferFresh(tried)
		if rep == nil {
			rt.writeNoReplicas(w, endpoint)
			return attemptResult{}, false
		}
		tried[rep] = true
		res := try(rep)
		if res.final {
			return res, true
		}
		last = res
	}
	rt.writeExhausted(w, endpoint, last)
	return attemptResult{}, false
}

// buffered returns the handler of a bufferable call (POST /score, GET
// /models, GET /hotspots): the body is read whole and every attempt
// replays it verbatim, so the call is idempotent by construction and is
// retried and hedged.
func (rt *Router) buffered(method, endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != method {
			rt.countAndError(w, endpoint, http.StatusMethodNotAllowed, method+" only")
			return
		}
		rt.routeBuffered(w, req, endpoint)
	}
}

// routeBuffered routes a bufferable call through the retry loop, each
// round possibly hedged.
func (rt *Router) routeBuffered(w http.ResponseWriter, req *http.Request, endpoint string) {
	start := time.Now()
	// The replica's body reader, so a body error gets the replica's
	// answer. The buffer is never pooled: a hedge loser and the
	// transport's write loop may still read it after this handler returns.
	body, err := serve.ReadBody(w, req, rt.cfg.MaxBodyBytes, nil)
	if err != nil {
		status, msg := serve.BodyError(err)
		rt.countAndError(w, endpoint, status, msg)
		return
	}
	path := upstreamPath(endpoint, req)
	tried := make(map[*replica]bool)
	res, ok := rt.retry(w, req, endpoint, tried, nil, func(rep *replica) attemptResult {
		return rt.round(req, path, body, rep, tried)
	})
	if ok {
		rt.forward(w, res, endpoint, start)
	}
}

// upstreamPath is the replica path for a routed call: the endpoint plus
// the client's query string (?model= on a stream, ?model=&k= on
// /hotspots).
func upstreamPath(endpoint string, req *http.Request) string {
	if q := req.URL.RawQuery; q != "" {
		return endpoint + "?" + q
	}
	return endpoint
}

// round performs one retry-loop round of a bufferable call on primary: a
// single attempt, or — when hedging is enabled — the primary attempt
// raced against a delayed hedge on another replica.
func (rt *Router) round(req *http.Request, path string, body []byte, primary *replica, tried map[*replica]bool) attemptResult {
	if rt.cfg.HedgeAfter <= 0 {
		ctx, cancel := context.WithTimeout(req.Context(), rt.cfg.AttemptTimeout)
		return rt.send(ctx, cancel, primary, req, path, bytes.NewReader(body))
	}

	ch := make(chan attemptResult, 2)
	launch := func(rep *replica, hedge bool) context.CancelFunc {
		ctx, cancel := context.WithTimeout(req.Context(), rt.cfg.AttemptTimeout)
		go func() {
			res := rt.send(ctx, cancel, rep, req, path, bytes.NewReader(body))
			res.hedge = hedge
			ch <- res
		}()
		return cancel
	}
	cancels := map[bool]context.CancelFunc{false: launch(primary, false)}

	timer := time.NewTimer(rt.cfg.HedgeAfter)
	defer timer.Stop()
	inFlight := 1
	for {
		select {
		case res := <-ch:
			inFlight--
			if res.final {
				// Winner. Kill the straggler (if any) and discard its
				// result off-path so its connection is cleaned up.
				if inFlight > 0 {
					cancels[!res.hedge]()
					go func() { rt.discard(<-ch) }()
				}
				if res.hedge {
					rt.hedges.With("won").Inc()
				}
				return res
			}
			if inFlight == 0 {
				// Every launched attempt failed (send has released each):
				// hand the last failure to the retry loop.
				return res
			}
			// The other attempt may still succeed.
		case <-timer.C:
			if second := rt.pickPreferFresh(tried); second != nil {
				tried[second] = true
				rt.hedges.With("launched").Inc()
				cancels[true] = launch(second, true)
				inFlight++
			}
		}
	}
}

// forward relays a final response to the client, records the request
// metrics and, once a 200's body is relayed, its ok verdict.
func (rt *Router) forward(w http.ResponseWriter, res attemptResult, endpoint string, start time.Time) {
	defer res.cancel()
	defer res.resp.Body.Close()
	copyHeader(w.Header(), res.resp.Header)
	w.WriteHeader(res.resp.StatusCode)
	relay(w, res.resp.Body)
	if res.resp.StatusCode == http.StatusOK {
		rt.recordOutcome(res.rep, "ok")
	}
	rt.requests.With(endpoint, strconv.Itoa(res.resp.StatusCode)).Inc()
	rt.latency.With(endpoint).Observe(time.Since(start).Seconds())
}

// relayBufPool holds the copy buffers relay moves answers through.
var relayBufPool = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// relay copies an upstream answer into w. The anonymous struct hides w's
// io.ReaderFrom from io.CopyBuffer: net/http's ReadFrom sends the headers
// with the first 512 bytes and hands the rest to the socket in a second
// write, allocating a 32 KiB buffer for it, while plain writes fill the
// server's response buffer, so an answer that fits leaves in one write
// when the handler returns. A failed copy needs no answer: the status is
// already sent, and net/http closes a connection whose body falls short
// of its Content-Length.
func relay(w io.Writer, body io.Reader) {
	buf := relayBufPool.Get().(*[32 << 10]byte)
	defer relayBufPool.Put(buf)
	io.CopyBuffer(struct{ io.Writer }{w}, body, buf[:])
}

// statusClientClosed is nginx's 499: the client went away before the
// router could answer. Never actually received by anyone; it keeps the
// metrics honest.
const statusClientClosed = 499

// sleep waits d or until ctx is done; it reports whether the full wait
// completed.
func (rt *Router) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// writeNoReplicas answers for a fleet with no routable replica: a fast
// 503 with a Retry-After covering the breaker cooldown, instead of
// hanging the client while nothing can possibly serve it.
func (rt *Router) writeNoReplicas(w http.ResponseWriter, endpoint string) {
	w.Header().Set("Retry-After", rt.retryAfterHeader)
	rt.countJSON(w, endpoint, http.StatusServiceUnavailable, map[string]any{
		"error": "no eligible replicas: all replicas are down, unready or circuit-broken",
	})
}

// writeExhausted answers after every attempt failed: a 429 when the last
// word from the fleet was "at capacity" (propagating its Retry-After), a
// 502 otherwise.
func (rt *Router) writeExhausted(w http.ResponseWriter, endpoint string, last attemptResult) {
	if last.status == http.StatusTooManyRequests {
		ra := rt.retryAfterHeader
		if last.retryAfter > 0 {
			ra = serve.FormatRetryAfter(last.retryAfter)
		}
		w.Header().Set("Retry-After", ra)
		rt.countJSON(w, endpoint, http.StatusTooManyRequests, map[string]any{
			"error": fmt.Sprintf("all replicas at capacity after %d attempts", rt.cfg.MaxAttempts),
		})
		return
	}
	msg := fmt.Sprintf("all %d attempts failed", rt.cfg.MaxAttempts)
	if last.err != nil {
		msg += ": " + last.err.Error()
	} else if last.status != 0 {
		msg += fmt.Sprintf(": last replica answered %d", last.status)
	}
	rt.countJSON(w, endpoint, http.StatusBadGateway, map[string]any{"error": msg})
}

// copyHeader copies every header value from src to dst.
func copyHeader(dst, src http.Header) {
	for k, vv := range src {
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// countJSON writes a JSON response and counts it in the request metrics.
func (rt *Router) countJSON(w http.ResponseWriter, endpoint string, status int, v any) {
	writeJSON(w, status, v)
	rt.requests.With(endpoint, strconv.Itoa(status)).Inc()
}

// countAndError writes a JSON error and counts it in the request metrics.
func (rt *Router) countAndError(w http.ResponseWriter, endpoint string, status int, msg string) {
	rt.countJSON(w, endpoint, status, map[string]string{"error": msg})
}
