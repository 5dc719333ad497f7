package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"roadcrash/internal/serve"
)

// trailerPrefix identifies the stream trailer line. Score lines start
// with {"risk": — only the trailer opens with the done field.
var trailerPrefix = []byte(`{"done":`)

// streamReplayBytes caps the stream request body the router buffers for
// replay. A stream whose body fits can be retried on another replica as
// long as no response byte was forwarded; a larger stream is single-shot.
const streamReplayBytes = 1 << 20

// replayBody tees the client's stream request body into a buffer capped
// at streamReplayBytes so a failed attempt can be replayed on another
// replica. Once the cap is exceeded the body is marked single-shot: the
// router keeps constant memory per stream no matter how large the feed
// is.
type replayBody struct {
	src      io.Reader // the client body, advanced as attempts consume it
	buf      []byte
	overflow bool
}

// Write implements the tee sink: it stores bytes up to the cap and
// silently drops the rest (a tee writer must not fail the read).
func (rb *replayBody) Write(p []byte) (int, error) {
	if !rb.overflow {
		room := streamReplayBytes - len(rb.buf)
		if room >= len(p) {
			rb.buf = append(rb.buf, p...)
		} else {
			rb.overflow = true
			rb.buf = rb.buf[:0] // a partial replay is useless; free it
		}
	}
	return len(p), nil
}

// reader returns the body for the next attempt: everything buffered so
// far, then the unread remainder of the client body, with the remainder
// teed for a further retry. bytes.NewReader snapshots the current
// buffer, so appends during the attempt cannot corrupt the replay.
func (rb *replayBody) reader() io.Reader {
	buffered := bytes.NewReader(rb.buf)
	return io.MultiReader(buffered, io.TeeReader(rb.src, rb))
}

// canReplay reports whether another attempt can resend the full body.
func (rb *replayBody) canReplay() bool { return !rb.overflow }

// stallGuard cuts off a streaming replica that stops sending: every
// successful read pushes the deadline StreamStallTimeout ahead; when the
// timer fires it cancels the attempt context, failing the read.
type stallGuard struct {
	r     io.Reader
	timer *time.Timer
	d     time.Duration
}

func (g *stallGuard) Read(p []byte) (int, error) {
	n, err := g.r.Read(p)
	if err == nil {
		g.timer.Reset(g.d)
	}
	return n, err
}

// handleStream routes POST /score/stream. Retries happen only while
// nothing has been forwarded to the client and the request body still
// fits the replay buffer; once response bytes flow, a dying replica is
// surfaced through the trailer contract instead — the router appends
// {"done":false,"rows":N,"error":...} so the client always learns the
// stream was truncated. Streams never hedge.
func (rt *Router) handleStream(w http.ResponseWriter, req *http.Request) {
	const endpoint = "/score/stream"
	start := time.Now()
	if req.Method != http.MethodPost {
		rt.countAndError(w, endpoint, http.StatusMethodNotAllowed, "POST only")
		return
	}
	path := upstreamPath(endpoint, req)
	rb := &replayBody{src: req.Body}
	res, ok := rt.retry(w, req, endpoint, make(map[*replica]bool), rb.canReplay, func(rep *replica) attemptResult {
		// No AttemptTimeout: the attempt context lives until the stream
		// ends.
		ctx, cancel := context.WithCancel(req.Context())
		return rt.send(ctx, cancel, rep, req, path, rb.reader())
	})
	if ok {
		rt.forwardStream(w, res, endpoint, start)
	}
}

// forwardStream relays an accepted upstream stream line by line,
// counting score rows and watching for the trailer, and settles the
// replica's breaker verdict there. If upstream ends without one — the
// replica died mid-stream — the router appends a {"done":false} trailer
// naming the replica and trips its breaker. Any other final answer (a
// 404 unknown model, a 400) is relayed whole by forward.
func (rt *Router) forwardStream(w http.ResponseWriter, res attemptResult, endpoint string, start time.Time) {
	if res.resp.StatusCode != http.StatusOK {
		rt.forward(w, res, endpoint, start)
		return
	}
	defer res.cancel()
	defer res.resp.Body.Close()
	rt.requests.With(endpoint, "200").Inc()
	defer func() { rt.latency.With(endpoint).Observe(time.Since(start).Seconds()) }()

	copyHeader(w.Header(), res.resp.Header)
	w.Header().Del("Content-Length") // relayed line-by-line; length unknown
	w.WriteHeader(http.StatusOK)

	// The upstream attempt keeps reading the client's body while scores
	// flow back, as on a replica: without full-duplex mode the HTTP/1.x
	// server drains the unread body at the first write, and the replica's
	// stream breaks off mid-feed.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	stall := &stallGuard{r: res.resp.Body, d: rt.cfg.StreamStallTimeout}
	stall.timer = time.AfterFunc(rt.cfg.StreamStallTimeout, res.cancel)
	defer stall.timer.Stop()

	scanner := bufio.NewScanner(stall)
	scanner.Buffer(make([]byte, 64<<10), 1<<20)
	rows := 0
	pending := 0
	lastFlush := time.Now()
	sawTrailer := false
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if bytes.HasPrefix(line, trailerPrefix) {
			sawTrailer = true
		} else {
			rows++
		}
		if _, err := w.Write(line); err != nil {
			// Client went away; drain nothing further.
			rt.recordOutcome(res.rep, "ok") // the replica did its job
			return
		}
		io.WriteString(w, "\n")
		pending++
		// Flush in small batches so rows reach the client promptly
		// without paying a flush per line on fast streams.
		if pending >= 64 || time.Since(lastFlush) > 50*time.Millisecond {
			rc.Flush()
			pending = 0
			lastFlush = time.Now()
		}
	}

	if sawTrailer {
		rt.recordOutcome(res.rep, "ok")
	} else {
		// Upstream ended with no trailer: the replica died (or stalled
		// out) mid-stream. Tell the client honestly and trip the breaker.
		reason := "connection closed"
		if err := scanner.Err(); err != nil {
			reason = err.Error()
		}
		trailer := serve.StreamTrailer{
			Done: false,
			Rows: rows,
			Error: fmt.Sprintf("replica %s died mid-stream after %d rows: %s",
				res.rep.base, rows, reason),
		}
		if b, err := json.Marshal(trailer); err == nil {
			w.Write(append(b, '\n'))
		}
		rt.recordOutcome(res.rep, "error")
	}
	rc.Flush()
}
