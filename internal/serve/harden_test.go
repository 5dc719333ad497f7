package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"roadcrash/internal/artifact"
	"roadcrash/internal/data"
	"roadcrash/internal/mining/tree"
	"roadcrash/internal/rng"
)

// trainFixture trains a decision tree over the fixture schema with a
// caller-chosen labeling rule, persists it under name into dir and
// returns the in-process tree. Different rules yield trees with different
// predictions, which the rollout tests rely on to tell model versions
// apart.
func trainFixture(t *testing.T, dir, name string, label func(aadt, surface float64) bool) *tree.Tree {
	t.Helper()
	r := rng.New(21)
	b := data.NewBuilder("net").
		Interval("aadt").
		Nominal("surface", "seal", "gravel").
		Binary("crash_prone")
	for i := 0; i < 400; i++ {
		aadt := 500 + 4000*r.Float64()
		surface := float64(r.Intn(2))
		y := 0.0
		if label(aadt, surface) {
			y = 1
		}
		b.Row(aadt, surface, y)
	}
	ds := b.Build()
	cfg := tree.DefaultConfig()
	cfg.MinLeaf = 10
	cfg.Features = []int{0, 1}
	dt, err := tree.Grow(ds, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := artifact.New(name, artifact.KindDecisionTree, dt, ds.Attrs(), 8, 21, "crash_prone", map[string]float64{"mcpv": 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.WriteFile(filepath.Join(dir, name+".json"), a); err != nil {
		t.Fatal(err)
	}
	return dt
}

func labelV1(aadt, surface float64) bool { return aadt > 2400 || (surface == 1 && aadt > 1500) }
func labelV2(aadt, surface float64) bool { return aadt < 2000 }

// waitInFlight polls until the server has admitted n scoring requests.
func waitInFlight(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.inFlight.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached %d (at %d)", n, s.inFlight.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDrained polls until no scoring request is in flight — the server-side
// proof that a deadline released its worker.
func waitDrained(t *testing.T, s *Server, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for s.inFlight.Value() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests still in flight after %v", s.inFlight.Value(), within)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionControl429 pins the overload behavior: with a cap of 1, a
// held stream occupies the only slot and the next scoring request is
// rejected immediately with 429 (probe endpoints stay open), and the slot
// is reusable once the stream finishes.
func TestAdmissionControl429(t *testing.T) {
	dir := t.TempDir()
	dt := trainFixture(t, dir, "cp-8-tree", labelV1)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{MaxInFlight: 1})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Hold the single slot with a stream whose body stays open.
	pr, pw := io.Pipe()
	streamDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/score/stream?model=cp-8-tree", "application/x-ndjson", pr)
		if err != nil {
			streamDone <- err
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if !bytes.Contains(body, []byte(`"done":true`)) {
			streamDone <- fmt.Errorf("held stream did not finish cleanly: %s", body)
			return
		}
		streamDone <- nil
	}()
	if _, err := pw.Write([]byte("{\"aadt\": 900}\n")); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, s, 1)

	// Both scoring endpoints must now reject crisply.
	raw, _ := json.Marshal(ScoreRequest{Model: "cp-8-tree", Segments: []map[string]any{{"aadt": 100.0}}})
	resp, err := http.Post(srv.URL+"/score", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded /score status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want the default %q", got, "1")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("429 body %q is not a JSON error", body)
	}
	resp, err = http.Post(srv.URL+"/score/stream?model=cp-8-tree", "application/x-ndjson", strings.NewReader("{\"aadt\": 1}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded /score/stream status = %d, want 429", resp.StatusCode)
	}

	// Probe and admin endpoints are exempt from admission.
	for _, path := range []string{"/healthz", "/models", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s under load: status = %d, want 200", path, resp.StatusCode)
		}
	}

	// Releasing the stream frees the slot.
	pw.Close()
	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/score", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var sr ScoreResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release /score: status %d, err %v", resp.StatusCode, err)
	}
	if want := dt.PredictProb([]float64{100, data.Missing, data.Missing}); sr.Scores[0].Risk != want {
		t.Fatalf("post-release risk %v, want %v", sr.Scores[0].Risk, want)
	}
}

// TestRetryAfterConfigurable pins the Retry-After knob: the header tracks
// serve.Config.RetryAfter (rounded up to whole seconds, never zero)
// instead of the old hardcoded "1" — a deployment draining 30-second
// streams should not invite a retry storm every second.
func TestRetryAfterConfigurable(t *testing.T) {
	reg := NewRegistry()
	for _, tc := range []struct {
		cfg  time.Duration
		want string
	}{
		{0, "1"},                      // zero selects the 1s default
		{200 * time.Millisecond, "1"}, // sub-second rounds up, never 0
		{2 * time.Second, "2"},
		{2500 * time.Millisecond, "3"}, // rounds up, not down
		{time.Minute, "60"},
	} {
		s := New(reg, Config{RetryAfter: tc.cfg})
		if s.retryAfter != tc.want {
			t.Errorf("RetryAfter %v rendered %q, want %q", tc.cfg, s.retryAfter, tc.want)
		}
	}

	// End to end: an overloaded server advertises the configured hint.
	dir := t.TempDir()
	trainFixture(t, dir, "cp-8-tree", labelV1)
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{MaxInFlight: 1, RetryAfter: 7 * time.Second})
	srv := httptest.NewServer(s)
	defer srv.Close()

	pr, pw := io.Pipe()
	streamDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/score/stream?model=cp-8-tree", "application/x-ndjson", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		streamDone <- err
	}()
	if _, err := pw.Write([]byte("{\"aadt\": 900}\n")); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, s, 1)
	raw, _ := json.Marshal(ScoreRequest{Model: "cp-8-tree", Segments: []map[string]any{{"aadt": 100.0}}})
	resp, err := http.Post(srv.URL+"/score", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded /score status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want %q", got, "7")
	}
	pw.Close()
	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}
}

// TestFormatRetryAfter pins the one rendering of a Retry-After value that
// replicas and the router share: whole seconds, rounded up.
func TestFormatRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{time.Nanosecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{90 * time.Second, "90"},
	} {
		if got := FormatRetryAfter(tc.d); got != tc.want {
			t.Errorf("FormatRetryAfter(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestHeaderDeadline pins the deadlines RunListener and /score give a
// connection. One that sends half a header is closed within
// readHeaderTimeout plus slack, while a keep-alive connection left idle
// for longer than that between two requests still gets its second
// answer, because the header clock starts at a request's first byte. A
// /score or /feedback body that stalls is answered 400 and closed within
// RequestTimeout plus slack, whether more or less than the 256 KiB
// net/http would drain after the handler is left unread; the answer
// names the deadline, not the connection's addresses. A body that stalls
// after passing the byte limit gets its 413 and the close at once.
func TestHeaderDeadline(t *testing.T) {
	t.Parallel()
	const requestTimeout, bodyLimit = time.Second, 1024
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() {
		cfg := Config{RequestTimeout: requestTimeout, MaxBodyBytes: bodyLimit, FeedbackWindow: 16}
		runDone <- RunListener(ctx, ln, New(NewRegistry(), cfg), time.Second)
	}()
	t.Cleanup(func() {
		cancel()
		<-runDone
	})
	addr := ln.Addr().String()
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	const request = "GET /healthz?live=1 HTTP/1.1\r\nHost: replica\r\n"

	t.Run("half a header", func(t *testing.T) {
		t.Parallel()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		if _, err := io.WriteString(conn, request); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(start.Add(readHeaderTimeout + 2*time.Second))
		n, err := conn.Read(make([]byte, 512))
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("connection with half a header still open after %v", time.Since(start))
		}
		if n > 0 {
			t.Fatalf("half a header got %d bytes of answer", n)
		}
	})

	t.Run("idle keep-alive", func(t *testing.T) {
		t.Parallel()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second))
		br := bufio.NewReader(conn)
		for i := 0; i < 2; i++ {
			if i == 1 {
				time.Sleep(readHeaderTimeout + time.Second)
			}
			if _, err := io.WriteString(conn, request+"\r\n"); err != nil {
				t.Fatalf("request %d: %v", i+1, err)
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("request %d: %v", i+1, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: status %d, want 200", i+1, resp.StatusCode)
			}
		}
	})

	for _, tc := range []struct {
		path     string
		declared int
		sent     string
		status   int
	}{
		{"/score", 100, `{"model":`, http.StatusBadRequest},
		{"/score", 300 << 10, `{"model":`, http.StatusBadRequest},
		{"/feedback", 100, `{"model":`, http.StatusBadRequest},
		{"/score", 2 * bodyLimit, strings.Repeat(" ", bodyLimit+1), http.StatusRequestEntityTooLarge},
		{"/feedback", 2 * bodyLimit, strings.Repeat(" ", bodyLimit+1), http.StatusRequestEntityTooLarge},
	} {
		t.Run(fmt.Sprintf("stalled %s body of %d bytes", tc.path, tc.declared), func(t *testing.T) {
			t.Parallel()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			start := time.Now()
			head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: replica\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", tc.path, tc.declared)
			if _, err := io.WriteString(conn, head+tc.sent); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(start.Add(requestTimeout + 2*time.Second))
			br := bufio.NewReader(conn)
			state := "no answer"
			resp, err := http.ReadResponse(br, nil)
			if err == nil {
				msg, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != tc.status {
					t.Fatalf("stalled body answered %d %s, want %d", resp.StatusCode, msg, tc.status)
				}
				if tc.status == http.StatusBadRequest &&
					(strings.Contains(string(msg), host) || !strings.Contains(string(msg), bodyDeadlineMessage)) {
					t.Errorf("stalled body answered %s, want the deadline message %q and no address", msg, bodyDeadlineMessage)
				}
				// Its body unread, the connection cannot serve another
				// request, so the replica must close it too.
				state = "an answer"
				_, err = br.ReadByte()
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("stalled body: %s and the connection still open after %v", state, time.Since(start))
			}
		})
	}
}

// TestScoreRequestTimeout pins the slowloris guard: a client that opens
// /score and never finishes the body is cut off around RequestTimeout
// instead of holding a worker forever.
func TestScoreRequestTimeout(t *testing.T) {
	dir := t.TempDir()
	trainFixture(t, dir, "cp-8-tree", labelV1)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{RequestTimeout: 200 * time.Millisecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// The client's body is a pipe that stalls mid-JSON; its write loop
	// will not notice the server hanging up, so the assertion is
	// server-side: the worker must be released around RequestTimeout.
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(srv.URL+"/score", "application/json", pr)
		// The server kills the connection at the deadline; both a
		// transport error and an error status are acceptable.
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				t.Error("stalled request reported 200")
			}
		}
	}()
	pw.Write([]byte(`{"model": "cp-8-tree", "segments": [`)) // never completed
	waitInFlight(t, s, 1)
	waitDrained(t, s, 3*time.Second)
	pw.Close() // unblock the client's body writer
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("client request never returned after the body closed")
	}
}

// TestScoreBodyLimit413 pins the oversized-body conformance fix: a /score
// body past MaxBodyBytes answers 413 Request Entity Too Large — not a
// generic 400 — and the error names the configured limit so a client can
// tell a size problem from a syntax problem.
func TestScoreBodyLimit413(t *testing.T) {
	dir := t.TempDir()
	trainFixture(t, dir, "cp-8-tree", labelV1)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg, Config{MaxBodyBytes: 1024}))
	defer srv.Close()

	// Valid JSON, just too big: padding inside a string value pushes the
	// body past the limit, so only the size check can reject it.
	big := `{"model":"cp-8-tree","segments":[{"surface":"` + strings.Repeat("x", 2048) + `"}]}`
	resp, err := http.Post(srv.URL+"/score", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("error body %q not a JSON error", body)
	}
	if !strings.Contains(er.Error, "1024-byte limit") {
		t.Fatalf("error %q does not name the limit", er.Error)
	}

	// A request under the same limit still scores.
	ok, err := http.Post(srv.URL+"/score", "application/json",
		strings.NewReader(`{"model":"cp-8-tree","segments":[{"aadt":1200}]}`))
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("small request status = %d, want 200", ok.StatusCode)
	}
}

// TestBodyPresizeCapped pins that a declared Content-Length is not
// allocated up front: a 14-byte /score or /feedback body declaring
// 67108000 bytes (under the default 64 MiB limit) is answered 400 after
// allocating a few MiB at most, not the 64 MiB it declared.
func TestBodyPresizeCapped(t *testing.T) {
	dir := t.TempDir()
	trainFixture(t, dir, "cp-8-tree", labelV1)
	srv := newFeedbackServer(t, dir, Config{FeedbackWindow: 16})
	host := strings.TrimPrefix(srv.URL, "http://")

	for _, path := range []string{"/score", "/feedback"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		conn, err := net.Dial("tcp", host)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: 67108000\r\n\r\n{\"model\":\"cp-8", path, host)
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		conn.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "malformed request: unexpected EOF") {
			t.Fatalf("%s: got %d %s, want 400 malformed request: unexpected EOF", path, resp.StatusCode, body)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 4<<20 {
			t.Errorf("%s: a 14-byte body declaring 67108000 bytes allocated %d bytes", path, d)
		}
	}
}

// TestStreamStalledSenderTimeout pins the per-chunk deadline of
// /score/stream: a sender that stops mid-stream is cut off within about
// StreamTimeout, and the response never carries a done trailer.
func TestStreamStalledSenderTimeout(t *testing.T) {
	dir := t.TempDir()
	trainFixture(t, dir, "cp-8-tree", labelV1)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{StreamTimeout: 200 * time.Millisecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// As in TestScoreRequestTimeout the client cannot observe the cutoff
	// itself (its body writer is parked on the pipe), so assert that the
	// server releases the worker within about one chunk interval.
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(srv.URL+"/score/stream?model=cp-8-tree", "application/x-ndjson", pr)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if bytes.Contains(body, []byte(`"done":true`)) {
				t.Errorf("stalled stream reported done: %s", body)
			}
		}
	}()
	pw.Write([]byte("{\"aadt\": 900}\n")) // one row, then silence
	waitInFlight(t, s, 1)
	waitDrained(t, s, 3*time.Second)
	pw.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("client request never returned after the body closed")
	}
}

// TestStreamSlowActiveSenderSurvives is the counterpart of the stalled
// test: a feed trickling rows more slowly than one chunk per StreamTimeout
// must NOT be cut off, because every arriving byte extends the deadline.
func TestStreamSlowActiveSenderSurvives(t *testing.T) {
	dir := t.TempDir()
	trainFixture(t, dir, "cp-8-tree", labelV1)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{StreamTimeout: 600 * time.Millisecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	pr, pw := io.Pipe()
	type result struct {
		body []byte
		err  error
	}
	results := make(chan result, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/score/stream?model=cp-8-tree", "application/x-ndjson", pr)
		if err != nil {
			results <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		results <- result{body: body, err: err}
	}()
	// 12 rows over ~1.2s: far below one 1024-row chunk per deadline, but
	// each write lands bytes well inside it (6x margin against scheduler
	// jitter on loaded CI runners).
	const rows = 12
	for i := 0; i < rows; i++ {
		if _, err := pw.Write([]byte("{\"aadt\": 900}\n")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	pw.Close()
	res := <-results
	if res.err != nil {
		t.Fatalf("slow active stream failed: %v", res.err)
	}
	if !bytes.Contains(res.body, []byte(fmt.Sprintf(`"done":true,"rows":%d`, rows))) {
		t.Fatalf("slow active stream did not complete cleanly: %s", res.body)
	}
}

// TestReloadEndpoint pins the hot-rollout path: POST /reload swaps the
// whole model set atomically, a failed reload keeps the previous set
// serving, and /models reflects the new registry (including schema names).
func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	v1 := trainFixture(t, dir, "cp-8-tree", labelV1)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{ReloadDir: dir})
	srv := httptest.NewServer(s)
	defer srv.Close()

	probe := []map[string]any{{"aadt": 1700.0, "surface": "gravel"}}
	probeRow := []float64{1700, 1, data.Missing}
	scoreOnce := func() float64 {
		raw, _ := json.Marshal(ScoreRequest{Model: "cp-8-tree", Segments: probe})
		resp, err := http.Post(srv.URL+"/score", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr ScoreResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr.Scores[0].Risk
	}
	wantV1 := v1.PredictProb(probeRow)
	if got := scoreOnce(); got != wantV1 {
		t.Fatalf("pre-reload risk %v, want %v", got, wantV1)
	}

	// Roll out v2 of the model plus a new one, then reload.
	v2 := trainFixture(t, dir, "cp-8-tree", labelV2)
	trainFixture(t, dir, "extra", labelV1)
	wantV2 := v2.PredictProb(probeRow)
	if wantV1 == wantV2 {
		t.Fatal("fixture versions must predict differently for the probe")
	}
	resp, err := http.Post(srv.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr ReloadResponse
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d, err %v", resp.StatusCode, err)
	}
	if len(rr.Models) != 2 || rr.Models[0] != "cp-8-tree" || rr.Models[1] != "extra" {
		t.Fatalf("reload models = %v", rr.Models)
	}
	if got := scoreOnce(); got != wantV2 {
		t.Fatalf("post-reload risk %v, want %v", got, wantV2)
	}

	// /models lists the new set with schema names.
	mresp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []ModelInfo `json:"models"`
	}
	err = json.NewDecoder(mresp.Body).Decode(&list)
	mresp.Body.Close()
	if err != nil || len(list.Models) != 2 {
		t.Fatalf("models after reload = %+v (%v)", list.Models, err)
	}
	if len(list.Models[0].Schema) != 3 || list.Models[0].Schema[0] != "aadt" || list.Models[0].Target != "crash_prone" {
		t.Fatalf("model info schema = %+v", list.Models[0])
	}

	// GET is rejected; a wiped directory fails the reload but keeps the
	// current set serving.
	gresp, err := http.Get(srv.URL + "/reload")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload status = %d, want 405", gresp.StatusCode)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	fresp, err := http.Post(srv.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	fbody, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed reload status = %d, want 500 (%s)", fresp.StatusCode, fbody)
	}
	if got := scoreOnce(); got != wantV2 {
		t.Fatalf("after failed reload risk %v, want the surviving v2 %v", got, wantV2)
	}
}

// TestReloadDisabled pins that /reload 404s unless a reload directory is
// configured.
func TestReloadDisabled(t *testing.T) {
	dir := t.TempDir()
	trainFixture(t, dir, "cp-8-tree", labelV1)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /reload status = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsEndpoint drives a little traffic and checks the Prometheus
// exposition carries the per-model and per-endpoint series.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	trainFixture(t, dir, "cp-8-tree", labelV1)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	raw, _ := json.Marshal(ScoreRequest{Model: "cp-8-tree", Segments: []map[string]any{{"aadt": 100.0}, {"aadt": 3000.0}}})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/score", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Post(srv.URL+"/score/stream?model=cp-8-tree", "application/x-ndjson", strings.NewReader("{\"aadt\": 1}\n{\"aadt\": 2}\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// One scoring failure, attributed to the model.
	bad, _ := json.Marshal(ScoreRequest{Model: "cp-8-tree", Segments: []map[string]any{{"aatd": 1.0}}})
	resp, err = http.Post(srv.URL+"/score", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	body, _ := io.ReadAll(mresp.Body)
	out := string(body)
	for _, want := range []string{
		`crashprone_requests_total{endpoint="score",code="200"} 3`,
		`crashprone_requests_total{endpoint="score",code="400"} 1`,
		`crashprone_requests_total{endpoint="stream",code="200"} 1`,
		`crashprone_model_requests_total{model="cp-8-tree",endpoint="score"} 4`,
		`crashprone_model_requests_total{model="cp-8-tree",endpoint="stream"} 1`,
		`crashprone_model_rows_scored_total{model="cp-8-tree"} 8`,
		`crashprone_model_errors_total{model="cp-8-tree",endpoint="score"} 1`,
		`crashprone_in_flight_requests 0`,
		`crashprone_request_duration_seconds_count{endpoint="score"} 4`,
		"# TYPE crashprone_request_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestGracefulDrain pins shutdown behavior: cancelling the run context
// stops new connections but an in-flight stream drains to its trailer.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	trainFixture(t, dir, "cp-8-tree", labelV1)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- RunListener(ctx, ln, s, 10*time.Second) }()

	// Open a stream and keep it in flight across the shutdown.
	pr, pw := io.Pipe()
	type streamResult struct {
		body []byte
		err  error
	}
	results := make(chan streamResult, 1)
	go func() {
		resp, err := http.Post(url+"/score/stream?model=cp-8-tree", "application/x-ndjson", pr)
		if err != nil {
			results <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		results <- streamResult{body: body, err: err}
	}()
	if _, err := pw.Write([]byte("{\"aadt\": 900}\n")); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, s, 1)
	cancel()

	// The listener refuses new work almost immediately...
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := http.Get(url + "/healthz")
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server still accepting connections after shutdown")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// ...while the in-flight stream finishes its remaining rows cleanly.
	if _, err := pw.Write([]byte("{\"aadt\": 2600}\n")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	res := <-results
	if res.err != nil {
		t.Fatalf("draining stream failed: %v", res.err)
	}
	if !bytes.Contains(res.body, []byte(`"done":true,"rows":2`)) {
		t.Fatalf("draining stream truncated: %s", res.body)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("RunListener returned %v after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunListener did not return after drain")
	}
}

// TestHealthzReadiness pins the readiness contract a routing tier relies
// on: an empty registry answers 503 not-ready (so no traffic is routed to
// a replica that can only 404), ?live=1 stays 200 regardless (the process
// is alive even if useless), and loading a model flips readiness to 200.
func TestHealthzReadiness(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("empty registry /healthz = %d, want 503", code)
	}
	if ready, _ := body["ready"].(bool); ready {
		t.Fatalf("empty registry reports ready: %v", body)
	}
	if code, body = get("/healthz?live=1"); code != http.StatusOK {
		t.Fatalf("liveness with empty registry = %d (%v), want 200", code, body)
	}

	dir := t.TempDir()
	trainFixture(t, dir, "cp-8-tree", labelV1)
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("loaded registry /healthz = %d, want 200", code)
	}
	if ready, _ := body["ready"].(bool); !ready {
		t.Fatalf("loaded registry not ready: %v", body)
	}
	if n, _ := body["models"].(float64); n != 1 {
		t.Fatalf("models = %v, want 1", body["models"])
	}
}

// TestStagedReload exercises the two-phase rollout endpoints the fleet
// controller drives: prepare stages without serving, commit swaps, a
// commit without a prepare 409s, abort discards the staged set, and a
// failed prepare clears any previously staged set so a later commit
// cannot resurrect it.
func TestStagedReload(t *testing.T) {
	dir := t.TempDir()
	v1 := trainFixture(t, dir, "cp-8-tree", labelV1)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{ReloadDir: dir})
	srv := httptest.NewServer(s)
	defer srv.Close()

	probe := []map[string]any{{"aadt": 1700.0, "surface": "gravel"}}
	probeRow := []float64{1700, 1, data.Missing}
	scoreOnce := func() float64 {
		t.Helper()
		raw, _ := json.Marshal(ScoreRequest{Model: "cp-8-tree", Segments: probe})
		resp, err := http.Post(srv.URL+"/score", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr ScoreResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr.Scores[0].Risk
	}
	post := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	wantV1 := v1.PredictProb(probeRow)
	wantV2 := trainFixture(t, dir, "cp-8-tree", labelV2).PredictProb(probeRow)
	if wantV1 == wantV2 {
		t.Fatal("fixture versions must predict differently for the probe")
	}

	// Commit with nothing staged is a protocol error.
	if code, body := post("/reload/commit"); code != http.StatusConflict {
		t.Fatalf("bare commit = %d (%s), want 409", code, body)
	}

	// Prepare stages v2 but v1 keeps serving until commit.
	if code, body := post("/reload/prepare"); code != http.StatusOK {
		t.Fatalf("prepare = %d (%s)", code, body)
	}
	if got := scoreOnce(); got != wantV1 {
		t.Fatalf("risk after prepare = %v, want still-serving v1 %v", got, wantV1)
	}
	if code, body := post("/reload/commit"); code != http.StatusOK {
		t.Fatalf("commit = %d (%s)", code, body)
	}
	if got := scoreOnce(); got != wantV2 {
		t.Fatalf("risk after commit = %v, want v2 %v", got, wantV2)
	}

	// Abort discards a staged set: the following commit has nothing.
	if code, body := post("/reload/prepare"); code != http.StatusOK {
		t.Fatalf("second prepare = %d (%s)", code, body)
	}
	if code, body := post("/reload/abort"); code != http.StatusOK {
		t.Fatalf("abort = %d (%s)", code, body)
	}
	if code, _ := post("/reload/commit"); code != http.StatusConflict {
		t.Fatalf("commit after abort = %d, want 409", code)
	}

	// A failed prepare (emptied directory) clears any earlier staged set.
	if code, body := post("/reload/prepare"); code != http.StatusOK {
		t.Fatalf("third prepare = %d (%s)", code, body)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if code, _ := post("/reload/prepare"); code != http.StatusInternalServerError {
		t.Fatalf("prepare on empty dir = %d, want 500", code)
	}
	if code, _ := post("/reload/commit"); code != http.StatusConflict {
		t.Fatalf("commit after failed prepare = %d, want 409 (stale staged set must not survive)", code)
	}
	if got := scoreOnce(); got != wantV2 {
		t.Fatalf("risk after failed prepare = %v, want surviving v2 %v", got, wantV2)
	}
}
