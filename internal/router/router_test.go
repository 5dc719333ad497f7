package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"roadcrash/internal/artifact"
	"roadcrash/internal/data"
	"roadcrash/internal/mining/tree"
	"roadcrash/internal/rng"
	"roadcrash/internal/serve"
)

// trainModel trains a decision tree over the fixture schema with a
// caller-chosen labeling rule, persists it under name into dir and
// returns the in-process tree (mirrors the serve package's fixture, so
// router tests can assert routed scores bit-identical to direct ones).
func trainModel(t testing.TB, dir, name string, label func(aadt, surface float64) bool) *tree.Tree {
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

// startReplica boots a real serve replica over the artifacts in dir.
func startReplica(t testing.TB, dir string, cfg serve.Config) *httptest.Server {
	t.Helper()
	reg := serve.NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.New(reg, cfg))
	t.Cleanup(srv.Close)
	return srv
}

// fakeReplica is a scriptable replica: probe endpoints always healthy,
// scoring endpoints handled by the given function.
func fakeReplica(t *testing.T, score http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"ok","ready":true,"models":1}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "crashprone_in_flight_requests 0\n")
	})
	mux.HandleFunc("/", score)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// newTestRouter builds, starts and serves a router, with fast test
// defaults for any unset retry knobs.
func newTestRouter(t testing.TB, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	return serveTestRouter(t, httptest.NewUnstartedServer(nil), cfg)
}

// serveTestRouter is newTestRouter on an unstarted server, whose
// listener is already bound when the router is built.
func serveTestRouter(t testing.TB, srv *httptest.Server, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.RetryBaseDelay == 0 {
		cfg.RetryBaseDelay = time.Millisecond
	}
	if cfg.RetryMaxDelay == 0 {
		cfg.RetryMaxDelay = 10 * time.Millisecond
	}
	rt, err := New(cfg)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	srv.Config.Handler = rt
	srv.Start()
	t.Cleanup(srv.Close)
	return rt, srv
}

// scoreVia POSTs one probe segment through url and returns the status
// plus the decoded risk (NaN-ish -1 when the body is not a score).
func scoreVia(t *testing.T, url string) (int, float64) {
	t.Helper()
	body := `{"model":"cp-8-tree","segments":[{"aadt":1700,"surface":"gravel"}]}`
	resp, err := http.Post(url+"/score", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /score: %v", err)
	}
	defer resp.Body.Close()
	var sr struct {
		Scores []struct {
			Risk float64 `json:"risk"`
		} `json:"scores"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || len(sr.Scores) == 0 {
		return resp.StatusCode, -1
	}
	return resp.StatusCode, sr.Scores[0].Risk
}

// streamVia streams rows NDJSON rows through url and returns the final
// trailer plus the forwarded score-line count.
func streamVia(t *testing.T, url string, rows int) (serve.StreamTrailer, int) {
	t.Helper()
	var body bytes.Buffer
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&body, `{"aadt": %d, "surface": "gravel"}`+"\n", 1000+i)
	}
	resp, err := http.Post(url+"/score/stream?model=cp-8-tree", "application/x-ndjson", &body)
	if err != nil {
		t.Fatalf("POST /score/stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	var trailer serve.StreamTrailer
	seen := 0
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var line struct {
			Done *bool `json:"done"`
			serve.StreamTrailer
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("bad stream line after %d rows: %v", seen, err)
		}
		if line.Done != nil {
			trailer = line.StreamTrailer
			trailer.Done = *line.Done
			break
		}
		seen++
	}
	return trailer, seen
}

const probeRisk = 1700 // probe row: aadt 1700, surface gravel (level 1)

func probePrediction(dt *tree.Tree) float64 {
	return dt.PredictProb([]float64{probeRisk, 1, data.Missing})
}

// TestRouterProxiesBatchAndStream pins transparency: a batch or stream
// scored through the router returns bit-identical results to hitting a
// replica directly, and the router's probe surface reports the fleet.
func TestRouterProxiesBatchAndStream(t *testing.T) {
	dir := t.TempDir()
	dt := trainModel(t, dir, "cp-8-tree", labelV1)
	repA := startReplica(t, dir, serve.Config{})
	repB := startReplica(t, dir, serve.Config{})
	rt, srv := newTestRouter(t, Config{Replicas: []string{repA.URL, repB.URL}})

	want := probePrediction(dt)
	for i := 0; i < 4; i++ {
		code, risk := scoreVia(t, srv.URL)
		if code != http.StatusOK || risk != want {
			t.Fatalf("routed score %d: status %d risk %v, want 200 %v", i, code, risk, want)
		}
	}
	trailer, rows := streamVia(t, srv.URL, 300)
	if !trailer.Done || trailer.Rows != 300 || rows != 300 {
		t.Fatalf("routed stream trailer %+v with %d rows, want done 300", trailer, rows)
	}

	// /models proxies a replica's listing.
	resp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []struct {
			Name string `json:"name"`
		} `json:"models"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Models) != 1 || list.Models[0].Name != "cp-8-tree" {
		t.Fatalf("routed /models = %+v (%v)", list, err)
	}

	// The router's own health reports both replicas ready.
	health := rt.Health()
	if len(health) != 2 || !health[0].Ready || !health[1].Ready {
		t.Fatalf("health = %+v, want both ready", health)
	}
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("router /healthz = %d, want 200", hr.StatusCode)
	}

	// Both replicas carried traffic: least-inflight with deterministic
	// tie-break still alternates once in-flight counts differ, but at
	// minimum every request succeeded; check the metrics exposition has
	// the request series.
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !bytes.Contains(raw, []byte(`crashprone_router_requests_total{endpoint="/score",code="200"} 4`)) {
		t.Fatalf("metrics missing request series:\n%s", raw)
	}
}

// TestRouterRetries429 pins the capacity-rejection path: a replica
// answering 429 (with a zero Retry-After) is retried on, and the request
// lands on the sibling with capacity — the client never sees the 429.
func TestRouterRetries429(t *testing.T) {
	dir := t.TempDir()
	dt := trainModel(t, dir, "cp-8-tree", labelV1)
	busy := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"scoring capacity exhausted"}`)
	})
	real := startReplica(t, dir, serve.Config{})
	rt, srv := newTestRouter(t, Config{Replicas: []string{busy.URL, real.URL}})

	want := probePrediction(dt)
	sawRetry := false
	for i := 0; i < 6; i++ {
		code, risk := scoreVia(t, srv.URL)
		if code != http.StatusOK || risk != want {
			t.Fatalf("request %d through busy fleet: status %d risk %v, want 200 %v", i, code, risk, want)
		}
	}
	if rt.retries.With("/score").Value() > 0 {
		sawRetry = true
	}
	if !sawRetry {
		t.Fatal("no retry recorded despite a permanently busy replica")
	}
	// 429s are capacity, not failure: the busy replica's breaker stays
	// closed so it is re-tried once load drops.
	for _, h := range rt.Health() {
		if h.Breaker != "closed" {
			t.Fatalf("breaker after 429s = %+v, want closed", h)
		}
	}
}

// TestRouterReplicaDownAtStartup pins cold-start resilience: a fleet
// whose first replica is a dead address still serves every request, and
// the health poll marks the dead replica not-ready.
func TestRouterReplicaDownAtStartup(t *testing.T) {
	dir := t.TempDir()
	dt := trainModel(t, dir, "cp-8-tree", labelV1)
	// The dead replica's port is freed only once every other listener of
	// the test is bound, so the kernel cannot hand it to the live replica
	// or to the router.
	dead := httptest.NewServer(http.NotFoundHandler())
	real := startReplica(t, dir, serve.Config{})
	front := httptest.NewUnstartedServer(nil)
	dead.Close() // address now refuses connections
	rt, srv := serveTestRouter(t, front, Config{Replicas: []string{dead.URL, real.URL}})

	want := probePrediction(dt)
	for i := 0; i < 4; i++ {
		code, risk := scoreVia(t, srv.URL)
		if code != http.StatusOK || risk != want {
			t.Fatalf("request %d with dead replica: status %d risk %v, want 200 %v", i, code, risk, want)
		}
	}
	health := rt.Health()
	if health[0].Ready {
		t.Fatalf("dead replica reported ready: %+v", health[0])
	}
	if !health[1].Ready {
		t.Fatalf("live replica reported not ready: %+v", health[1])
	}
}

// TestRouterBreakerTripsAndRecovers drives a single failing replica to
// an open breaker, verifies requests fail fast while ejected, then heals
// the replica and watches the half-open probe reclose the circuit.
func TestRouterBreakerTripsAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	rep := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, `{"error":"boom"}`)
			return
		}
		io.WriteString(w, `{"model":"cp-8-tree","scores":[{"risk":0.25,"crash_prone":false}]}`)
	})
	rt, srv := newTestRouter(t, Config{
		Replicas:        []string{rep.URL},
		MaxAttempts:     2,
		BreakerFailures: 2,
		BreakerCooldown: 150 * time.Millisecond,
	})

	// Two failed attempts trip the breaker and the request surfaces 502.
	code, _ := scoreVia(t, srv.URL)
	if code != http.StatusBadGateway {
		t.Fatalf("failing fleet status = %d, want 502", code)
	}
	if got := rt.Health()[0].Breaker; got != "open" {
		t.Fatalf("breaker after failures = %q, want open", got)
	}

	// While open: fail fast with 503 + Retry-After, no replica contact.
	start := time.Now()
	resp, err := http.Post(srv.URL+"/score", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ejected fleet status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("ejected 503 must carry Retry-After")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("ejected request took %v, want a fast refusal", elapsed)
	}

	// Heal the replica; after the cooldown the probe recloses the breaker.
	failing.Store(false)
	time.Sleep(160 * time.Millisecond)
	code, risk := scoreVia(t, srv.URL)
	if code != http.StatusOK || risk != 0.25 {
		t.Fatalf("healed fleet: status %d risk %v, want 200 0.25", code, risk)
	}
	if got := rt.Health()[0].Breaker; got != "closed" {
		t.Fatalf("breaker after successful probe = %q, want closed", got)
	}
}

// TestRouterMidStreamDeath pins the trailer contract under replica
// death: a replica killed mid-stream yields a forwarded prefix plus a
// router-authored {"done":false} trailer naming the replica, and the
// death counts against the replica's breaker.
func TestRouterMidStreamDeath(t *testing.T) {
	rep := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		for i := 0; i < 5; i++ {
			fmt.Fprintf(w, `{"risk":0.5,"crash_prone":false}`+"\n")
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		conn, _, err := http.NewResponseController(w).Hijack()
		if err == nil {
			conn.Close() // die without a trailer
		}
	})
	rt, srv := newTestRouter(t, Config{
		Replicas:        []string{rep.URL},
		MaxAttempts:     1,
		BreakerFailures: 1,
		BreakerCooldown: time.Minute,
	})

	body := strings.Repeat(`{"aadt": 2000, "surface": "seal"}`+"\n", 50)
	resp, err := http.Post(srv.URL+"/score/stream?model=cp-8-tree", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	last := lines[len(lines)-1]
	var trailer serve.StreamTrailer
	if err := json.Unmarshal(last, &trailer); err != nil {
		t.Fatalf("last line is not a trailer: %q (%v)", last, err)
	}
	if trailer.Done {
		t.Fatalf("trailer after mid-stream death claims done: %q", last)
	}
	if trailer.Rows != 5 || len(lines) != 6 {
		t.Fatalf("trailer rows = %d with %d lines, want 5 forwarded rows + trailer", trailer.Rows, len(lines))
	}
	if !strings.Contains(trailer.Error, "died mid-stream") || !strings.Contains(trailer.Error, rep.URL) {
		t.Fatalf("trailer error %q must name the dead replica", trailer.Error)
	}
	if got := rt.Health()[0].Breaker; got != "open" {
		t.Fatalf("breaker after mid-stream death = %q, want open", got)
	}
}

// TestRouterStreamFullDuplex pins that a routed stream keeps reading the
// client's body after score lines start flowing back. The replica answers
// each row as it arrives, and the client, like a live feed, sends its
// second half only once the first answers have reached it. Every row must
// still reach the replica: without full-duplex mode the router's server
// drains the unread body at its first write instead, which stalls here
// and, with the whole body sent, cuts the stream off mid-feed.
func TestRouterStreamFullDuplex(t *testing.T) {
	rep := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		http.NewResponseController(w).EnableFullDuplex()
		w.Header().Set("Content-Type", "application/x-ndjson")
		rows := 0
		for sc := bufio.NewScanner(r.Body); sc.Scan(); rows++ {
			io.WriteString(w, `{"risk":0.5,"crash_prone":true}`+"\n")
			w.(http.Flusher).Flush()
		}
		fmt.Fprintf(w, `{"done":true,"rows":%d}`+"\n", rows)
	})
	_, srv := newTestRouter(t, Config{Replicas: []string{rep.URL}, MaxAttempts: 1})

	// 64 rows fill the router's flush batch, so the answer's header
	// reaches the client while the rest of the body is unsent.
	half := strings.Repeat(`{"aadt": 2000, "surface": "seal"}`+"\n", 64)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	context.AfterFunc(ctx, func() { pw.CloseWithError(ctx.Err()) })
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/score/stream?model=cp-8-tree", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(2 * len(half))
	go io.WriteString(pw, half)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("no answer while the body is half sent: %v", err)
	}
	defer resp.Body.Close()
	go func() {
		io.WriteString(pw, half)
		pw.Close()
	}()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if last := string(lines[len(lines)-1]); last != `{"done":true,"rows":128}` || len(lines) != 129 {
		t.Fatalf("%d lines ending in %s, want 128 score lines and a trailer of 128 rows", len(lines), last)
	}
}

// TestRouterAllReplicasEjected pins the nothing-routable behavior: with
// every replica down the router answers immediately with 503 and a
// Retry-After hint — it must not hang clients on a doomed fleet.
func TestRouterAllReplicasEjected(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(http.NotFoundHandler())
		urls = append(urls, srv.URL)
		srv.Close()
	}
	_, srv := newTestRouter(t, Config{Replicas: urls, BreakerCooldown: 2 * time.Second})

	for _, path := range []string{"/score", "/score/stream?model=x"} {
		start := time.Now()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s with dead fleet = %d, want 503", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "2" {
			t.Fatalf("%s Retry-After = %q, want breaker cooldown 2", path, ra)
		}
		if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
			t.Fatalf("%s took %v, want a fast 503", path, elapsed)
		}
	}

	// The router's own healthz mirrors the hopeless state…
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router /healthz = %d, want 503", resp.StatusCode)
	}
	// …while liveness stays green: the router process itself is fine.
	live, err := http.Get(srv.URL + "/healthz?live=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, live.Body)
	live.Body.Close()
	if live.StatusCode != http.StatusOK {
		t.Fatalf("router liveness = %d, want 200", live.StatusCode)
	}
}

// TestRouterHedgeRescue pins tail rescue: with hedging enabled, a batch
// request stuck on a slow replica is raced on the sibling and completes
// at the fast replica's latency, not the slow one's.
func TestRouterHedgeRescue(t *testing.T) {
	slow := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
		io.WriteString(w, `{"model":"cp-8-tree","scores":[{"risk":0.9,"crash_prone":true}]}`)
	})
	fast := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"model":"cp-8-tree","scores":[{"risk":0.1,"crash_prone":false}]}`)
	})
	// Slow is configured first: idle tie-break routes the primary there.
	rt, srv := newTestRouter(t, Config{
		Replicas:   []string{slow.URL, fast.URL},
		HedgeAfter: 30 * time.Millisecond,
	})

	start := time.Now()
	code, risk := scoreVia(t, srv.URL)
	elapsed := time.Since(start)
	if code != http.StatusOK || risk != 0.1 {
		t.Fatalf("hedged request: status %d risk %v, want the fast replica's 200 0.1", code, risk)
	}
	if elapsed > time.Second {
		t.Fatalf("hedged request took %v, want well under the slow replica's 2s", elapsed)
	}
	if rt.hedges.With("launched").Value() == 0 || rt.hedges.With("won").Value() == 0 {
		t.Fatalf("hedge metrics: launched=%d won=%d, want both > 0",
			rt.hedges.With("launched").Value(), rt.hedges.With("won").Value())
	}
}

// TestRouterFleetReload pins fleet-atomic rollout: a healthy fleet rolls
// to the new model set everywhere; a fleet where one replica cannot
// prepare keeps the old set everywhere.
func TestRouterFleetReload(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	v1 := trainModel(t, dirA, "cp-8-tree", labelV1)
	trainModel(t, dirB, "cp-8-tree", labelV1)
	repA := startReplica(t, dirA, serve.Config{ReloadDir: dirA})
	repB := startReplica(t, dirB, serve.Config{ReloadDir: dirB})
	_, srv := newTestRouter(t, Config{Replicas: []string{repA.URL, repB.URL}})

	wantV1 := probePrediction(v1)
	v2 := trainModel(t, dirA, "cp-8-tree", labelV2)
	trainModel(t, dirB, "cp-8-tree", labelV2)
	wantV2 := probePrediction(v2)
	if wantV1 == wantV2 {
		t.Fatal("fixture versions must predict differently for the probe")
	}

	// Healthy fleet: reload lands everywhere.
	resp, err := http.Post(srv.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr FleetReloadResponse
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet reload: status %d err %v", resp.StatusCode, err)
	}
	if rr.Replicas != 2 || len(rr.Models) != 1 || rr.Models[0] != "cp-8-tree" {
		t.Fatalf("fleet reload response = %+v", rr)
	}
	for _, rep := range []*httptest.Server{repA, repB} {
		if _, risk := scoreVia(t, rep.URL); risk != wantV2 {
			t.Fatalf("replica %s risk = %v after fleet reload, want v2 %v", rep.URL, risk, wantV2)
		}
	}

	// Break replica B's artifact dir: the next fleet reload must fail and
	// leave v2 serving on BOTH replicas, even though A could have staged.
	trainModel(t, dirA, "cp-8-tree", labelV1)
	if err := writeCorruptArtifact(filepath.Join(dirB, "cp-8-tree.json")); err != nil {
		t.Fatal(err)
	}
	fresp, err := http.Post(srv.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	fbody, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusBadGateway {
		t.Fatalf("fleet reload with corrupt replica = %d (%s), want 502", fresp.StatusCode, fbody)
	}
	if !bytes.Contains(fbody, []byte("previous model set still serving")) {
		t.Fatalf("failure body %s must state the old set survives", fbody)
	}
	for _, rep := range []*httptest.Server{repA, repB} {
		if _, risk := scoreVia(t, rep.URL); risk != wantV2 {
			t.Fatalf("replica %s risk = %v after failed fleet reload, want surviving v2 %v", rep.URL, risk, wantV2)
		}
	}
}

// writeCorruptArtifact overwrites path with undecodable JSON.
func writeCorruptArtifact(path string) error {
	return os.WriteFile(path, []byte(`{"name":"cp-8-tree","kind":"nonsense"}`), 0o644)
}

// TestParseRetryAfter covers both RFC 9110 Retry-After forms. The router
// only sees delta-seconds from the serve tier directly, but proxies in
// front of a replica may rewrite the header to an HTTP-date; both must
// yield a usable delay, and garbage or past dates must fall back to zero
// (meaning "no hint, use exponential backoff").
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2011, time.March, 22, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{" 7 ", 7 * time.Second},
		{"0", 0},
		{"-5", 0},
		{"2.5", 0},  // RFC allows integers only
		{"soon", 0}, // garbage
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Format(http.TimeFormat), 0},
		{now.Add(-time.Hour).Format(http.TimeFormat), 0}, // past date: no hint
		// The two legacy date formats http.ParseTime accepts.
		{now.Add(30 * time.Second).Format(time.RFC850), 30 * time.Second},
		{now.Add(30 * time.Second).Format(time.ANSIC), 30 * time.Second},
	}
	for _, c := range cases {
		if got := parseRetryAfterAt(c.header, now); got != c.want {
			t.Errorf("parseRetryAfterAt(%q) = %v, want %v", c.header, got, c.want)
		}
	}
	// The production entry point uses the real clock: a far-future date
	// must come back close to its distance from now.
	far := time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(far); got < 58*time.Minute || got > time.Hour {
		t.Errorf("parseRetryAfter(%q) = %v, want about an hour", far, got)
	}
}

// TestBackoffDelayDeterministic pins the retry backoff schedule: the
// jitter comes from a per-router RNG seeded by Config.JitterSeed, so two
// routers with the same seed must produce identical delay sequences
// (the old code drew from the global math/rand source, making this
// impossible to test and contending on one lock across routers), every
// delay must stay within [base, 1.5·base], and both the exponential
// growth and a Retry-After hint must respect RetryMaxDelay.
func TestBackoffDelayDeterministic(t *testing.T) {
	mk := func(seed int64) *Router {
		rt, err := New(Config{
			Replicas:       []string{"http://127.0.0.1:1"},
			RetryBaseDelay: 10 * time.Millisecond,
			RetryMaxDelay:  80 * time.Millisecond,
			JitterSeed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a, b := mk(42), mk(42)
	other := mk(7)
	var seqA, seqB, seqOther []time.Duration
	for retry := 0; retry < 8; retry++ {
		seqA = append(seqA, a.backoffDelay(retry, 0))
		seqB = append(seqB, b.backoffDelay(retry, 0))
		seqOther = append(seqOther, other.backoffDelay(retry, 0))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("same-seed routers diverge at retry %d: %v vs %v", i, seqA[i], seqB[i])
		}
	}
	same := true
	for i := range seqA {
		if seqA[i] != seqOther[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 8-delay sequence")
	}
	// Bounds: delay n sits in [min(base<<n, max), 1.5·min(base<<n, max)].
	for retry, got := range seqA {
		base := 10 * time.Millisecond << retry
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
		if got < base || got > base+base/2 {
			t.Errorf("retry %d delay %v outside [%v, %v]", retry, got, base, base+base/2)
		}
	}
	// A Retry-After hint overrides the exponential base but not the cap.
	if got := a.backoffDelay(0, 40*time.Millisecond); got < 40*time.Millisecond || got > 60*time.Millisecond {
		t.Errorf("hinted delay %v outside [40ms, 60ms]", got)
	}
	if got := a.backoffDelay(0, time.Minute); got < 80*time.Millisecond || got > 120*time.Millisecond {
		t.Errorf("capped hinted delay %v outside [80ms, 120ms]", got)
	}
}
