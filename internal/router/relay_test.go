package router

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/geo"
	"roadcrash/internal/roadnet"
	"roadcrash/internal/serve"
)

// scoreBody renders a /score request of n segments for cp-8-tree.
func scoreBody(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"model":"cp-8-tree","segments":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		surface := "seal"
		if i%2 == 1 {
			surface = "gravel"
		}
		fmt.Fprintf(&b, `{"aadt":%d,"surface":%q}`, 500+137*i%4000, surface)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// writeHotspotModel fits a KDE surface on a small scenario stream and
// persists it into dir as grid-kde.
func writeHotspotModel(t testing.TB, dir string) {
	t.Helper()
	opt := roadnet.DefaultScenarioOptions(2000)
	opt.Seed = 42
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
	a, err := artifact.New("grid-kde", artifact.KindHotspot, m, geo.Schema(), 0, 42, "cell_label", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.WriteFile(filepath.Join(dir, "grid-kde.json"), a); err != nil {
		t.Fatal(err)
	}
}

// rawRequest is one HTTP/1.1 request written byte for byte, so a test can
// send a body shorter than the Content-Length it declares.
type rawRequest struct {
	method, target string
	body           []byte
	// declared, when non-zero, is sent as the Content-Length in place of
	// the body's length, and the write side is closed after the body.
	declared int
}

// exchange sends rq to the server at url over a fresh connection and
// returns its answer with the body read.
func exchange(t *testing.T, url string, rq rawRequest) (*http.Response, []byte) {
	t.Helper()
	host := strings.TrimPrefix(url, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	n := len(rq.body)
	if rq.declared != 0 {
		n = rq.declared
	}
	head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		rq.method, rq.target, host, n)
	if _, err := conn.Write(append([]byte(head), rq.body...)); err != nil {
		t.Fatal(err)
	}
	if rq.declared != 0 {
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestRouterTransparent pins that the router relays answers unchanged:
// every request gets the same status, Content-Type, Content-Length (or
// its absence) and body bytes sent straight to a replica as through the
// router. Body errors the router answers itself (over the limit, shorter
// than declared) read as the replica's own.
func TestRouterTransparent(t *testing.T) {
	dir := t.TempDir()
	trainModel(t, dir, "cp-8-tree", labelV1)
	writeHotspotModel(t, dir)
	const limit = 32 << 10
	rep := startReplica(t, dir, serve.Config{MaxBodyBytes: limit})
	rt, front := newTestRouter(t, Config{Replicas: []string{rep.URL}, MaxBodyBytes: limit})

	oversized := []byte(`{"model":"cp-8-tree","segments":[{"surface":"` + strings.Repeat("x", limit) + `"}]}`)
	for _, tc := range []struct {
		name   string
		rq     rawRequest
		status int
	}{
		{"score 1 row", rawRequest{method: "POST", target: "/score", body: scoreBody(1)}, http.StatusOK},
		{"score 16 rows", rawRequest{method: "POST", target: "/score", body: scoreBody(16)}, http.StatusOK},
		{"score 300 rows", rawRequest{method: "POST", target: "/score", body: scoreBody(300)}, http.StatusOK},
		{"malformed body", rawRequest{method: "POST", target: "/score", body: []byte(`{"model":`)}, http.StatusBadRequest},
		{"unknown model", rawRequest{method: "POST", target: "/score", body: []byte(`{"model":"nope","segments":[{"aadt":1}]}`)}, http.StatusNotFound},
		{"body over the limit", rawRequest{method: "POST", target: "/score", body: oversized}, http.StatusRequestEntityTooLarge},
		{"body shorter than declared", rawRequest{method: "POST", target: "/score", body: scoreBody(1)[:14], declared: 100}, http.StatusBadRequest},
		{"models", rawRequest{method: "GET", target: "/models"}, http.StatusOK},
		{"hotspots", rawRequest{method: "GET", target: "/hotspots?model=grid-kde&k=5"}, http.StatusOK},
		{"hotspots by POST", rawRequest{method: "POST", target: "/hotspots"}, http.StatusMethodNotAllowed},
	} {
		direct, directBody := exchange(t, rep.URL, tc.rq)
		routed, routedBody := exchange(t, front.URL, tc.rq)
		if direct.StatusCode != tc.status || routed.StatusCode != tc.status {
			t.Errorf("%s: status direct %d, routed %d, want %d (%s | %s)",
				tc.name, direct.StatusCode, routed.StatusCode, tc.status, directBody, routedBody)
			continue
		}
		for _, h := range []string{"Content-Type", "Content-Length"} {
			if d, r := direct.Header.Values(h), routed.Header.Values(h); fmt.Sprint(d) != fmt.Sprint(r) {
				t.Errorf("%s: %s direct %q, routed %q", tc.name, h, d, r)
			}
		}
		if !bytes.Equal(directBody, routedBody) {
			t.Errorf("%s: body direct %q, routed %q", tc.name, directBody, routedBody)
		}
	}

	// The malformed body is the replica's 400, relayed; the short body and
	// the oversized one are the router's own answers. All are counted.
	for code, want := range map[string]uint64{"400": 2, "404": 1, "413": 1} {
		if got := rt.requests.With("/score", code).Value(); got != want {
			t.Errorf("crashprone_router_requests_total{/score,%s} = %d, want %d", code, got, want)
		}
	}
}

// countingConn counts the calls that send bytes on a connection: Write,
// and ReadFrom, which it keeps so that net/http can still take its
// io.ReaderFrom branch when a handler's copy offers it.
type countingConn struct {
	*net.TCPConn
	sends *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.sends.Add(1)
	return c.TCPConn.Write(p)
}

func (c countingConn) ReadFrom(r io.Reader) (int64, error) {
	c.sends.Add(1)
	return c.TCPConn.ReadFrom(r)
}

// countingListener hands out countingConns sharing one counter.
type countingListener struct {
	net.Listener
	sends *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c.(*net.TCPConn), l.sends}, nil
}

// TestRouterAnswerOneWrite pins the relay: a routed 16-row answer, longer
// than net/http's 512-byte sniff prefix, reaches the client in one send
// call on the router's connection, not as headers plus a prefix followed
// by a ReadFrom of the rest.
func TestRouterAnswerOneWrite(t *testing.T) {
	dir := t.TempDir()
	trainModel(t, dir, "cp-8-tree", labelV1)
	rep := startReplica(t, dir, serve.Config{})
	rt, err := New(Config{Replicas: []string{rep.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	var sends atomic.Int64
	front := httptest.NewUnstartedServer(rt)
	front.Listener = countingListener{front.Listener, &sends}
	front.Start()
	t.Cleanup(front.Close)

	client := front.Client()
	for i := 0; i < 3; i++ {
		before := sends.Load()
		resp, err := client.Post(front.URL+"/score", "application/json", bytes.NewReader(scoreBody(16)))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, body)
		}
		if len(body) <= 512 {
			t.Fatalf("a %d-byte answer does not pass the 512-byte sniff prefix", len(body))
		}
		if got := sends.Load() - before; got != 1 {
			t.Errorf("request %d: answer sent in %d calls, want 1", i, got)
		}
	}
}

// TestRouterBodyPresizeCapped pins that the router, reading bodies with
// the replica's reader, does not allocate a declared Content-Length up
// front: a 14-byte body declaring 67108000 bytes (under the default
// 64 MiB limit) is answered 400 after allocating a few MiB at most.
func TestRouterBodyPresizeCapped(t *testing.T) {
	dir := t.TempDir()
	trainModel(t, dir, "cp-8-tree", labelV1)
	rep := startReplica(t, dir, serve.Config{})
	_, front := newTestRouter(t, Config{Replicas: []string{rep.URL}})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, body := exchange(t, front.URL, rawRequest{method: "POST", target: "/score", body: scoreBody(1)[:14], declared: 67108000})
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "malformed request: unexpected EOF") {
		t.Fatalf("got %d %s, want 400 malformed request: unexpected EOF", resp.StatusCode, body)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 4<<20 {
		t.Fatalf("a 14-byte body declaring 67108000 bytes allocated %d bytes", d)
	}
}

// BenchmarkRouterScore measures one routed 16-row /score call in process:
// the client, the router and two replicas over loopback. B/op carries
// the router hop's per-request allocation.
func BenchmarkRouterScore(b *testing.B) {
	dir := b.TempDir()
	trainModel(b, dir, "cp-8-tree", labelV1)
	r1, r2 := startReplica(b, dir, serve.Config{}), startReplica(b, dir, serve.Config{})
	_, front := newTestRouter(b, Config{Replicas: []string{r1.URL, r2.URL}})
	client := front.Client()
	body := scoreBody(16)
	b.ReportAllocs()
	for b.Loop() {
		resp, err := client.Post(front.URL+"/score", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, err %v", resp.StatusCode, err)
		}
	}
}
