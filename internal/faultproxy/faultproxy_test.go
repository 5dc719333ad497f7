package faultproxy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// backend is a well-behaved upstream: echoes a fixed body, or streams
// numbered NDJSON lines with a done trailer on /stream.
func backend(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Upstream", "yes")
		fmt.Fprintf(w, `{"echo":%q}`, string(body))
	})
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := 0; i < 100; i++ {
			fmt.Fprintf(w, `{"row":%d}`+"\n", i)
		}
		io.WriteString(w, `{"done":true,"rows":100}`+"\n")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func startProxy(t *testing.T, cfg Config) (*Proxy, *httptest.Server) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

// TestPassThroughFidelity pins the no-fault path: body, status and
// headers cross the proxy unchanged in both directions.
func TestPassThroughFidelity(t *testing.T) {
	up := backend(t)
	p, err := New(Config{Target: up.URL})
	if err != nil {
		t.Fatal(err)
	}
	// The proxy counts a forward after its last write, which the client
	// can read before the handler returns: Stats waits for the return.
	returned := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(returned)
		p.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/x", "text/plain", strings.NewReader("ping"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != `{"echo":"ping"}` {
		t.Fatalf("proxied response: %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Upstream") != "yes" {
		t.Fatal("upstream headers must cross the proxy")
	}
	<-returned
	if s := p.Stats(); s.Requests != 1 || s.Forwarded != 1 || s.Errored+s.Resets+s.Kills != 0 {
		t.Fatalf("stats = %+v, want one clean forward", s)
	}
}

// TestErrorBurstSchedule pins determinism: with ErrorEvery=4, ErrorBurst=2
// exactly requests 4,5 and 8,9 are 502s, everything else is forwarded —
// the same requests on every run.
func TestErrorBurstSchedule(t *testing.T) {
	up := backend(t)
	_, srv := startProxy(t, Config{Target: up.URL, ErrorEvery: 4, ErrorBurst: 2})

	want502 := map[int]bool{4: true, 5: true, 8: true, 9: true}
	for i := 1; i <= 10; i++ {
		resp, err := http.Get(srv.URL + "/x")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if want502[i] && resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("request %d = %d, want injected 502", i, resp.StatusCode)
		}
		if !want502[i] && resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d, want forwarded 200", i, resp.StatusCode)
		}
	}
}

// TestLatencyInjection pins the latency schedule: every 2nd request is
// held for the configured delay, the others pass at full speed.
func TestLatencyInjection(t *testing.T) {
	up := backend(t)
	p, srv := startProxy(t, Config{Target: up.URL, Latency: 80 * time.Millisecond, LatencyEvery: 2})

	var fast, slow time.Duration
	for i := 1; i <= 2; i++ {
		start := time.Now()
		resp, err := http.Get(srv.URL + "/x")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if i == 1 {
			fast = time.Since(start)
		} else {
			slow = time.Since(start)
		}
	}
	if fast > 50*time.Millisecond {
		t.Fatalf("unscheduled request took %v, want fast", fast)
	}
	if slow < 80*time.Millisecond {
		t.Fatalf("scheduled request took %v, want >= 80ms", slow)
	}
	if s := p.Stats(); s.Delayed != 1 {
		t.Fatalf("stats = %+v, want 1 delayed", s)
	}
}

// TestConnectionReset pins the reset fault: the scheduled request errors
// at the transport level without any HTTP response.
func TestConnectionReset(t *testing.T) {
	up := backend(t)
	p, srv := startProxy(t, Config{Target: up.URL, ResetEvery: 2})

	client := &http.Client{} // no retries on one-shot POSTs
	resp, err := client.Post(srv.URL+"/x", "text/plain", strings.NewReader("a"))
	if err != nil {
		t.Fatalf("request 1 should pass: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if resp, err := client.Post(srv.URL+"/x", "text/plain", strings.NewReader("b")); err == nil {
		resp.Body.Close()
		t.Fatalf("request 2 answered %d, want a connection error", resp.StatusCode)
	}
	if s := p.Stats(); s.Resets != 1 {
		t.Fatalf("stats = %+v, want 1 reset", s)
	}
}

// TestMidStreamKill pins the kill fault: the response starts normally,
// some body escapes, then the connection dies — the client sees a
// truncated stream with no trailer.
func TestMidStreamKill(t *testing.T) {
	up := backend(t)
	p, srv := startProxy(t, Config{Target: up.URL, KillEvery: 1, KillAfterBytes: 64})

	resp, err := http.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("killed stream status = %d, want 200 before the cut", resp.StatusCode)
	}
	if len(body) == 0 || len(body) > 4096 {
		t.Fatalf("killed stream forwarded %d bytes, want a small truncated prefix", len(body))
	}
	if strings.Contains(string(body), `"done":true`) {
		t.Fatal("killed stream must not deliver the trailer")
	}
	if readErr == nil && len(body) >= 100*20 {
		t.Fatal("expected a truncated read")
	}
	if s := p.Stats(); s.Kills != 1 {
		t.Fatalf("stats = %+v, want 1 kill", s)
	}
}

// TestMaxInFlightSlots pins the capacity emulation: with one slot and a
// per-request latency, concurrent requests serialize — total wall time
// is at least requests × latency.
func TestMaxInFlightSlots(t *testing.T) {
	up := backend(t)
	_, srv := startProxy(t, Config{
		Target:       up.URL,
		Latency:      40 * time.Millisecond,
		LatencyEvery: 1,
		MaxInFlight:  1,
	})

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/x")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 120*time.Millisecond {
		t.Fatalf("3 requests through 1 slot at 40ms finished in %v, want serialized >= 120ms", elapsed)
	}
}
