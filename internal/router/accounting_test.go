package router

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedAnswer is what a fake replica does with a scoring call.
type scriptedAnswer string

const (
	answerOK    scriptedAnswer = "200"   // a whole answer: scores, or score lines and a trailer
	answerCut   scriptedAnswer = "cut"   // a 200 stream that dies before its trailer
	answer404   scriptedAnswer = "404"   // unknown model: final, the replica is healthy
	answer429   scriptedAnswer = "429"   // at capacity
	answer500   scriptedAnswer = "500"   // failed
	answerReset scriptedAnswer = "reset" // the connection closes with no answer
	answerStall scriptedAnswer = "stall" // nothing until the router gives up on the call
)

// scriptedReplica is a fake replica whose scoring endpoints answer as the
// current script says; the script can change between requests.
func scriptedReplica(t *testing.T, script *atomic.Value) string {
	t.Helper()
	return fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		stream := r.URL.Path == "/score/stream"
		switch script.Load().(scriptedAnswer) {
		case answerOK:
			if stream {
				io.WriteString(w, `{"risk":0.5,"crash_prone":true}`+"\n"+`{"done":true,"rows":1}`+"\n")
				return
			}
			io.WriteString(w, `{"model":"m","kind":"decision_tree","scores":[{"risk":0.5,"crash_prone":true}]}`+"\n")
		case answerCut:
			io.WriteString(w, `{"risk":0.5,"crash_prone":true}`+"\n")
			w.(http.Flusher).Flush()
			if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
				conn.Close()
			}
		case answer404:
			http.Error(w, `{"error":"unknown model"}`, http.StatusNotFound)
		case answer429:
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"at capacity"}`, http.StatusTooManyRequests)
		case answer500:
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		case answerReset:
			if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
				conn.Close()
			}
		case answerStall:
			<-r.Context().Done()
		}
	}).URL
}

// script returns a replica script set to a.
func script(a scriptedAnswer) *atomic.Value {
	v := new(atomic.Value)
	v.Store(a)
	return v
}

// routeOnce sends one scoring call through the router at url and returns
// the router's status. A stream call sends one row, or as many rows as
// reach minBytes.
func routeOnce(t *testing.T, url, path string, minBytes int) int {
	t.Helper()
	body := `{"model":"m","segments":[{"aadt":1}]}`
	if strings.HasPrefix(path, "/score/stream") {
		row := `{"aadt":1}` + "\n"
		body = strings.Repeat(row, max(1, (minBytes+len(row)-1)/len(row)))
	}
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// attemptCounts reads crashprone_router_replica_requests_total as
// "<replica index> <outcome>" -> count, leaving out zeros.
func attemptCounts(rt *Router) map[string]uint64 {
	got := map[string]uint64{}
	for i, rep := range rt.replicas {
		for _, outcome := range []string{"ok", "rejected", "error"} {
			if n := rt.replicaReqs.With(rep.base, outcome).Value(); n > 0 {
				got[fmt.Sprintf("%d %s", i, outcome)] = n
			}
		}
	}
	return got
}

// waitAttempts waits until the router has counted as many attempts as
// want holds, then requires the counts to equal want. A verdict may land
// just after the client has its answer: a stream's is recorded at its
// trailer and a hedge loser's on the goroutine that discards it.
func waitAttempts(t *testing.T, rt *Router, want map[string]uint64) {
	t.Helper()
	var total uint64
	for _, n := range want {
		total += n
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		var seen uint64
		for _, n := range attemptCounts(rt) {
			seen += n
		}
		if seen >= total || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a second record of one attempt would land here
	if got := attemptCounts(rt); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("attempts by replica and outcome = %v, want %v", got, want)
	}
}

// waitBreaker waits up to 3 s for replica i's breaker to read want.
func waitBreaker(t *testing.T, rt *Router, i int, want string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for rt.Health()[i].Breaker != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica %d breaker = %q, want %q", i, rt.Health()[i].Breaker, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRouterAttemptAccounting pins the per-attempt counter
// crashprone_router_replica_requests_total{replica,outcome}: every
// attempt adds exactly one, under the outcome its answer earns. A final
// answer below 500 other than a 429 is ok, a 429 is rejected, and a 5xx,
// a reset connection, a stream cut off before its trailer or a hedge
// loser the router cancels is an error. The router makes at most one
// attempt per replica, so a failed stream is retried on the second
// replica only while its body fits the replay buffer.
func TestRouterAttemptAccounting(t *testing.T) {
	for _, tc := range []struct {
		name        string
		path        string
		answers     []scriptedAnswer // one replica each, in configuration order
		hedge       bool
		status      int
		want        map[string]uint64
		streamBytes int // the stream body's least size; 0 sends one row
	}{
		{"score 200", "/score", []scriptedAnswer{answerOK}, false, http.StatusOK, map[string]uint64{"0 ok": 1}, 0},
		{"score 404", "/score", []scriptedAnswer{answer404}, false, http.StatusNotFound, map[string]uint64{"0 ok": 1}, 0},
		{"score 429", "/score", []scriptedAnswer{answer429}, false, http.StatusTooManyRequests, map[string]uint64{"0 rejected": 1}, 0},
		{"score 500", "/score", []scriptedAnswer{answer500}, false, http.StatusBadGateway, map[string]uint64{"0 error": 1}, 0},
		{"score reset", "/score", []scriptedAnswer{answerReset}, false, http.StatusBadGateway, map[string]uint64{"0 error": 1}, 0},
		{"hedged score 200, slow loser", "/score", []scriptedAnswer{answerStall, answerOK}, true, http.StatusOK,
			map[string]uint64{"0 error": 1, "1 ok": 1}, 0},
		{"hedged score 404, slow loser", "/score", []scriptedAnswer{answerStall, answer404}, true, http.StatusNotFound,
			map[string]uint64{"0 error": 1, "1 ok": 1}, 0},
		{"stream 200 with trailer", "/score/stream?model=m", []scriptedAnswer{answerOK}, false, http.StatusOK, map[string]uint64{"0 ok": 1}, 0},
		{"stream cut before trailer", "/score/stream?model=m", []scriptedAnswer{answerCut}, false, http.StatusOK, map[string]uint64{"0 error": 1}, 0},
		{"stream 404", "/score/stream?model=m", []scriptedAnswer{answer404}, false, http.StatusNotFound, map[string]uint64{"0 ok": 1}, 0},
		{"stream 500 retried on the second replica", "/score/stream?model=m", []scriptedAnswer{answer500, answerOK}, false, http.StatusOK,
			map[string]uint64{"0 error": 1, "1 ok": 1}, 0},
		{"stream 500 over the replay cap, not retried", "/score/stream?model=m", []scriptedAnswer{answer500, answerOK}, false, http.StatusBadGateway,
			map[string]uint64{"0 error": 1}, streamReplayBytes + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{MaxAttempts: len(tc.answers), BreakerFailures: 100}
			for _, a := range tc.answers {
				cfg.Replicas = append(cfg.Replicas, scriptedReplica(t, script(a)))
			}
			if tc.hedge {
				cfg.HedgeAfter = 20 * time.Millisecond
			}
			rt, srv := newTestRouter(t, cfg)
			if got := routeOnce(t, srv.URL, tc.path, tc.streamBytes); got != tc.status {
				t.Fatalf("router answered %d, want %d", got, tc.status)
			}
			waitAttempts(t, rt, tc.want)
		})
	}
}

// TestRouterHalfOpenRecloses pins where a 200's breaker verdict comes
// from: a half-open breaker closes again after a 200 on /score, and after
// a stream that ends with its trailer.
func TestRouterHalfOpenRecloses(t *testing.T) {
	for name, path := range map[string]string{"score": "/score", "stream": "/score/stream?model=m"} {
		t.Run(name, func(t *testing.T) {
			answers := script(answer500)
			rt, srv := newTestRouter(t, Config{
				Replicas:        []string{scriptedReplica(t, answers)},
				MaxAttempts:     1,
				BreakerFailures: 1,
				BreakerCooldown: 50 * time.Millisecond,
			})
			if got := routeOnce(t, srv.URL, path, 0); got != http.StatusBadGateway {
				t.Fatalf("failing replica: router answered %d, want 502", got)
			}
			waitBreaker(t, rt, 0, "open")
			answers.Store(answerOK)
			time.Sleep(60 * time.Millisecond) // past the cooldown: the next call is the probe
			if got := routeOnce(t, srv.URL, path, 0); got != http.StatusOK {
				t.Fatalf("healed replica: router answered %d, want 200", got)
			}
			waitBreaker(t, rt, 0, "closed")
			waitAttempts(t, rt, map[string]uint64{"0 error": 1, "0 ok": 1})
		})
	}
}
