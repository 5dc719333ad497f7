package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"roadcrash/internal/eval"
)

// This file pins the join window's footprint and a version row's Brier
// window, shows that the read paths of the feedback loop build no window,
// drives one window from several goroutines, and benchmarks the loop
// through the handler.

// TestJoinWindowFootprint pins the window's layout: a 24-byte entry with
// no pointer, an index of the smallest power of two of at least twice the
// window, and no allocation once the window exists, however many fresh
// ids churn through it.
func TestJoinWindowFootprint(t *testing.T) {
	if got := unsafe.Sizeof(scoreEntry{}); got != 24 {
		t.Errorf("scoreEntry is %d bytes, want 24", got)
	}
	typ := reflect.TypeFor[scoreEntry]()
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Uint32, reflect.Int64, reflect.Float64:
		default:
			t.Errorf("scoreEntry.%s is a %s; the entry must hold no pointer", f.Name, f.Type)
		}
	}

	for _, window := range []int{1, 2, 3, 5, 8, 4095, 4096, 4097} {
		mf := New(NewRegistry(), Config{FeedbackWindow: window}).feedback.forModel("m")
		mf.mu.Lock()
		mf.recordLocked(7, mf.versionLocked("v1"), 0.5)
		n := len(mf.index)
		mf.mu.Unlock()
		if n&(n-1) != 0 || n < 2*window || n/2 >= 2*window {
			t.Errorf("window %d has an index of %d positions, want the smallest power of two ≥ %d", window, n, 2*window)
		}
	}

	const window = 4096
	mf := New(NewRegistry(), Config{FeedbackWindow: window}).feedback.forModel("m")
	mf.mu.Lock()
	defer mf.mu.Unlock()
	v := mf.versionLocked("v1")
	mf.recordLocked(0, v, 0.5)
	id := int64(1)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 64*window; i++ {
			mf.recordLocked(id, v, 0.5)
			id++
		}
	})
	if allocs != 0 {
		t.Errorf("%d records of fresh ids allocated %v times once the window existed", 64*window, allocs)
	}
}

// TestVersionRowRollingWindow pins a version row's Brier window with a
// RollingWindow of 4 and six labels: the mean is NaN before any label,
// the window grows to 4 contributions and then overwrites its oldest, its
// mean sums the live contributions in slice order, the label count keeps
// the aged-out ones, and a non-finite contribution is dropped.
func TestVersionRowRollingWindow(t *testing.T) {
	dir := t.TempDir()
	writeLeafModel(t, dir, "m", 6, 2) // serves 0.7
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Config{FeedbackWindow: 64, RollingWindow: 4, MinFeedback: 1 << 30})
	m, _ := reg.Get("m")
	do := func(method, path, body string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	label := func(id int, y bool) {
		t.Helper()
		do(http.MethodPost, "/feedback", fmt.Sprintf(`{"model":"m","labels":[{"segment_id":%d,"crash_prone":%v}]}`, id, y))
	}
	healthz := func() map[string]any {
		t.Helper()
		var hz struct {
			Drift map[string]map[string]any `json:"drift"`
		}
		if err := json.Unmarshal([]byte(do(http.MethodGet, "/healthz", "")), &hz); err != nil {
			t.Fatal(err)
		}
		return hz.Drift["m"]
	}
	mf := srv.feedback.forModel("m")
	check := func(step string, window []float64, next int, labels uint64) {
		t.Helper()
		mf.mu.Lock()
		st := mf.statsLocked(m.Version)
		mf.mu.Unlock()
		sum := 0.0
		for _, v := range window {
			sum += v
		}
		want := sum / float64(len(window))
		if st == nil || !slices.Equal(st.brier, window) || st.next != next || st.labels != labels || !sameFloat(st.brierMean(), want) {
			t.Fatalf("%s: row %+v, want window %v (next %d, mean %v) and %d labels", step, st, window, next, want, labels)
		}
		if d := healthz(); d["brier_window"] != want || d["labels"] != float64(labels) {
			t.Fatalf("%s: /healthz reports %v, want brier_window %v and %d labels", step, d, want, labels)
		}
	}

	ids := make([]string, 6)
	for i := range ids {
		ids[i] = fmt.Sprintf(`{"aadt":1000,"segment_id":%d}`, i+1)
	}
	do(http.MethodPost, "/score", `{"model":"m","segments":[`+strings.Join(ids, ",")+`]}`)
	mf.mu.Lock()
	unlabelled := mf.versions[mf.versionLocked(m.Version)]
	mf.mu.Unlock()
	if unlabelled.brier != nil || !math.IsNaN(unlabelled.brierMean()) {
		t.Fatalf("scored but unlabelled row %+v has a window or a mean", unlabelled)
	}
	if mean, labels := srv.versionBrier("m", m.Version); !math.IsNaN(mean) || labels != 0 {
		t.Fatalf("unlabelled version's Brier = %v over %d labels, want NaN over 0", mean, labels)
	}
	if d := healthz(); d["brier_window"] != nil || d["labels"] != nil {
		t.Fatalf("/healthz reports %v for an unlabelled version", d)
	}

	hit, miss := eval.BrierPoint(0.7, 1), eval.BrierPoint(0.7, 0)
	label(1, true)
	label(2, true)
	label(3, false)
	check("window filling", []float64{hit, hit, miss}, 0, 3)
	label(4, false)
	check("window full", []float64{hit, hit, miss, miss}, 0, 4)
	label(5, false)
	check("oldest overwritten", []float64{miss, hit, miss, miss}, 1, 5)
	label(6, false)
	check("second oldest overwritten", []float64{miss, miss, miss, miss}, 2, 6)

	mf.mu.Lock()
	st := mf.statsLocked(m.Version)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		st.addBrier(v)
	}
	mf.mu.Unlock()
	check("non-finite contributions dropped", []float64{miss, miss, miss, miss}, 2, 6)
}

// TestFeedbackReadPathsAllocateNoWindow pins that only a recorded row
// allocates a model's join window: /healthz, /shadow and a /feedback for
// a model that never scored a row read an empty window and answer as for
// any model without labels.
func TestFeedbackReadPathsAllocateNoWindow(t *testing.T) {
	dir := t.TempDir()
	writeLeafModel(t, dir, "scored", 6, 2)
	writeLeafModel(t, dir, "idle", 3, 5)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Config{FeedbackWindow: 4096, ReloadDir: dir})
	do := func(method, path, body string, want int) string {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: %d %s, want %d", method, path, rec.Code, rec.Body, want)
		}
		return rec.Body.String()
	}
	do(http.MethodPost, "/score", `{"model":"scored","segments":[{"aadt":1000,"segment_id":1}]}`, http.StatusOK)
	do(http.MethodPost, "/shadow", "", http.StatusOK) // stages both models, so GET /shadow reads both windows
	if body := do(http.MethodGet, "/shadow", "", http.StatusOK); !strings.Contains(body, `"model":"idle"`) {
		t.Fatalf("GET /shadow lists no idle model: %s", body)
	}
	var hz struct {
		Drift map[string]map[string]any `json:"drift"`
	}
	if err := json.Unmarshal([]byte(do(http.MethodGet, "/healthz", "", http.StatusOK)), &hz); err != nil {
		t.Fatal(err)
	}
	if d := hz.Drift["idle"]; d == nil || d["alarm"] != false || d["labels"] != nil {
		t.Fatalf("healthz drift entry of the idle model = %v, want no alarm and no labels", d)
	}
	idle, _ := reg.Get("idle")
	labels := `"labels":[{"segment_id":1,"crash_prone":true}]}`
	do(http.MethodPost, "/feedback", `{"model":"idle","version":"bogus",`+labels, http.StatusNotFound)
	do(http.MethodPost, "/feedback", `{"model":"idle","version":"`+idle.Version+`",`+labels, http.StatusOK)
	var fr FeedbackResponse
	if err := json.Unmarshal([]byte(do(http.MethodPost, "/feedback", `{"model":"idle",`+labels, http.StatusOK)), &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Outcomes) != 1 || fr.Outcomes["unmatched"] != 1 || fr.Alarm {
		t.Fatalf("feedback for the idle model = %+v, want one unmatched label and no alarm", fr)
	}

	for name, want := range map[string]bool{"scored": true, "idle": false} {
		mf := srv.feedback.forModel(name)
		mf.mu.Lock()
		ring, index := mf.ring != nil, mf.index != nil
		mf.mu.Unlock()
		if ring != want || index != want {
			t.Errorf("model %s holds a ring: %v, an index: %v; want %v", name, ring, index, want)
		}
	}
}

// TestFeedbackConcurrentScoreAndLabel drives one model's window from four
// scoring goroutines, each labelling its batches two batches late, while
// other goroutines poll /healthz and /metrics, the latter rendering the
// online series that grading creates under the model's lock. The window
// holds every scored row, so every label must match, none twice, and
// afterwards every valid ring entry must be reachable from its id's index
// position.
func TestFeedbackConcurrentScoreAndLabel(t *testing.T) {
	const workers, batches, rows, lag = 4, 8, 256, 2
	dir := t.TempDir()
	writeLeafModel(t, dir, "m", 6, 2)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Config{FeedbackWindow: 16384})
	post := func(path, body string) (int, string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}

	done := make(chan struct{})
	var pollers sync.WaitGroup
	for _, path := range []string{"/healthz", "/healthz", "/metrics"} {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: %d %s", path, rec.Code, rec.Body)
					return
				}
			}
		}()
	}

	var workersWG sync.WaitGroup
	for w := range workers {
		workersWG.Add(1)
		go func() {
			defer workersWG.Done()
			var scores, labels [batches]string
			for b := range batches {
				scores[b], labels[b] = feedbackBatch((w*batches+b)*rows, rows)
			}
			label := func(b int) {
				code, resp := post("/feedback", labels[b])
				var fr FeedbackResponse
				if err := json.Unmarshal([]byte(resp), &fr); code != http.StatusOK || err != nil {
					t.Errorf("worker %d batch %d: /feedback %d %s", w, b, code, resp)
					return
				}
				if len(fr.Outcomes) != 1 || fr.Outcomes["matched"] != rows {
					t.Errorf("worker %d batch %d: outcomes %v, want all %d matched", w, b, fr.Outcomes, rows)
				}
			}
			for b := range batches {
				if code, resp := post("/score", scores[b]); code != http.StatusOK {
					t.Errorf("worker %d batch %d: /score %d %s", w, b, code, resp)
					return
				}
				if b >= lag {
					label(b - lag)
				}
			}
			for b := batches - lag; b < batches; b++ {
				label(b)
			}
		}()
	}
	workersWG.Wait()
	close(done)
	pollers.Wait()

	mf := srv.feedback.forModel("m")
	mf.mu.Lock()
	defer mf.mu.Unlock()
	valid := 0
	for i := range mf.ring {
		e := &mf.ring[i]
		if !e.valid() {
			continue
		}
		valid++
		slot := mf.headLocked(e.id)
		for slot >= 0 && slot != int32(i) {
			slot = mf.ring[slot].next
		}
		if slot < 0 {
			t.Fatalf("ring slot %d (id %d) is not reachable from its id's index position", i, e.id)
		}
	}
	if valid != workers*batches*rows {
		t.Fatalf("the ring holds %d valid entries, want every scored row: %d", valid, workers*batches*rows)
	}
}

// BenchmarkFeedbackLoop runs the loop that perfbench's score-feedback
// workload drives, through the handler with no network: a feedback-mode
// /score of 256 rows with segment ids, then the /feedback that labels the
// batch scored two requests earlier, against a window of 4,096 scores.
// The 32 batches cycle over twice the window's ids, so every labelled
// batch is still in the window and every scored batch evicts an old one.
func BenchmarkFeedbackLoop(b *testing.B) {
	const rows, lag, cycle = 256, 2, 32
	dir := b.TempDir()
	writeLeafModel(b, dir, "m", 6, 2)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		b.Fatal(err)
	}
	srv := New(reg, Config{FeedbackWindow: 4096})
	var scores, labels [cycle]string
	for c := range cycle {
		scores[c], labels[c] = feedbackBatch(c*rows, rows)
	}
	post := func(path, body string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	for i := range lag {
		post("/score", scores[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post("/score", scores[(i+lag)%cycle])
		post("/feedback", labels[i%cycle])
	}
	b.StopTimer()
	if got := srv.fbLabels.With("m", "matched").Value(); got != uint64(b.N*rows) {
		b.Fatalf("%d of %d labels matched", got, b.N*rows)
	}
}
