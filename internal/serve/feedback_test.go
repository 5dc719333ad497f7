package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/data"
	"roadcrash/internal/mining/tree"
)

// FeedbackLabel is one label of a POST /feedback body, the shape the
// handler decoded with encoding/json before it had its own parser. Tests
// build bodies with it, and FuzzFeedbackRequest decodes into it as the
// reference.
type FeedbackLabel struct {
	SegmentID  *float64 `json:"segment_id"`
	CrashProne *bool    `json:"crash_prone"`
}

// FeedbackRequest is a POST /feedback body in the same encoding/json
// shape as FeedbackLabel.
type FeedbackRequest struct {
	Model   string          `json:"model"`
	Version string          `json:"version,omitempty"`
	Labels  []FeedbackLabel `json:"labels"`
}

// leafArtifact trains a deliberately unsplittable tree — one constant
// feature, so the root stays a leaf — whose every prediction is exactly
// the Laplace-smoothed class rate (pos+1)/(pos+neg+2). Feedback tests
// need served risks they can compute Brier values from in closed form.
func leafArtifact(t testing.TB, name string, pos, neg int) *artifact.Artifact {
	t.Helper()
	b := data.NewBuilder(name).Interval("aadt").Binary("crash_prone")
	for i := 0; i < pos; i++ {
		b.Row(1000, 1)
	}
	for i := 0; i < neg; i++ {
		b.Row(1000, 0)
	}
	ds := b.Build()
	cfg := tree.DefaultConfig()
	cfg.MinLeaf = 1
	cfg.Features = []int{0}
	dt, err := tree.Grow(ds, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(pos+1) / float64(pos+neg+2)
	if got := dt.PredictProb([]float64{1000}); got != want {
		t.Fatalf("leaf fixture predicts %v, want the smoothed class rate %v", got, want)
	}
	a, err := artifact.New(name, artifact.KindDecisionTree, dt, ds.Attrs(), 8, 21, "crash_prone", nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// writeLeafModel persists a leaf fixture into dir under <name>.json.
func writeLeafModel(t testing.TB, dir, name string, pos, neg int) {
	t.Helper()
	if err := artifact.WriteFile(filepath.Join(dir, name+".json"), leafArtifact(t, name, pos, neg)); err != nil {
		t.Fatal(err)
	}
}

// newFeedbackServer serves the artifacts in dir with the given config.
func newFeedbackServer(t *testing.T, dir string, cfg Config) *httptest.Server {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg, cfg))
	t.Cleanup(srv.Close)
	return srv
}

// scoreIDs scores one segment per id (constant features, so a leaf
// fixture serves one known risk) and returns the served risks.
func scoreIDs(t *testing.T, url, model string, ids ...int64) []float64 {
	t.Helper()
	segments := make([]map[string]any, len(ids))
	for i, id := range ids {
		segments[i] = map[string]any{"aadt": 1000.0, "segment_id": float64(id)}
	}
	resp, body := postScore(t, url, ScoreRequest{Model: model, Segments: segments})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d: %s", resp.StatusCode, body)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	risks := make([]float64, len(sr.Scores))
	for i, s := range sr.Scores {
		risks[i] = s.Risk
	}
	return risks
}

// postJSON posts a raw body and returns status plus response bytes.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// postLabels sends one label per id with a single crash_prone outcome and
// decodes the feedback response.
func postLabels(t *testing.T, url, model, version string, y bool, ids ...int64) FeedbackResponse {
	t.Helper()
	fr := FeedbackRequest{Model: model, Version: version}
	for i := range ids {
		id := float64(ids[i])
		yy := y
		fr.Labels = append(fr.Labels, FeedbackLabel{SegmentID: &id, CrashProne: &yy})
	}
	raw, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	status, body := postJSON(t, url+"/feedback", string(raw))
	if status != http.StatusOK {
		t.Fatalf("feedback status %d: %s", status, body)
	}
	var resp FeedbackResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestFeedbackErrorTable pins every /feedback failure mode: method,
// malformed body, framing (trailing data, a body over the limit),
// request-level validation, unknown model and version, and per-label
// validation — each with its status and message.
func TestFeedbackErrorTable(t *testing.T) {
	dir := t.TempDir()
	writeLeafModel(t, dir, "m", 6, 2)
	srv := newFeedbackServer(t, dir, Config{FeedbackWindow: 16, MaxBodyBytes: 200})
	const label1 = `{"model":"m","labels":[{"segment_id":1,"crash_prone":true}]}`

	if resp, err := http.Get(srv.URL + "/feedback"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /feedback: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	for _, tc := range []struct {
		name    string
		body    string
		status  int
		wantErr string
	}{
		{"malformed", `{"model":`, http.StatusBadRequest, "malformed request"},
		{"trailing data", label1 + ` x`, http.StatusBadRequest, "malformed request"},
		{"two objects", label1 + label1, http.StatusBadRequest, "malformed request"},
		{"trailing data past the limit", label1 + strings.Repeat(" x", 100), http.StatusRequestEntityTooLarge, "request body exceeds the 200-byte limit"},
		{"oversized", `{"model":"m","labels":[` + strings.Repeat(`{"segment_id":1,"crash_prone":true},`, 6) + `{}]}`, http.StatusRequestEntityTooLarge, "request body exceeds the 200-byte limit"},
		{"missing model", `{"labels":[{"segment_id":1,"crash_prone":true}]}`, http.StatusBadRequest, "missing model name"},
		{"unknown model", `{"model":"nope","labels":[{"segment_id":1,"crash_prone":true}]}`, http.StatusNotFound, `unknown model \"nope\"`},
		{"unknown version", `{"model":"m","version":"bogus","labels":[{"segment_id":1,"crash_prone":true}]}`, http.StatusNotFound, `unknown version \"bogus\"`},
		{"no labels", `{"model":"m","labels":[]}`, http.StatusBadRequest, "no labels to ingest"},
		{"labels absent", `{"model":"m"}`, http.StatusBadRequest, "no labels to ingest"},
		{"missing segment_id", `{"model":"m","labels":[{"crash_prone":true}]}`, http.StatusBadRequest, "label 0: missing segment_id"},
		{"fractional segment_id", `{"model":"m","labels":[{"segment_id":1.5,"crash_prone":true}]}`, http.StatusBadRequest, "label 0: segment_id 1.5 is not an integer"},
		{"segment_id 2^63", `{"model":"m","labels":[{"segment_id":9223372036854775808,"crash_prone":true}]}`, http.StatusBadRequest, "label 0: segment_id 9.223372036854776e+18 is not an integer in int64 range"},
		{"segment_id 1e19", `{"model":"m","labels":[{"segment_id":1e19,"crash_prone":true}]}`, http.StatusBadRequest, "label 0: segment_id 1e+19 is not an integer in int64 range"},
		{"segment_id -1e300", `{"model":"m","labels":[{"segment_id":1,"crash_prone":true},{"segment_id":-1e300,"crash_prone":true}]}`, http.StatusBadRequest, "label 1: segment_id -1e+300 is not an integer in int64 range"},
		{"missing crash_prone", `{"model":"m","labels":[{"segment_id":1,"crash_prone":true},{"segment_id":2}]}`, http.StatusBadRequest, "label 1: missing crash_prone"},
	} {
		status, body := postJSON(t, srv.URL+"/feedback", tc.body)
		if status != tc.status || !strings.Contains(string(body), tc.wantErr) {
			t.Errorf("%s: got %d %s, want %d containing %q", tc.name, status, body, tc.status, tc.wantErr)
		}
	}

	// Validation is whole-request: the valid label 0 above must not have
	// been applied while label 1 failed — its first real ingest still
	// grades unmatched (nothing scored), not duplicate.
	scoreIDs(t, srv.URL, "m", 1)
	resp := postLabels(t, srv.URL, "m", "", true, 1)
	if resp.Outcomes["matched"] != 1 {
		t.Fatalf("label after rejected batches graded %v, want one match", resp.Outcomes)
	}
}

// TestFeedbackDisabledByDefault pins that a server without FeedbackWindow
// registers none of the feedback surface.
func TestFeedbackDisabledByDefault(t *testing.T) {
	dir := t.TempDir()
	writeLeafModel(t, dir, "m", 6, 2)
	srv := newFeedbackServer(t, dir, Config{})
	for _, path := range []string{"/feedback", "/shadow", "/promote"} {
		status, _ := postJSON(t, srv.URL+path, `{}`)
		if status != http.StatusNotFound {
			t.Errorf("%s on a non-feedback server: status %d, want 404", path, status)
		}
	}
}

// TestFeedbackJoinOutcomes pins the join-window grading: a scored segment
// matches once, matches again only after being re-scored, reports
// duplicate while its label is already on the books, and unmatched when
// it was never scored — or when its score was evicted by window overflow.
// A row whose segment_id is not an integer in int64 range is scored but
// never filed, so it neither takes a window slot nor matches a label.
func TestFeedbackJoinOutcomes(t *testing.T) {
	dir := t.TempDir()
	writeLeafModel(t, dir, "m", 6, 2)
	srv := newFeedbackServer(t, dir, Config{FeedbackWindow: 4, MinFeedback: 1 << 30})

	scoreIDs(t, srv.URL, "m", 1, 2)
	if resp := postLabels(t, srv.URL, "m", "", true, 1); resp.Outcomes["matched"] != 1 {
		t.Fatalf("first label: %v", resp.Outcomes)
	}
	if resp := postLabels(t, srv.URL, "m", "", true, 1); resp.Outcomes["duplicate"] != 1 {
		t.Fatalf("repeated label: %v", resp.Outcomes)
	}
	if resp := postLabels(t, srv.URL, "m", "", true, 99); resp.Outcomes["unmatched"] != 1 {
		t.Fatalf("never-scored label: %v", resp.Outcomes)
	}
	// Re-scoring a labelled segment arms it again: the next label grades
	// the fresh score instead of reporting a duplicate.
	scoreIDs(t, srv.URL, "m", 1)
	if resp := postLabels(t, srv.URL, "m", "", true, 1); resp.Outcomes["matched"] != 1 {
		t.Fatalf("label after re-score: %v", resp.Outcomes)
	}
	// The window holds 4 scores; scoring 4 fresh segments evicts ids 1 and
	// 2, whose late labels now land unmatched — the expiry failure mode.
	scoreIDs(t, srv.URL, "m", 3, 4, 5, 6)
	if resp := postLabels(t, srv.URL, "m", "", true, 2); resp.Outcomes["unmatched"] != 1 {
		t.Fatalf("label for an evicted score: %v", resp.Outcomes)
	}
	// Mixed batch: one fresh match, one duplicate, one unmatched.
	scoreIDs(t, srv.URL, "m", 5)
	postLabels(t, srv.URL, "m", "", true, 6)
	resp := postLabels(t, srv.URL, "m", "", true, 5, 6, 77)
	want := map[string]int{"matched": 1, "duplicate": 1, "unmatched": 1}
	for k, n := range want {
		if resp.Outcomes[k] != n {
			t.Fatalf("mixed batch: %v, want %v", resp.Outcomes, want)
		}
	}
	// Each request's outcome counts reach crashprone_feedback_labels_total
	// whole: 4 matched, 2 duplicates and 3 unmatched above, 3 more here.
	postLabels(t, srv.URL, "m", "", true, 80, 81, 82)
	mResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	for outcome, n := range map[string]int{"matched": 4, "duplicate": 2, "unmatched": 6} {
		line := fmt.Sprintf(`crashprone_feedback_labels_total{model="m",outcome=%q} %d`, outcome, n)
		if !bytes.Contains(body, []byte(line+"\n")) {
			t.Errorf("/metrics lacks %q", line)
		}
	}

	// Ids with no join key: int64 would fold -1e300 and 1e19 onto
	// math.MinInt64 and truncate 1.5 … 4.5 onto 1 … 4, keys that would
	// evict id 9 from the 4-slot window. Unfiled, they leave id 9 to
	// match, and the evicted or never-scored ids they would have folded
	// onto stay unmatched.
	scoreIDs(t, srv.URL, "m", 9)
	var rows []string
	for _, id := range []string{"-1e300", "1e19", "1.5", "2.5", "3.5", "4.5"} {
		rows = append(rows, `{"aadt":1000,"segment_id":`+id+`}`)
	}
	status, raw := postJSON(t, srv.URL+"/score", `{"model":"m","segments":[`+strings.Join(rows, ",")+`]}`)
	var sr ScoreResponse
	if err := json.Unmarshal(raw, &sr); status != http.StatusOK || err != nil || len(sr.Scores) != len(rows) {
		t.Fatalf("scoring ids with no join key: %d %s", status, raw)
	}
	resp = postLabels(t, srv.URL, "m", "", true, 9, math.MinInt64, 1, 2, 3)
	if resp.Outcomes["matched"] != 1 || resp.Outcomes["unmatched"] != 4 {
		t.Fatalf("labels after scoring ids with no join key: %v, want id 9 matched and 4 unmatched", resp.Outcomes)
	}
}

// TestFeedbackUnknownModelsShareOneSeries pins that no client can grow
// /metrics by naming models: the labels of every model the registry does
// not hold are counted under model="", so 1,000 distinct unknown names
// leave one unknown_model series, and 1,000 more leave the page the same
// size. The 404 still names the model.
func TestFeedbackUnknownModelsShareOneSeries(t *testing.T) {
	dir := t.TempDir()
	writeLeafModel(t, dir, "m", 6, 2)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Config{FeedbackWindow: 16})
	do := func(method, path, body string) (int, string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	send := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			name := fmt.Sprintf("nope-%d", i)
			status, body := do(http.MethodPost, "/feedback", `{"model":"`+name+`","labels":[{"segment_id":1,"crash_prone":true}]}`)
			if want := fmt.Sprintf(`unknown model \"%s\"`, name); status != http.StatusNotFound || !strings.Contains(body, want) {
				t.Fatalf("feedback for %s: %d %s, want 404 containing %s", name, status, body, want)
			}
		}
	}
	send(0, 1000)
	_, warm := do(http.MethodGet, "/metrics", "")
	send(1000, 2000)
	_, page := do(http.MethodGet, "/metrics", "")
	if n := strings.Count(page, `outcome="unknown_model"`); n != 1 {
		t.Errorf("/metrics holds %d unknown_model series, want 1", n)
	}
	if want := `crashprone_feedback_labels_total{model="",outcome="unknown_model"} 2000` + "\n"; !strings.Contains(page, want) {
		t.Errorf("/metrics lacks %q", want)
	}
	if len(page) != len(warm) {
		t.Errorf("/metrics grew from %d to %d bytes over 1,000 more unknown model names", len(warm), len(page))
	}
}

// TestFeedbackDriftHysteresis walks the alarm through its full cycle on a
// leaf model serving exactly 0.7: correct labels contribute a Brier of
// 0.09, wrong ones 0.49, so a 10-label rolling window takes the values
// 0.09 + 0.04k for k wrong labels. With the default thresholds the
// baseline pins at 0.09, the alarm fires at >= 0.135 and clears at
// <= 0.1035 — k=1 (0.13) lands inside the hysteresis band, keeping
// whichever state the alarm is in.
func TestFeedbackDriftHysteresis(t *testing.T) {
	dir := t.TempDir()
	writeLeafModel(t, dir, "m", 6, 2)
	srv := newFeedbackServer(t, dir, Config{FeedbackWindow: 64, RollingWindow: 10, MinFeedback: 10})
	ids := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

	// Phase 1 — accurate labels pin the baseline, no alarm.
	if risks := scoreIDs(t, srv.URL, "m", ids...); risks[0] != 0.7 {
		t.Fatalf("leaf model serves %v, want 0.7", risks[0])
	}
	if resp := postLabels(t, srv.URL, "m", "", true, ids...); resp.Alarm {
		t.Fatal("alarm fired on accurate labels")
	}

	// Phase 2 — every label wrong: window Brier 0.49 >= 0.135 fires.
	scoreIDs(t, srv.URL, "m", ids...)
	if resp := postLabels(t, srv.URL, "m", "", false, ids...); !resp.Alarm {
		t.Fatal("alarm did not fire on all-wrong labels")
	}
	assertDriftSurface(t, srv.URL, true)

	// Phase 3 — in the hysteresis band (k=1, Brier 0.13 > 0.1035): a
	// firing alarm must stay up, not flap.
	scoreIDs(t, srv.URL, "m", ids...)
	postLabels(t, srv.URL, "m", "", true, ids[:9]...)
	if resp := postLabels(t, srv.URL, "m", "", false, ids[9]); !resp.Alarm {
		t.Fatal("alarm cleared inside the hysteresis band")
	}

	// Phase 4 — fully accurate again: 0.09 <= 0.1035 clears.
	scoreIDs(t, srv.URL, "m", ids...)
	if resp := postLabels(t, srv.URL, "m", "", true, ids...); resp.Alarm {
		t.Fatal("alarm did not clear on recovered labels")
	}
	assertDriftSurface(t, srv.URL, false)

	// Phase 5 — same in-band mix from the cleared side (0.13 < 0.135):
	// the alarm must stay down. Only crossing 0.135 re-fires.
	scoreIDs(t, srv.URL, "m", ids...)
	postLabels(t, srv.URL, "m", "", true, ids[:9]...)
	if resp := postLabels(t, srv.URL, "m", "", false, ids[9]); resp.Alarm {
		t.Fatal("alarm re-fired inside the hysteresis band")
	}
}

// assertDriftSurface checks the alarm state is mirrored on /healthz and
// the crashprone_drift_alarm gauge.
func assertDriftSurface(t *testing.T, url string, firing bool) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Drift map[string]struct {
			Alarm    bool    `json:"alarm"`
			Version  string  `json:"version"`
			Labels   uint64  `json:"labels"`
			Baseline float64 `json:"baseline"`
		} `json:"drift"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := hz.Drift["m"]
	if !ok || d.Alarm != firing || d.Version == "" || d.Labels == 0 || d.Baseline == 0 {
		t.Fatalf("healthz drift detail = %+v, want alarm=%v with version, labels and baseline", hz.Drift, firing)
	}
	mResp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	want := fmt.Sprintf(`crashprone_drift_alarm{model="m"} %d`, map[bool]int64{false: 0, true: 1}[firing])
	if !bytes.Contains(body, []byte(want)) {
		t.Fatalf("/metrics lacks %q", want)
	}
}

// modelVersion reads the serving version of one model off /models.
func modelVersion(t *testing.T, url, name string) string {
	t.Helper()
	resp, err := http.Get(url + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	for _, m := range list.Models {
		if m.Name == name {
			return m.Version
		}
	}
	t.Fatalf("model %q not served", name)
	return ""
}

// TestShadowPromotionGateAndCommit walks the happy path of the gated
// rollout: stage a genuinely better candidate, shadow-score it on live
// traffic, and watch the gate refuse until the evidence is in — then
// promote, swap the serving version, and re-pin the drift baseline.
func TestShadowPromotionGateAndCommit(t *testing.T) {
	dir := t.TempDir()
	writeLeafModel(t, dir, "m", 6, 2) // incumbent serves 0.7
	srv := newFeedbackServer(t, dir, Config{FeedbackWindow: 256, RollingWindow: 10, MinFeedback: 10, ReloadDir: dir})
	incumbent := modelVersion(t, srv.URL, "m")

	// Nothing staged: the gate has nothing to judge.
	if status, body := postJSON(t, srv.URL+"/promote", ""); status != http.StatusConflict || !strings.Contains(string(body), "no shadow candidate staged") {
		t.Fatalf("promote without a candidate: %d %s", status, body)
	}
	// Staging the unchanged directory is allowed but never promotable.
	if status, body := postJSON(t, srv.URL+"/shadow", ""); status != http.StatusOK {
		t.Fatalf("shadow stage: %d %s", status, body)
	}
	if status, body := postJSON(t, srv.URL+"/promote", ""); status != http.StatusConflict || !strings.Contains(string(body), "identical to the serving set") {
		t.Fatalf("promote of an identical set: %d %s", status, body)
	}

	// Stage a real candidate: same model name, different content — it
	// serves 0.3 where the incumbent serves 0.7.
	writeLeafModel(t, dir, "m", 2, 6)
	if status, body := postJSON(t, srv.URL+"/shadow", ""); status != http.StatusOK {
		t.Fatalf("shadow stage: %d %s", status, body)
	}
	var status ShadowStatus
	resp, err := http.Get(srv.URL + "/shadow")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !status.Staged || len(status.Candidates) != 1 || status.Candidates[0].Identical {
		t.Fatalf("shadow status = %+v, want one differing candidate", status)
	}
	candidate := status.Candidates[0].CandidateVersion
	if candidate == incumbent {
		t.Fatal("candidate version equals incumbent")
	}

	// No labels yet: the gate refuses on evidence.
	if st, body := postJSON(t, srv.URL+"/promote", ""); st != http.StatusConflict || !strings.Contains(string(body), "not enough joined labels") {
		t.Fatalf("promote without labels: %d %s", st, body)
	}

	// Live traffic is shadow-scored; the true outcomes favor the
	// candidate (y=0 against 0.3 vs 0.7).
	ids := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if risks := scoreIDs(t, srv.URL, "m", ids...); risks[0] != 0.7 {
		t.Fatalf("incumbent must keep serving 0.7 while shadowed, got %v", risks[0])
	}
	postLabels(t, srv.URL, "m", "", false, ids...)

	// A version-pinned label grades only that version: the candidate's
	// label count must not move.
	scoreIDs(t, srv.URL, "m", 11)
	fbResp := postLabels(t, srv.URL, "m", incumbent, false, 11)
	if fbResp.Outcomes["matched"] != 1 {
		t.Fatalf("version-pinned label: %v", fbResp.Outcomes)
	}
	resp, err = http.Get(srv.URL + "/shadow")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cs := status.Candidates[0]
	if cs.CandidateLabels != 10 || cs.IncumbentLabels != 11 {
		t.Fatalf("label counts = %d/%d, want the pinned label to grade only the incumbent", cs.CandidateLabels, cs.IncumbentLabels)
	}
	if !(cs.CandidateBrier < cs.IncumbentBrier) {
		t.Fatalf("candidate Brier %v not better than incumbent %v", cs.CandidateBrier, cs.IncumbentBrier)
	}

	// The gate now passes: the candidate commits and serves.
	st, body := postJSON(t, srv.URL+"/promote", "")
	if st != http.StatusOK {
		t.Fatalf("promote: %d %s", st, body)
	}
	var pr PromoteResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Promoted) != 1 || pr.Promoted[0] != "m" {
		t.Fatalf("promoted %v", pr.Promoted)
	}
	if v := modelVersion(t, srv.URL, "m"); v != candidate {
		t.Fatalf("serving version %s after promote, want the candidate %s", v, candidate)
	}
	if risks := scoreIDs(t, srv.URL, "m", 42); risks[0] != 0.3 {
		t.Fatalf("promoted model serves %v, want 0.3", risks[0])
	}
	// The shadow slot is consumed; promoting again has nothing staged.
	if st, body := postJSON(t, srv.URL+"/promote", ""); st != http.StatusConflict || !strings.Contains(string(body), "no shadow candidate staged") {
		t.Fatalf("promote after commit: %d %s", st, body)
	}
	// Late labels for the replaced incumbent's version still ingest — its
	// stats are on the books until they age out.
	fbResp = postLabels(t, srv.URL, "m", incumbent, false, 11)
	if fbResp.Outcomes["duplicate"] != 1 {
		t.Fatalf("late label for the replaced version: %v", fbResp.Outcomes)
	}
}

// brierWindowGauges reads the crashprone_online_brier_window series of
// one model from /metrics, keyed by version.
func brierWindowGauges(t *testing.T, url, model string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	prefix := `crashprone_online_brier_window{model="` + model + `",version="`
	gauges := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		version, value, ok := strings.Cut(rest, `"} `)
		if !ok {
			t.Fatalf("unparsable series %q", line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		gauges[version] = v
	}
	return gauges
}

// getShadow decodes GET /shadow.
func getShadow(t *testing.T, url string) ShadowStatus {
	t.Helper()
	resp, err := http.Get(url + "/shadow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status ShadowStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

// TestShadowCandidateWindowOnMetrics pins that a staged candidate's
// windowed Brier reaches /metrics while the gate judges it: after each
// label batch, crashprone_online_brier_window carries every version the
// batch graded, equal to the windowed Briers GET /shadow reports.
func TestShadowCandidateWindowOnMetrics(t *testing.T) {
	dir := t.TempDir()
	writeLeafModel(t, dir, "m", 6, 2) // incumbent serves 0.7
	srv := newFeedbackServer(t, dir, Config{FeedbackWindow: 256, RollingWindow: 10, MinFeedback: 10, ReloadDir: dir})
	incumbent := modelVersion(t, srv.URL, "m")
	writeLeafModel(t, dir, "m", 2, 6) // candidate serves 0.3
	if status, body := postJSON(t, srv.URL+"/shadow", ""); status != http.StatusOK {
		t.Fatalf("shadow stage: %d %s", status, body)
	}
	candidate := getShadow(t, srv.URL).Candidates[0].CandidateVersion

	check := func(step string) {
		t.Helper()
		cs := getShadow(t, srv.URL).Candidates[0]
		gauges := brierWindowGauges(t, srv.URL, "m")
		for version, want := range map[string]float64{incumbent: cs.IncumbentBrier, candidate: cs.CandidateBrier} {
			got, ok := gauges[version]
			if !ok {
				t.Fatalf("%s: /metrics has no window series for version %s (have %v)", step, version, gauges)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: version %s window gauge %v, /shadow says %v", step, version, got, want)
			}
		}
	}
	ids := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	scoreIDs(t, srv.URL, "m", ids...)
	postLabels(t, srv.URL, "m", "", false, ids...)
	check("after an unpinned batch")

	// A batch pinned to the candidate grades it alone; its gauge follows.
	scoreIDs(t, srv.URL, "m", 11)
	postLabels(t, srv.URL, "m", candidate, true, 11)
	check("after a candidate-pinned batch")
}

// TestShadowLosingCandidateNeverPromotes pins the gate's whole point: a
// candidate that scores worse on live labels is refused by /promote and
// by auto-promotion, and the incumbent keeps serving.
func TestShadowLosingCandidateNeverPromotes(t *testing.T) {
	dir := t.TempDir()
	writeLeafModel(t, dir, "m", 2, 6) // incumbent serves 0.3
	srv := newFeedbackServer(t, dir, Config{
		FeedbackWindow: 256, RollingWindow: 10, MinFeedback: 10,
		ReloadDir: dir, AutoPromote: true,
	})
	incumbent := modelVersion(t, srv.URL, "m")

	writeLeafModel(t, dir, "m", 6, 2) // candidate serves 0.7 — worse under y=0
	if status, body := postJSON(t, srv.URL+"/shadow", ""); status != http.StatusOK {
		t.Fatalf("shadow stage: %d %s", status, body)
	}
	ids := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	scoreIDs(t, srv.URL, "m", ids...)
	resp := postLabels(t, srv.URL, "m", "", false, ids...)
	if len(resp.Promoted) != 0 {
		t.Fatalf("auto-promotion promoted a losing candidate: %v", resp.Promoted)
	}
	if st, body := postJSON(t, srv.URL+"/promote", ""); st != http.StatusConflict || !strings.Contains(string(body), "does not beat") {
		t.Fatalf("promote of a losing candidate: %d %s", st, body)
	}
	if v := modelVersion(t, srv.URL, "m"); v != incumbent {
		t.Fatalf("serving version changed to %s", v)
	}
	if risks := scoreIDs(t, srv.URL, "m", 42); risks[0] != 0.3 {
		t.Fatalf("incumbent no longer serving: risk %v", risks[0])
	}
	// The loser can be dropped; aborting twice stays idempotent.
	for _, wantHad := range []bool{true, false} {
		st, body := postJSON(t, srv.URL+"/shadow/abort", "")
		if st != http.StatusOK || !strings.Contains(string(body), fmt.Sprintf(`"aborted":%v`, wantHad)) {
			t.Fatalf("shadow abort: %d %s, want aborted=%v", st, body, wantHad)
		}
	}
}
