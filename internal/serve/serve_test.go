package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/core"
	"roadcrash/internal/data"
	"roadcrash/internal/geo"
	"roadcrash/internal/mining/tree"
	"roadcrash/internal/rng"
	"roadcrash/internal/roadnet"
)

// fixture trains a small decision tree, persists it to dir and returns
// the artifact plus its in-process model for score comparison.
func fixture(t testing.TB, dir string) (*artifact.Artifact, *tree.Tree) {
	t.Helper()
	r := rng.New(21)
	b := data.NewBuilder("net").
		Interval("aadt").
		Nominal("surface", "seal", "gravel").
		Binary("crash_prone")
	for i := 0; i < 400; i++ {
		aadt := 500 + 4000*r.Float64()
		surface := float64(r.Intn(2))
		label := 0.0
		if aadt > 2400 || (surface == 1 && aadt > 1500) {
			label = 1
		}
		b.Row(aadt, surface, label)
	}
	ds := b.Build()
	cfg := tree.DefaultConfig()
	cfg.MinLeaf = 10
	cfg.Features = []int{0, 1}
	dt, err := tree.Grow(ds, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := artifact.New("cp-8-tree", artifact.KindDecisionTree, dt, ds.Attrs(), 8, 21, "crash_prone", map[string]float64{"mcpv": 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.WriteFile(filepath.Join(dir, "cp-8-tree.json"), a); err != nil {
		t.Fatal(err)
	}
	return a, dt
}

func newTestServer(t *testing.T) (*httptest.Server, *tree.Tree) {
	t.Helper()
	dir := t.TempDir()
	_, dt := fixture(t, dir)
	reg := NewRegistry()
	names, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "cp-8-tree" {
		t.Fatalf("loaded %v", names)
	}
	srv := httptest.NewServer(NewServer(reg))
	t.Cleanup(srv.Close)
	return srv, dt
}

func postScore(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/score", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestScoreHappyPath(t *testing.T) {
	srv, dt := newTestServer(t)
	segments := []map[string]any{
		{"aadt": 3000.0, "surface": "gravel"},
		{"aadt": 800.0, "surface": "seal"},
		{"aadt": 1900.0}, // surface missing
	}
	resp, body := postScore(t, srv.URL, ScoreRequest{Model: "cp-8-tree", Segments: segments})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if sr.Model != "cp-8-tree" || sr.Kind != artifact.KindDecisionTree || len(sr.Scores) != 3 {
		t.Fatalf("response = %+v", sr)
	}
	// The service must agree exactly with in-process prediction.
	want := []float64{
		dt.PredictProb([]float64{3000, 1, data.Missing}),
		dt.PredictProb([]float64{800, 0, data.Missing}),
		dt.PredictProb([]float64{1900, data.Missing, data.Missing}),
	}
	for i, s := range sr.Scores {
		if s.Risk != want[i] {
			t.Errorf("segment %d: served %v, in-process %v", i, s.Risk, want[i])
		}
		if s.CrashProne != (want[i] >= 0.5) {
			t.Errorf("segment %d: crash_prone flag inconsistent", i)
		}
	}
}

func TestScoreErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	seg := []map[string]any{{"aadt": 100.0}}

	resp, _ := postScore(t, srv.URL, ScoreRequest{Model: "no-such-model", Segments: seg})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status = %d, want 404", resp.StatusCode)
	}

	for name, body := range map[string]any{
		"missing model name": ScoreRequest{Segments: seg},
		"empty batch":        ScoreRequest{Model: "cp-8-tree"},
		"unknown attribute":  ScoreRequest{Model: "cp-8-tree", Segments: []map[string]any{{"aatd": 1.0}}},
		"unknown field":      map[string]any{"model": "cp-8-tree", "segmnets": seg},
	} {
		resp, rb := postScore(t, srv.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", name, resp.StatusCode, rb)
		}
		var er errorResponse
		if err := json.Unmarshal(rb, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", name, rb)
		}
	}

	// Malformed (non-JSON) body.
	resp2, err := http.Post(srv.URL+"/score", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d, want 400", resp2.StatusCode)
	}

	// Wrong method.
	resp3, err := http.Get(srv.URL + "/score")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /score: status = %d, want 405", resp3.StatusCode)
	}
}

func TestModelsAndHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/models")
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
	if len(list.Models) != 1 || list.Models[0].Name != "cp-8-tree" || list.Models[0].Threshold != 8 {
		t.Fatalf("models = %+v", list.Models)
	}
	if list.Models[0].Metrics["mcpv"] != 0.8 {
		t.Fatalf("metrics = %v", list.Models[0].Metrics)
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var status struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Status != "ok" || status.Models != 1 {
		t.Fatalf("healthz = %+v", status)
	}
}

// TestLoadedModelDropsPayload pins what a loaded model keeps of its
// artifact: the header without the payload bytes, which are decoded and
// hashed at load and never read again. The caller's artifact keeps its
// payload, Version is still the hash of the whole artifact, and /models
// reports the header as before.
func TestLoadedModelDropsPayload(t *testing.T) {
	dir := t.TempDir()
	a, _ := fixture(t, dir)
	payload := bytes.Clone(a.Payload)
	var enc bytes.Buffer
	if err := a.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc.Bytes())
	version := hex.EncodeToString(sum[:6])

	reg := NewRegistry()
	m, err := reg.Register(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.Artifact.Payload != nil {
		t.Fatalf("registered model holds %d payload bytes", len(m.Artifact.Payload))
	}
	if !bytes.Equal(a.Payload, payload) {
		t.Fatal("registering changed the caller's artifact payload")
	}
	if m.Version != version {
		t.Fatalf("version %s, want the hash of the whole artifact %s", m.Version, version)
	}
	fromDir := NewRegistry()
	if _, err := fromDir.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	dm, _ := fromDir.Get(a.Name)
	if dm.Artifact.Payload != nil || dm.Version != version {
		t.Fatalf("LoadDir model holds %d payload bytes, version %s (want %s)",
			len(dm.Artifact.Payload), dm.Version, version)
	}

	srv := httptest.NewServer(NewServer(reg))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/models")
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
	want := ModelInfo{
		Name: a.Name, Kind: a.Kind, Version: version, Threshold: a.Threshold, Seed: a.Seed,
		Schema: []string{"aadt", "surface", "crash_prone"}, Target: a.Target, Metrics: a.Metrics,
	}
	if len(list.Models) != 1 || !reflect.DeepEqual(list.Models[0], want) {
		t.Fatalf("/models = %+v, want %+v", list.Models, want)
	}
}

// TestRequestSchema pins each model's one request schema: segment_id is
// appended as an interval join column when the training schema lacks
// it, and a training schema that names it keeps its kind, joining on it
// only when that kind is numeric.
func TestRequestSchema(t *testing.T) {
	aadt := data.Attribute{Name: "aadt", Kind: data.Interval}
	interval := data.Attribute{Name: segmentIDAttr, Kind: data.Interval}
	nominal := data.Attribute{Name: segmentIDAttr, Kind: data.Nominal, Levels: []string{"s1"}}
	for _, tc := range []struct {
		name   string
		train  []data.Attribute
		want   []data.Attribute
		segCol int
	}{
		{"absent", []data.Attribute{aadt}, []data.Attribute{aadt, interval}, 1},
		{"interval", []data.Attribute{interval, aadt}, []data.Attribute{interval, aadt}, 0},
		{"nominal", []data.Attribute{aadt, nominal}, []data.Attribute{aadt, nominal}, -1},
	} {
		schema, segCol := requestSchema(tc.train)
		if !reflect.DeepEqual(schema, tc.want) || segCol != tc.segCol {
			t.Errorf("%s: schema %v, join column %d; want %v, %d", tc.name, schema, segCol, tc.want, tc.segCol)
		}
	}
}

// TestConcurrentScoring hammers one registry from many goroutines; run
// with -race this pins the concurrency safety of registry reads and
// decoded-model scoring.
func TestConcurrentScoring(t *testing.T) {
	srv, dt := newTestServer(t)
	want := dt.PredictProb([]float64{3000, 1, data.Missing})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				raw, _ := json.Marshal(ScoreRequest{
					Model:    "cp-8-tree",
					Segments: []map[string]any{{"aadt": 3000.0, "surface": "gravel"}},
				})
				resp, err := http.Post(srv.URL+"/score", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				var sr ScoreResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if len(sr.Scores) != 1 || sr.Scores[0].Risk != want {
					errs <- fmt.Errorf("goroutine %d: got %+v, want risk %v", g, sr.Scores, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRegistryRollover exercises concurrent re-registration against reads.
func TestRegistryRollover(t *testing.T) {
	dir := t.TempDir()
	a, _ := fixture(t, dir)
	reg := NewRegistry()
	if _, err := reg.Register(a); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if _, err := reg.Register(a); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				m, ok := reg.Get("cp-8-tree")
				if !ok {
					t.Error("model vanished during rollover")
					return
				}
				m.Scorer.PredictProb([]float64{1000, 0, data.Missing})
				reg.Models()
			}
		}()
	}
	wg.Wait()
}

// postStream sends NDJSON lines to /score/stream and splits the NDJSON
// response into scores and the trailer.
func postStream(t *testing.T, url, model, body string) (*http.Response, []StreamScore, StreamTrailer) {
	t.Helper()
	resp, err := http.Post(url+"/score/stream?model="+model, "application/x-ndjson", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var scores []StreamScore
	var trailer StreamTrailer
	sawTrailer := false
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var raw map[string]any
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		if sawTrailer {
			t.Fatalf("line after the trailer: %v", raw)
		}
		if _, isTrailer := raw["done"]; isTrailer {
			b, _ := json.Marshal(raw)
			if err := json.Unmarshal(b, &trailer); err != nil {
				t.Fatal(err)
			}
			sawTrailer = true
			continue
		}
		b, _ := json.Marshal(raw)
		var s StreamScore
		if err := json.Unmarshal(b, &s); err != nil {
			t.Fatal(err)
		}
		scores = append(scores, s)
	}
	if resp.StatusCode == http.StatusOK && !sawTrailer {
		t.Fatal("stream ended without a trailer")
	}
	return resp, scores, trailer
}

// TestScoreStreamMatchesBatch pins the streaming endpoint to the batch
// endpoint: the same rows through POST /score/stream and POST /score must
// score identically, and the stream must close with a done trailer.
func TestScoreStreamMatchesBatch(t *testing.T) {
	srv, _ := newTestServer(t)
	segments := []map[string]any{
		{"aadt": 3000.0, "surface": "gravel"},
		{"aadt": 800.0, "surface": "seal"},
		{"aadt": 1900.0},
		{"aadt": 2600.0, "surface": "granite"}, // unseen level -> missing
	}
	var ndjson bytes.Buffer
	for _, seg := range segments {
		raw, err := json.Marshal(seg)
		if err != nil {
			t.Fatal(err)
		}
		ndjson.Write(raw)
		ndjson.WriteByte('\n')
	}
	resp, scores, trailer := postStream(t, srv.URL, "cp-8-tree", ndjson.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	if !trailer.Done || trailer.Rows != len(segments) || trailer.Error != "" {
		t.Fatalf("trailer = %+v", trailer)
	}

	bresp, body := postScore(t, srv.URL, ScoreRequest{Model: "cp-8-tree", Segments: segments})
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", bresp.StatusCode, body)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(sr.Scores) {
		t.Fatalf("stream scored %d rows, batch %d", len(scores), len(sr.Scores))
	}
	for i := range scores {
		if scores[i].Risk != sr.Scores[i].Risk || scores[i].CrashProne != sr.Scores[i].CrashProne {
			t.Errorf("row %d: stream %+v, batch %+v", i, scores[i], sr.Scores[i])
		}
	}
}

// TestScoreStreamNoBatchCap sends streams of several sizes, including
// more rows than the batch endpoint's MaxBatch. The sizes are chosen to
// straddle net/http's body-handling regimes: a multi-chunk stream with
// under 256KiB unread at the first flush (3000 rows) only survives
// because streamScores enables full-duplex mode — without it the server
// discards and closes the unread body at the first response write.
func TestScoreStreamNoBatchCap(t *testing.T) {
	srv, dt := newTestServer(t)
	want := dt.PredictProb([]float64{500, 0, data.Missing})
	for _, n := range []int{3000, MaxBatch + 500} {
		var ndjson bytes.Buffer
		for i := 0; i < n; i++ {
			fmt.Fprintf(&ndjson, "{\"aadt\": %d, \"surface\": \"seal\"}\n", 500+i%4000)
		}
		resp, scores, trailer := postStream(t, srv.URL, "cp-8-tree", ndjson.String())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d: status = %d", n, resp.StatusCode)
		}
		if !trailer.Done || trailer.Rows != n || len(scores) != n {
			t.Fatalf("n=%d: trailer = %+v with %d scores", n, trailer, len(scores))
		}
		if scores[0].Risk != want {
			t.Fatalf("n=%d: row 0 risk %v, in-process %v", n, scores[0].Risk, want)
		}
	}
}

func TestScoreStreamErrors(t *testing.T) {
	srv, _ := newTestServer(t)

	// Pre-stream failures report proper HTTP statuses.
	resp, err := http.Post(srv.URL+"/score/stream", "application/x-ndjson", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing model: status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/score/stream?model=nope", "application/x-ndjson", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/score/stream?model=cp-8-tree")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status = %d, want 405", resp.StatusCode)
	}

	// Mid-stream failures surface in the trailer: the trailer is not done
	// and names the row (chunks before the failing one are already scored
	// and flushed).
	in := "{\"aadt\": 900}\n{\"aatd\": 1}\n{\"aadt\": 1000}\n"
	sresp, scores, trailer := postStream(t, srv.URL, "cp-8-tree", in)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", sresp.StatusCode)
	}
	if trailer.Done || trailer.Error == "" {
		t.Fatalf("trailer = %+v, want a row error", trailer)
	}
	if len(scores) > 1 {
		t.Fatalf("scored %d rows past the bad line", len(scores))
	}

	// An empty stream is a valid zero-row stream.
	_, scores, trailer = postStream(t, srv.URL, "cp-8-tree", "")
	if !trailer.Done || trailer.Rows != 0 || len(scores) != 0 {
		t.Fatalf("empty stream trailer = %+v, %d scores", trailer, len(scores))
	}
}

func TestLoadDirErrors(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir should error")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadDir(dir); err == nil {
		t.Error("corrupt artifact should fail the load")
	}

	// An artifact with garbage after it fails the load, naming its file.
	trailing := t.TempDir()
	fixture(t, trailing)
	f, err := os.OpenFile(filepath.Join(trailing, "cp-8-tree.json"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage{"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadDir(trailing); err == nil || !strings.Contains(err.Error(), "cp-8-tree.json") {
		t.Errorf("artifact with trailing data: %v, want an error naming cp-8-tree.json", err)
	}

	// Two files carrying the same artifact name must not silently shadow
	// each other.
	dup := t.TempDir()
	fixture(t, dup)
	src, err := os.ReadFile(filepath.Join(dup, "cp-8-tree.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dup, "cp-8-tree-rollback.json"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry().LoadDir(dup); err == nil {
		t.Error("duplicate model names across files should fail the load")
	}

	// The files decode concurrently, but the error is the first one in
	// file-name order: a duplicate name in a.json and b.json wins over a
	// corrupt c.json, and of two corrupt files the first is named. Each
	// directory loads repeatedly, so completion orders vary.
	for _, tc := range []struct {
		files map[string][]byte
		want  []string
		not   string
	}{
		{map[string][]byte{"a.json": src, "b.json": src, "c.json": []byte("{")}, []string{"a.json", "b.json"}, "c.json"},
		{map[string][]byte{"a.json": src, "b.json": append(src[:len(src):len(src)], "x"...), "c.json": []byte("{")}, []string{"b.json"}, "c.json"},
	} {
		dir := t.TempDir()
		for name, b := range tc.files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			_, err := NewRegistry().LoadDir(dir)
			if err == nil {
				t.Fatalf("%v: load succeeded", tc.want)
			}
			for _, name := range tc.want {
				if !strings.Contains(err.Error(), name) {
					t.Fatalf("load %d: %v, want an error naming %v", i, err, tc.want)
				}
			}
			if strings.Contains(err.Error(), tc.not) {
				t.Fatalf("load %d: %v names %s, a later file", i, err, tc.not)
			}
		}
	}
}

// TestRegistryLoadFile pins single-file registration: the loaded model
// scores through its compiled form bit-identically to the in-process
// tree, and a missing or corrupt file is an error that registers nothing.
func TestRegistryLoadFile(t *testing.T) {
	dir := t.TempDir()
	_, dt := fixture(t, dir)
	reg := NewRegistry()
	m, err := reg.LoadFile(filepath.Join(dir, "cp-8-tree.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reg.Get("cp-8-tree"); !ok || got != m {
		t.Fatalf("Get after LoadFile = %v, %v", got, ok)
	}
	for _, row := range [][]float64{{2000, 1, data.Missing}, {900, 0, data.Missing}, {data.Missing, data.Missing, data.Missing}} {
		if got, want := m.Scorer.PredictProb(row), dt.PredictProb(row); got != want {
			t.Errorf("row %v: loaded model scores %v, in-process tree %v", row, got, want)
		}
	}
	if _, err := reg.LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("loading a missing file succeeded")
	}
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadFile(junk); err == nil {
		t.Error("loading a corrupt file succeeded")
	}
	if n := len(reg.Models()); n != 1 {
		t.Errorf("registry holds %d models after two failed loads, want 1", n)
	}
}

// TestVersionIsFileHash pins the version rule: a model's version is the
// hex of the first 6 bytes of the SHA-256 of the bytes it was loaded
// from. LoadDir and LoadFile hash the file and Register hashes the bytes
// WriteFile writes, so all three agree on a file WriteFile wrote, while a
// compact rendering of the same artifact loads and scores bit-identically
// under a version of its own. A directory of several artifacts decodes
// them concurrently, and each model it loads has the version and the
// risk bits that LoadFile gives the same file.
func TestVersionIsFileHash(t *testing.T) {
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:6])
	}
	probes := map[string][][]float64{
		"cp-8-tree": {{2000, 1, data.Missing}, {900, 0, data.Missing}, {1600, 1, data.Missing}, {data.Missing, data.Missing, data.Missing}},
		"grid-kde":  {{1.5, 1.5}, {10, 20}, {roadnet.ExtentKm / 2, roadnet.ExtentKm / 3}, {-1, 5}, {data.Missing, data.Missing}},
	}
	dir := t.TempDir()
	a, _ := fixture(t, dir)
	two := t.TempDir()
	fixture(t, two)
	writeKDE(t, two)
	for _, d := range []string{dir, two} {
		reg := NewRegistry()
		if _, err := reg.LoadDir(d); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(d, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != reg.Len() {
			t.Fatalf("%s: %d files loaded as %d models", d, len(files), reg.Len())
		}
		for _, path := range files {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fromFile, err := NewRegistry().LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := fromFile.Artifact.Name
			fromDir, ok := reg.Get(name)
			if !ok {
				t.Fatalf("%s: LoadDir did not load %s", d, name)
			}
			if fromDir.Version != hash(raw) || fromFile.Version != hash(raw) {
				t.Errorf("%s: LoadDir version %s, LoadFile %s, want %s, the hash of the file's bytes",
					name, fromDir.Version, fromFile.Version, hash(raw))
			}
			if len(probes[name]) == 0 {
				t.Fatalf("no probe rows for %s", name)
			}
			for _, row := range probes[name] {
				if got, want := fromDir.Scorer.PredictProb(row), fromFile.Scorer.PredictProb(row); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s row %v: LoadDir model scores %v, LoadFile %v", name, row, got, want)
				}
			}
		}
	}

	path := filepath.Join(dir, "cp-8-tree.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := hash(raw)
	registered, err := NewRegistry().Register(a)
	if err != nil {
		t.Fatal(err)
	}
	if registered.Version != want {
		t.Errorf("Register: version %s, want %s, the hash of the file's bytes", registered.Version, want)
	}
	fromFile, err := NewRegistry().LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		t.Fatal(err)
	}
	cdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(cdir, "cp-8-tree.json"), compact.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	creg := NewRegistry()
	if _, err := creg.LoadDir(cdir); err != nil {
		t.Fatalf("compact rendering: %v", err)
	}
	cm, _ := creg.Get(a.Name)
	if cm.Version == want || cm.Version != hash(compact.Bytes()) {
		t.Errorf("compact rendering: version %s, want %s, its own bytes' hash, not %s",
			cm.Version, hash(compact.Bytes()), want)
	}
	for _, row := range probes[a.Name] {
		if got, want := cm.Scorer.PredictProb(row), fromFile.Scorer.PredictProb(row); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("row %v: compact rendering scores %v, the written file %v", row, got, want)
		}
	}
}

// writeKDE writes a 32×32 KDE hotspot surface, fitted on a scenario
// stream, to dir as grid-kde.json.
func writeKDE(t testing.TB, dir string) {
	t.Helper()
	kde, err := artifact.New("grid-kde", artifact.KindHotspot, fitSurface(t, geo.MethodKDE, 1), geo.Schema(), 0, 42, "cell_label", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.WriteFile(filepath.Join(dir, "grid-kde.json"), kde); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLoadDir measures one LoadDir of a directory holding the two
// artifacts the repository benchmark serves, both written by
// artifact.WriteFile: the small-scale study's phase-2 CP-8 decision tree,
// which `crashprone export -scale small -threshold 8` writes, and a 32×32
// KDE hotspot surface. That load is each replica's share of the
// benchmark's setup_s. Its files decode concurrently: run it once with
// -cpu 1 to time the load inline and once with -cpu 2 for two workers.
// Give -cpu one value per run, because go1.24 runs a b.Loop benchmark's
// whole loop before it applies the first value of a -cpu list, at the
// list's last value.
func BenchmarkLoadDir(b *testing.B) {
	dir := b.TempDir()
	study, err := core.NewStudy(core.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	a, err := study.ExportArtifact(core.ExportOptions{Phase: 2, Threshold: 8, Learner: "tree"})
	if err != nil {
		b.Fatal(err)
	}
	if err := artifact.WriteFile(filepath.Join(dir, a.Name+".json"), a); err != nil {
		b.Fatal(err)
	}
	writeKDE(b, dir)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewRegistry().LoadDir(dir); err != nil {
			b.Fatal(err)
		}
	}
}
