package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"roadcrash/internal/artifact"
	"roadcrash/internal/core"
	"roadcrash/internal/geo"
	"roadcrash/internal/roadnet"
	"roadcrash/internal/serve"
)

// testModels exports the two served models in-process, as the crashprone
// CLI does (the KDE surface from a smaller fit scenario), and writes them
// to a model directory.
func testModels(t *testing.T) (dir string, tree *artifact.Artifact, kde *geo.Model) {
	t.Helper()
	study, err := core.NewStudy(core.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tree, err = study.ExportArtifact(core.ExportOptions{Phase: 2, Threshold: treeThresh, Learner: "tree"})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Name != treeModel {
		t.Fatalf("exported %q, the benchmark serves %q", tree.Name, treeModel)
	}
	stream, err := roadnet.NewScenarioStream(roadnet.DefaultScenarioOptions(8000))
	if err != nil {
		t.Fatal(err)
	}
	obs, err := geo.CollectSegments(stream)
	if err != nil {
		t.Fatal(err)
	}
	g, err := geo.NewGrid(0, 0, roadnet.ExtentKm, roadnet.ExtentKm, kdeCellKm)
	if err != nil {
		t.Fatal(err)
	}
	kde, err = geo.FitKDE(g, obs, 1, geo.DefaultKDEOptions())
	if err != nil {
		t.Fatal(err)
	}
	ka, err := artifact.New(kdeModel, artifact.KindHotspot, kde, geo.Schema(), 0, 1, "cell_label", nil)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	for name, a := range map[string]*artifact.Artifact{"tree.json": tree, "kde.json": ka} {
		if err := artifact.WriteFile(filepath.Join(dir, name), a); err != nil {
			t.Fatal(err)
		}
	}
	return dir, tree, kde
}

func workloadNamed(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// One seed always gives byte-identical bodies; another seed gives others.
func TestInputsDeterministicBySeed(t *testing.T) {
	_, tree, kde := testModels(t)
	for _, name := range []string{"score-routed", "stream-bulk", "score-feedback"} {
		w := workloadNamed(t, name)
		w.bodies = 3
		a, err := makeInputs(w, 7, tree, kde)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w, 7, tree, kde)
		c, _ := makeInputs(w, 8, tree, kde)
		for i := range a.bodies {
			if !bytes.Equal(a.bodies[i], b.bodies[i]) {
				t.Errorf("%s: seed 7 rendered body %d differently twice", name, i)
			}
			if bytes.Equal(a.bodies[i], c.bodies[i]) {
				t.Errorf("%s: seeds 7 and 8 rendered the same body %d", name, i)
			}
		}
		for i := range a.labels {
			if !bytes.Equal(a.labels[i], b.labels[i]) {
				t.Errorf("%s: seed 7 rendered labels %d differently twice", name, i)
			}
		}
	}
}

// serveOnce answers one request from a fresh server over the test models.
func serveOnce(t *testing.T, dir string, cfg serve.Config, method, path string, body []byte) []byte {
	t.Helper()
	reg := serve.NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	serve.New(reg, cfg).ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// flipFirstRisk returns answer with the first risk's last mantissa bit
// flipped, or nil when answer carries no risk.
func flipFirstRisk(answer []byte) []byte {
	v, end, err := numberAfter(answer, 0, keyRisk)
	if err != nil {
		return nil
	}
	start := bytes.Index(answer, keyRisk) + len(keyRisk)
	flipped := strconv.AppendFloat(nil, math.Float64frombits(math.Float64bits(v)^1), 'g', -1, 64)
	return slices.Concat(answer[:start], flipped, answer[end:])
}

// A served answer passes its check; a flipped risk bit, a missing or failed
// trailer and a wrong or misplaced cell each fail it.
func TestChecksRejectCorruptAnswers(t *testing.T) {
	dir, tree, kde := testModels(t)

	w := workloadNamed(t, "score-routed")
	w.bodies = 1
	in, err := makeInputs(w, 1, tree, kde)
	if err != nil {
		t.Fatal(err)
	}
	score := serveOnce(t, dir, serve.Config{}, http.MethodPost, w.path, in.bodies[0])
	if err := checkScore(score, in.refs[0]); err != nil {
		t.Fatalf("served /score answer fails its check: %v", err)
	}
	if checkScore(flipFirstRisk(score), in.refs[0]) == nil {
		t.Error("a flipped risk bit passed the /score check")
	}
	if checkScore(score, in.refs[0][1:]) == nil {
		t.Error("an answer with an extra score passed the /score check")
	}

	w = workloadNamed(t, "stream-bulk")
	w.bodies = 1
	in, err = makeInputs(w, 1, tree, kde)
	if err != nil {
		t.Fatal(err)
	}
	stream := serveOnce(t, dir, serve.Config{}, http.MethodPost, w.path, in.bodies[0])
	if err := checkStream(stream, in.refs[0]); err != nil {
		t.Fatalf("served /score/stream answer fails its check: %v", err)
	}
	cut := bytes.LastIndex(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n")) + 1
	if checkStream(stream[:cut], in.refs[0]) == nil {
		t.Error("a stream without its trailer passed the check")
	}
	failed := append(slices.Clone(stream[:cut]), `{"done":false,"rows":4096,"error":"replica died"}`+"\n"...)
	if checkStream(failed, in.refs[0]) == nil {
		t.Error("a stream with a failed trailer passed the check")
	}
	if checkStream(flipFirstRisk(stream), in.refs[0]) == nil {
		t.Error("a flipped stream risk bit passed the check")
	}

	cells := kde.TopCells(hotspotK)
	hot := serveOnce(t, dir, serve.Config{}, http.MethodGet, workloadNamed(t, "hotspots-topk").path, nil)
	if err := checkCells(hot, cells); err != nil {
		t.Fatalf("served /hotspots answer fails its check: %v", err)
	}
	wrong := slices.Clone(cells)
	wrong[3].Cell++
	if checkCells(hot, wrong) == nil {
		t.Error("a wrong cell index passed the /hotspots check")
	}
	wrong = slices.Clone(cells)
	wrong[1], wrong[2] = wrong[2], wrong[1]
	if checkCells(hot, wrong) == nil {
		t.Error("swapped cells passed the /hotspots check")
	}
}

// The client counts an answer that differs from the reference as failed.
func TestClientCountsWrongAnswersAsFailed(t *testing.T) {
	dir, tree, kde := testModels(t)
	w := workloadNamed(t, "score-routed")
	w.bodies = 2
	in, err := makeInputs(w, 1, tree, kde)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg, serve.Config{})
	corrupt := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		rw.Write(flipFirstRisk(rec.Body.Bytes()))
	}))
	defer corrupt.Close()

	c := newClient(w, in, nil, 1024)
	c.target(corrupt.URL)
	defer c.close()
	p := c.run(100 * time.Millisecond)
	if p.attempted == 0 || p.failed != p.attempted || p.primary != 0 {
		t.Fatalf("attempted %d, failed %d, succeeded %d: want every corrupted answer failed", p.attempted, p.failed, p.primary)
	}
}

// Every workload reports exactly BENCHMARK.json's end-to-end metrics in a
// measured run and its per-layer metrics in a traced run, with their units,
// and answers every request correctly.
func TestRunsReportBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(names), len(workloads))
	}

	dir, tree, kde := testModels(t)
	o := options{seed: 3, seconds: 200 * time.Millisecond, out: t.TempDir()}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o.trace = trace
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			in, err := makeInputs(w, o.seed, tree, kde)
			if err != nil {
				t.Fatal(err)
			}
			res := &result{workload: w.name, metrics: map[string]value{}, extra: map[string]any{}}
			if trace {
				err = traced(w, o, dir, in, res)
			} else {
				err = measured(w, o, dir, in, kde, res)
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, trace, res.failed, res.attempted, res.errs)
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: reports %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
