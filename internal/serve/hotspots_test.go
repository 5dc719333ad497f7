package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/geo"
	"roadcrash/internal/roadnet"
)

// fitSurface fits a hotspot surface on the training half of a
// 20000-row scenario stream, exactly as the offline pipeline does: KDE,
// or persistence with its counts scaled by scale.
func fitSurface(t testing.TB, method string, scale float64) *geo.Model {
	t.Helper()
	opt := roadnet.DefaultScenarioOptions(20000)
	opt.Seed = 42
	stream, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := geo.CollectSegments(stream)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := geo.SplitObservations(obs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := geo.NewGrid(0, 0, roadnet.ExtentKm, roadnet.ExtentKm, 3)
	if err != nil {
		t.Fatal(err)
	}
	var m *geo.Model
	if method == geo.MethodKDE {
		m, err = geo.FitKDE(g, train, scale, geo.DefaultKDEOptions())
	} else {
		m, err = geo.FitPersistence(g, train, scale)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// registerSurface registers m as a hotspot artifact under name. The
// registry decodes its own copy of the surface from the artifact, so
// the served model and m share nothing.
func registerSurface(t testing.TB, reg *Registry, name string, m *geo.Model) {
	t.Helper()
	a, err := artifact.New(name, artifact.KindHotspot, m, geo.Schema(), 0, 42, "cell_label", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(a); err != nil {
		t.Fatal(err)
	}
}

// hotspotFixture fits a KDE surface and returns the fitted model plus a
// server with its artifact registered as grid-kde.
func hotspotFixture(t *testing.T) (*httptest.Server, *geo.Model, *Registry) {
	t.Helper()
	m := fitSurface(t, geo.MethodKDE, 1)
	reg := NewRegistry()
	registerSurface(t, reg, "grid-kde", m)
	srv := httptest.NewServer(NewServer(reg))
	t.Cleanup(srv.Close)
	return srv, m, reg
}

// servedCells decodes the 200 /hotspots answer to query and requires
// it to equal want cell for cell and bit for bit.
func servedCells(t *testing.T, url, query string, want []geo.CellRisk) HotspotsResponse {
	t.Helper()
	resp, body := getHotspots(t, url, query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", query, resp.StatusCode, body)
	}
	var hr HotspotsResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.K != len(want) || len(hr.Cells) != len(want) {
		t.Fatalf("%s: served %d cells, offline %d", query, len(hr.Cells), len(want))
	}
	for i := range want {
		got := hr.Cells[i]
		if got.Cell != want[i].Cell || got.XKm != want[i].XKm || got.YKm != want[i].YKm ||
			math.Float64bits(got.Risk) != math.Float64bits(want[i].Risk) {
			t.Fatalf("%s cell %d: served %+v, offline %+v", query, i, got, want[i])
		}
	}
	return hr
}

func getHotspots(t *testing.T, url, query string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url + "/hotspots" + query)
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

// TestHotspotsMatchesOfflineEval is the differential deliverable: the
// served top-k ranking equals an in-process TopCells on the same fitted
// surface, cell for cell and bit for bit. The surfaces are the KDE fit, a
// persistence fit scaled until many cells' risk is exactly 1, so the
// order among them comes from the expected crash count alone, and that
// saturated surface without its rate, as an artifact written before the
// rate was stored decodes, which ranks on risk.
func TestHotspotsMatchesOfflineEval(t *testing.T) {
	saturated := fitSurface(t, geo.MethodPersistence, 40)
	legacy := &geo.Model{Grid: saturated.Grid, Method: saturated.Method, Risk: saturated.Risk}
	ones := 0
	for _, r := range saturated.Risk {
		if r == 1 {
			ones++
		}
	}
	if ones < 64 {
		t.Fatalf("only %d saturated cells; the fixture no longer tests the rate ranking", ones)
	}
	if slices.Equal(saturated.TopCells(64), legacy.TopCells(64)) {
		t.Fatal("rate and risk rank the saturated surface alike; the fixture tests nothing")
	}
	reg := NewRegistry()
	surfaces := map[string]*geo.Model{
		"grid-kde":        fitSurface(t, geo.MethodKDE, 1),
		"grid-saturated":  saturated,
		"grid-risk-order": legacy,
	}
	for name, m := range surfaces {
		registerSurface(t, reg, name, m)
	}
	srv := httptest.NewServer(NewServer(reg))
	t.Cleanup(srv.Close)
	for name, m := range surfaces {
		for _, k := range []int{1, 10, 64, 1 << 20} {
			hr := servedCells(t, srv.URL, "?model="+name+"&k="+strconv.Itoa(k), m.TopCells(k))
			if hr.Model != name || hr.Kind != artifact.KindHotspot || hr.Method != m.Method {
				t.Fatalf("%s: header = %q/%q/%q", name, hr.Model, hr.Kind, hr.Method)
			}
			if hr.Grid != m.Grid {
				t.Fatalf("%s: served grid %+v, fitted %+v", name, hr.Grid, m.Grid)
			}
		}
	}
}

// TestHotspotsConcurrentFirstUse sends the first requests to a freshly
// registered surface from 8 goroutines at once, so they race to rank its
// cells: every answer must still equal the offline TopCells. CI runs it
// under -race.
func TestHotspotsConcurrentFirstUse(t *testing.T) {
	srv, m, _ := hotspotFixture(t)
	want := m.TopCells(64)
	start := make(chan struct{})
	bodies := make([][]byte, 8)
	var wg sync.WaitGroup
	for g := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Get(srv.URL + "/hotspots?model=grid-kde&k=64")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("goroutine %d: status %d", g, resp.StatusCode)
				return
			}
			if bodies[g], err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	for g, body := range bodies {
		if body == nil {
			continue // reported by its goroutine
		}
		var hr HotspotsResponse
		if err := json.Unmarshal(body, &hr); err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if !slices.Equal(hr.Cells, want) {
			t.Fatalf("goroutine %d served %v, offline %v", g, hr.Cells, want)
		}
	}
}

// BenchmarkHotspots measures one GET /hotspots of 64 cells through the
// handler, as perfbench's hotspots-topk workload sends it, on the KDE
// surface: the cell ranking (once) and the JSON encode.
func BenchmarkHotspots(b *testing.B) {
	reg := NewRegistry()
	registerSurface(b, reg, "grid-kde", fitSurface(b, geo.MethodKDE, 1))
	srv := NewServer(reg)
	req := httptest.NewRequest(http.MethodGet, "/hotspots?model=grid-kde&k=64", nil)
	b.ReportAllocs()
	for b.Loop() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

func TestHotspotsDefaultsAndSingleModelInference(t *testing.T) {
	srv, m, _ := hotspotFixture(t)
	// No model and no k: the single hotspot model is inferred and k
	// defaults.
	resp, body := getHotspots(t, srv.URL, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var hr HotspotsResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Model != "grid-kde" || hr.K != defaultHotspotK || len(hr.Cells) != defaultHotspotK {
		t.Fatalf("inferred model %q with %d cells", hr.Model, len(hr.Cells))
	}
	if hr.Cells[0].Risk != m.TopCells(1)[0].Risk {
		t.Fatal("default-k ranking disagrees with offline")
	}
}

func TestHotspotsErrors(t *testing.T) {
	srv, _, _ := hotspotFixture(t)
	cases := []struct {
		query string
		code  int
	}{
		{"?model=ghost", http.StatusNotFound},
		{"?k=0", http.StatusBadRequest},
		{"?k=-3", http.StatusBadRequest},
		{"?k=ten", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := getHotspots(t, srv.URL, c.query)
		if resp.StatusCode != c.code {
			t.Errorf("%q: status %d, want %d (%s)", c.query, resp.StatusCode, c.code, body)
		}
	}
	// POST is refused.
	resp, err := http.Post(srv.URL+"/hotspots", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d", resp.StatusCode)
	}
}

func TestHotspotsRejectsNonHotspotModel(t *testing.T) {
	// A server with only a tree model: /hotspots by name is a kind error,
	// and without a name there is nothing to infer.
	srv, _ := newTestServer(t)
	resp, body := getHotspots(t, srv.URL, "?model=cp-8-tree")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp, _ = getHotspots(t, srv.URL, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-model status %d", resp.StatusCode)
	}
}

func TestHotspotsMetricsInstrumented(t *testing.T) {
	srv, _, _ := hotspotFixture(t)
	getHotspots(t, srv.URL, "?k=5")
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`crashprone_requests_total{endpoint="hotspots",code="200"}`,
		`crashprone_model_requests_total{model="grid-kde",endpoint="hotspots"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

func TestHotspotsAmbiguousWithoutModelParam(t *testing.T) {
	// Two hotspot surfaces loaded: the inference shorthand must refuse to
	// guess.
	_, m, reg := hotspotFixture(t)
	b, err := artifact.New("grid-two", artifact.KindHotspot, m, geo.Schema(), 0, 7, "cell_label", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(b); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg))
	t.Cleanup(srv.Close)
	resp, body := getHotspots(t, srv.URL, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// Naming either model still works.
	resp, _ = getHotspots(t, srv.URL, "?model=grid-two&k=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("named model status %d", resp.StatusCode)
	}
}
