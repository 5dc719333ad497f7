package artifact

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"roadcrash/internal/compiled"
	"roadcrash/internal/geo"
	"roadcrash/internal/rng"
)

func hotspotModel(t *testing.T) *geo.Model {
	t.Helper()
	g, err := geo.NewGrid(0, 0, 96, 96, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	risk := make([]float64, g.Cells())
	for c := range risk {
		risk[c] = r.Float64()
	}
	return &geo.Model{Grid: g, Method: geo.MethodKDE, BandwidthKm: 3, Risk: risk}
}

// TestHotspotRoundTrip pins the hotspot artifact end to end: encode,
// decode, compile, and score bit-identically to the fitted surface —
// including the top-k ranking the /hotspots endpoint serves.
func TestHotspotRoundTrip(t *testing.T) {
	m := hotspotModel(t)
	a, err := New("grid-kde", KindHotspot, m, geo.Schema(), 0, 31, "cell_label", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != KindHotspot || back.FormatVersion != FormatVersion {
		t.Fatalf("decoded kind %q version %d", back.Kind, back.FormatVersion)
	}
	dec, err := back.Model()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := compiled.Compile(dec)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	xs, ys := make([]float64, 256), make([]float64, 256)
	for i := range xs {
		xs[i] = r.Float64()*110 - 7 // includes out-of-grid coordinates
		ys[i] = r.Float64()*110 - 7
	}
	out := make([]float64, len(xs))
	cs.ScoreColumns([][]float64{xs, ys}, out)
	for i := range xs {
		want := m.PredictProb([]float64{xs[i], ys[i]})
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: decoded+compiled %v vs fitted %v", i, out[i], want)
		}
	}
	gm, ok := dec.(*geo.Model)
	if !ok {
		t.Fatalf("decoded model is %T, want *geo.Model", dec)
	}
	wantTop, gotTop := m.TopCells(10), gm.TopCells(10)
	for i := range wantTop {
		if gotTop[i] != wantTop[i] {
			t.Fatalf("top cell %d: %+v vs %+v", i, gotTop[i], wantTop[i])
		}
	}
}

// TestHotspotVersionGate pins the format gate: hotspot is a version-2
// kind, so a version-1 envelope claiming one is corrupt by construction.
func TestHotspotVersionGate(t *testing.T) {
	m := hotspotModel(t)
	a, err := New("grid-kde", KindHotspot, m, geo.Schema(), 0, 31, "cell_label", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := strings.Replace(buf.String(), `"format_version": 2`, `"format_version": 1`, 1)
	if v1 == buf.String() {
		t.Fatal("test setup: version replacement did not apply")
	}
	if _, err := Decode(strings.NewReader(v1)); err == nil {
		t.Error("version-1 artifact with a hotspot payload decoded without error")
	}
}

// TestHotspotRejectsCorruptPayloads exercises the load-time validation: a
// risk array that disagrees with the grid, an out-of-range risk, and a
// schema wider than the two coordinate columns must all fail at Decode.
func TestHotspotRejectsCorruptPayloads(t *testing.T) {
	m := hotspotModel(t)
	a, err := New("grid-kde", KindHotspot, m, geo.Schema(), 0, 31, "cell_label", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	bad := map[string]string{
		"truncated risk": strings.Replace(good, `"nx": 12`, `"nx": 13`, 1),
		"negative cell":  strings.Replace(good, `"cell_km": 8`, `"cell_km": -8`, 1),
		"unknown method": strings.Replace(good, `"method": "kde"`, `"method": "psychic"`, 1),
		"zero bandwidth": strings.Replace(good, `"bandwidth_km": 3`, `"bandwidth_km": 0`, 1),
	}
	for name, doc := range bad {
		if doc == good {
			t.Fatalf("%s: corruption did not apply", name)
		}
		if _, err := Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: corrupt artifact decoded without error", name)
		}
	}
}
