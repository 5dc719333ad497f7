package artifact

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"roadcrash/internal/compiled"
	"roadcrash/internal/eval"
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

// TestHotspotPayloadWithoutRateRanksOnRisk decodes a saturated surface
// twice: as written today, with its per-cell rate, and with the rate key
// removed from the payload, as artifacts written before the rate was
// stored carry it. The first serves the rate order; the second keeps the
// risk order those artifacts were served in, with the same risk bits.
func TestHotspotPayloadWithoutRateRanksOnRisk(t *testing.T) {
	g, err := geo.NewGrid(0, 0, 96, 96, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	m := &geo.Model{Grid: g, Method: geo.MethodPersistence}
	for c := 0; c < g.Cells(); c++ {
		lambda := r.Float64() * 80 // about half the cells saturate at risk 1
		m.Rate = append(m.Rate, lambda)
		m.Risk = append(m.Risk, 1-math.Exp(-lambda))
	}
	a, err := New("grid-pers", KindHotspot, m, geo.Schema(), 0, 5, "cell_label", nil)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(a.Payload, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["rate"]; !ok {
		t.Fatal("payload carries no rate")
	}
	delete(fields, "rate")
	legacy := *a
	if legacy.Payload, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}

	decode := func(a *Artifact) *geo.Model {
		t.Helper()
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		s, err := back.Model()
		if err != nil {
			t.Fatal(err)
		}
		return s.(*geo.Model)
	}
	cells := func(top []geo.CellRisk) []int32 {
		out := make([]int32, len(top))
		for i, c := range top {
			out[i] = int32(c.Cell)
		}
		return out
	}
	current, old := decode(a), decode(&legacy)
	if old.Rate != nil {
		t.Fatalf("rate-less payload decoded a rate of %d cells", len(old.Rate))
	}
	n := g.Cells()
	if got, want := cells(current.TopCells(n)), eval.TopKOrder(m.Rate); !slices.Equal(got, want) {
		t.Fatalf("current payload serves %v, want the rate order %v", got, want)
	}
	if got, want := cells(old.TopCells(n)), eval.TopKOrder(m.Risk); !slices.Equal(got, want) {
		t.Fatalf("rate-less payload serves %v, want the risk order %v", got, want)
	}
	if slices.Equal(eval.TopKOrder(m.Rate), eval.TopKOrder(m.Risk)) {
		t.Fatal("rate and risk orders agree; the fixture tests nothing")
	}
	for c := range m.Risk {
		if math.Float64bits(old.Risk[c]) != math.Float64bits(m.Risk[c]) {
			t.Fatalf("cell %d: rate-less payload decodes risk %v, want %v", c, old.Risk[c], m.Risk[c])
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
		"short rate":     strings.Replace(good, `"risk": [`, `"rate": [1], "risk": [`, 1),
		"negative rate":  strings.Replace(good, `"risk": [`, `"rate": [-1`+strings.Repeat(`, 0`, 143)+`], "risk": [`, 1),
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
