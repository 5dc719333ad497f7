package geo

import (
	"fmt"
	"math"

	"roadcrash/internal/data"
	"roadcrash/internal/eval"
)

// The hotspot scoring methods a Model can carry.
const (
	MethodKDE         = "kde"
	MethodPersistence = "persistence"
)

// Model is a fitted hotspot risk surface — the payload of the "hotspot"
// artifact kind. It scores rows carrying (x_km, y_km) coordinates with the
// probability of at least one crash in the cell next period, and ranks
// cells for the /hotspots endpoint. The surface is already flat, so the
// model is its own compiled form: PredictProb and ScoreColumns are plain
// array lookups.
type Model struct {
	Grid        Grid    `json:"grid"`
	Method      string  `json:"method"`
	BandwidthKm float64 `json:"bandwidth_km,omitempty"`
	// Risk holds the per-cell probability of ≥1 crash next period, indexed
	// like Grid cells (row-major).
	Risk []float64 `json:"risk"`
}

// Schema returns the two-column coordinate schema hotspot artifacts carry:
// rows are scored on (x_km, y_km) alone.
func Schema() []data.Attribute {
	return []data.Attribute{
		{Name: xAttr, Kind: data.Interval},
		{Name: yAttr, Kind: data.Interval},
	}
}

// PredictProb scores one schema-ordered row (x_km, y_km). Coordinates
// outside the grid — and missing coordinates — score 0: no cell, no
// predicted crash mass.
func (m *Model) PredictProb(row []float64) float64 {
	if len(row) < 2 {
		return 0
	}
	c, ok := m.Grid.CellOf(row[0], row[1])
	if !ok {
		return 0
	}
	return m.Risk[c]
}

// ScoreColumns scores a schema-ordered columnar block, one lookup per row,
// allocation-free — the ColumnScorer contract of the compiled layer.
func (m *Model) ScoreColumns(cols [][]float64, out []float64) {
	xs, ys := cols[0], cols[1]
	for i := range out {
		if c, ok := m.Grid.CellOf(xs[i], ys[i]); ok {
			out[i] = m.Risk[c]
		} else {
			out[i] = 0
		}
	}
}

// Validate checks a deserialized model against the artifact header's
// column count, so corrupt hotspot artifacts fail at load time.
func (m *Model) Validate(cols int) error {
	if cols != 2 {
		return fmt.Errorf("geo: hotspot model scores (x_km, y_km), header schema has %d columns", cols)
	}
	if err := m.Grid.Validate(); err != nil {
		return err
	}
	switch m.Method {
	case MethodKDE:
		if m.BandwidthKm <= 0 || math.IsNaN(m.BandwidthKm) {
			return fmt.Errorf("geo: kde model with bandwidth %v km", m.BandwidthKm)
		}
	case MethodPersistence:
	default:
		return fmt.Errorf("geo: unknown hotspot method %q", m.Method)
	}
	if len(m.Risk) != m.Grid.Cells() {
		return fmt.Errorf("geo: %d risk cells for a %d×%d grid (%d cells)",
			len(m.Risk), m.Grid.NX, m.Grid.NY, m.Grid.Cells())
	}
	for c, r := range m.Risk {
		if math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("geo: cell %d risk %v outside [0, 1]", c, r)
		}
	}
	return nil
}

// CellRisk is one ranked cell of the risk surface — the /hotspots response
// element and the offline evaluation's ranking unit.
type CellRisk struct {
	Cell int     `json:"cell"`
	XKm  float64 `json:"x_km"`
	YKm  float64 `json:"y_km"`
	Risk float64 `json:"risk"`
}

// TopCells returns the k highest-risk cells with their center coordinates,
// ordered by descending risk with ties broken on the lower cell index. It
// ranks with eval.TopKOrder, the ranking the offline hit-rate evaluation
// uses, so a served artifact and an in-process fit agree exactly. k beyond
// the cell count is clamped.
func (m *Model) TopCells(k int) []CellRisk {
	if k <= 0 {
		return nil
	}
	if k > len(m.Risk) {
		k = len(m.Risk)
	}
	out := make([]CellRisk, k)
	for i, c := range eval.TopKOrder(m.Risk)[:k] {
		x, y := m.Grid.Center(c)
		out[i] = CellRisk{Cell: c, XKm: x, YKm: y, Risk: m.Risk[c]}
	}
	return out
}
