package geo

import (
	"fmt"
	"math"
	"sync"

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
// array lookups. The cell ranking is computed once, on the first TopCells
// call, so the exported fields must not change after that.
type Model struct {
	Grid        Grid    `json:"grid"`
	Method      string  `json:"method"`
	BandwidthKm float64 `json:"bandwidth_km,omitempty"`
	// Risk holds the per-cell probability of ≥1 crash next period, indexed
	// like Grid cells (row-major).
	Risk []float64 `json:"risk"`
	// Rate holds the per-cell expected next-period crash count λ the risk
	// was derived from (Risk = 1 - exp(-λ)), indexed like Risk. Risk
	// rounds to exactly 1 once λ reaches about 37, so cells are ranked on
	// Rate. It is nil for a surface decoded from an artifact written
	// before the rate was stored, which ranks on Risk.
	Rate []float64 `json:"rate,omitempty"`

	rankOnce sync.Once
	order    []int32 // cell indices, highest RankKey first
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
	if m.Rate == nil {
		return nil
	}
	if len(m.Rate) != len(m.Risk) {
		return fmt.Errorf("geo: %d rate cells for %d risk cells", len(m.Rate), len(m.Risk))
	}
	for c, r := range m.Rate {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return fmt.Errorf("geo: cell %d rate %v, want finite and >= 0", c, r)
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

// RankKey returns the per-cell values the cells are ranked on: the
// expected crash count Rate, or Risk when the surface carries no rate.
// TopCells serves this ranking, and an offline hit rate that scores the
// served cells passes RankKey to eval.HitRateAtK.
func (m *Model) RankKey() []float64 {
	if m.Rate != nil {
		return m.Rate
	}
	return m.Risk
}

// TopCells returns the k highest-ranked cells with their center
// coordinates and risk, ordered by descending RankKey with ties broken on
// the lower cell index. The order is computed once, with eval.TopKOrder —
// the ranking the offline hit-rate evaluation uses — on the first call;
// every call copies a prefix of it, so a served artifact and an
// in-process fit agree exactly. k beyond the cell count is clamped.
func (m *Model) TopCells(k int) []CellRisk {
	if k <= 0 {
		return nil
	}
	m.rankOnce.Do(func() { m.order = eval.TopKOrder(m.RankKey()) })
	k = min(k, len(m.order))
	out := make([]CellRisk, k)
	for i, c := range m.order[:k] {
		x, y := m.Grid.Center(int(c))
		out[i] = CellRisk{Cell: int(c), XKm: x, YKm: y, Risk: m.Risk[c]}
	}
	return out
}
