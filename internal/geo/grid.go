// Package geo is the spatial layer of the hotspot workload: a planar grid
// discretization of the study region, crash-observation collection from
// the columnar streaming layer, and the two density baselines the
// evaluation contract names — a kernel density estimate and a persistence
// (historical-count) scorer — each compiled into a per-cell risk surface
// that serves as a first-class model artifact.
//
// The paper predicts crash proneness per road segment; the exemplar
// reproductions push toward *where* crashes cluster. This package answers
// that question on a grid: score every cell with the probability of at
// least one crash in the next period, rank cells, and measure how much of
// the next period's crash mass the top-k cells capture.
package geo

import (
	"fmt"
	"math"
)

// Grid is a rectangular cell discretization of the plane. Cells are
// half-open squares [MinX+ix·CellKm, MinX+(ix+1)·CellKm) × [MinY+iy·CellKm,
// MinY+(iy+1)·CellKm), indexed row-major (cell = iy·NX + ix), so every
// in-extent point lands in exactly one cell.
type Grid struct {
	MinX   float64 `json:"min_x_km"`
	MinY   float64 `json:"min_y_km"`
	CellKm float64 `json:"cell_km"`
	NX     int     `json:"nx"`
	NY     int     `json:"ny"`
}

// NewGrid builds a grid covering widthKm × heightKm from (minX, minY) with
// the given cell size. The last row/column of cells may overhang the
// extent when the cell size does not divide it evenly.
func NewGrid(minX, minY, widthKm, heightKm, cellKm float64) (Grid, error) {
	if cellKm <= 0 || math.IsNaN(cellKm) || math.IsInf(cellKm, 0) {
		return Grid{}, fmt.Errorf("geo: cell size %v km, want a positive finite value", cellKm)
	}
	if widthKm <= 0 || heightKm <= 0 {
		return Grid{}, fmt.Errorf("geo: grid extent %v × %v km, want positive", widthKm, heightKm)
	}
	g := Grid{
		MinX:   minX,
		MinY:   minY,
		CellKm: cellKm,
		NX:     int(math.Ceil(widthKm / cellKm)),
		NY:     int(math.Ceil(heightKm / cellKm)),
	}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// Validate reports structural errors in a grid, built by NewGrid or
// deserialized.
func (g Grid) Validate() error {
	if g.CellKm <= 0 || math.IsNaN(g.CellKm) || math.IsInf(g.CellKm, 0) {
		return fmt.Errorf("geo: cell size %v km, want a positive finite value", g.CellKm)
	}
	if g.NX <= 0 || g.NY <= 0 {
		return fmt.Errorf("geo: degenerate grid %d × %d", g.NX, g.NY)
	}
	if g.NX > math.MaxInt32/g.NY {
		// Cells are ranked by int32 index (eval.TopKOrder).
		return fmt.Errorf("geo: grid %d × %d has more than 2^31-1 cells", g.NX, g.NY)
	}
	if math.IsNaN(g.MinX) || math.IsNaN(g.MinY) || math.IsInf(g.MinX, 0) || math.IsInf(g.MinY, 0) {
		return fmt.Errorf("geo: grid origin (%v, %v) not finite", g.MinX, g.MinY)
	}
	return nil
}

// Cells returns the total cell count NX·NY.
func (g Grid) Cells() int { return g.NX * g.NY }

// CellOf maps a coordinate to its flat cell index. ok is false for points
// outside the grid and for NaN coordinates (a missing value never lands in
// a cell). Cell boundaries belong to the higher cell, so a point belongs
// to exactly one cell.
func (g Grid) CellOf(x, y float64) (cell int, ok bool) {
	if math.IsNaN(x) || math.IsNaN(y) {
		return 0, false
	}
	ix := g.axisCell(x - g.MinX)
	iy := g.axisCell(y - g.MinY)
	if ix < 0 || ix >= g.NX || iy < 0 || iy >= g.NY {
		return 0, false
	}
	return iy*g.NX + ix, true
}

// axisCell discretizes one axis offset. The floor of the ratio is computed
// once and re-checked against the cell's own bounds so floating-point
// division can neither push a boundary point into the wrong cell nor out
// of the grid.
func (g Grid) axisCell(off float64) int {
	i := int(math.Floor(off / g.CellKm))
	// Re-anchor against the exact cell edges: off must satisfy
	// i·CellKm <= off < (i+1)·CellKm.
	if float64(i+1)*g.CellKm <= off {
		i++
	} else if float64(i)*g.CellKm > off {
		i--
	}
	return i
}

// Center returns the midpoint coordinate of a cell.
func (g Grid) Center(cell int) (x, y float64) {
	ix := cell % g.NX
	iy := cell / g.NX
	return g.MinX + (float64(ix)+0.5)*g.CellKm, g.MinY + (float64(iy)+0.5)*g.CellKm
}

// Counts accumulates per-cell crash counts from observations; points
// outside the grid are dropped.
func (g Grid) Counts(obs []Observation) []float64 {
	out := make([]float64, g.Cells())
	for _, o := range obs {
		if c, ok := g.CellOf(o.X, o.Y); ok {
			out[c] += o.Crashes
		}
	}
	return out
}
