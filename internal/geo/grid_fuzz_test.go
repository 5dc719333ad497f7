package geo

import (
	"math"
	"testing"
)

// FuzzGridCell fuzzes the discretization invariants: every finite point
// inside the extent lands in exactly one valid cell, points outside (and
// NaN coordinates) land in none, and a cell's center maps back to the same
// cell. Boundary coordinates — seeded explicitly — must land in exactly
// one cell, never two and never zero.
func FuzzGridCell(f *testing.F) {
	f.Add(0.0, 0.0, 1.5)
	f.Add(2.5, 2.5, 2.5)     // exact internal boundary
	f.Add(95.99, 95.99, 1.5) // last in-extent register point
	f.Add(48.0, 48.0, 0.7)   // non-dividing cell size
	f.Add(-1.0, 50.0, 3.0)   // outside
	f.Add(96.0, 0.0, 3.0)    // far edge is outside
	f.Add(31.999999999, 32.000000001, 4.0)
	f.Fuzz(func(t *testing.T, x, y, cellKm float64) {
		if math.IsNaN(cellKm) || math.IsInf(cellKm, 0) || cellKm <= 0.01 || cellKm > 96 {
			t.Skip()
		}
		g, err := NewGrid(0, 0, 96, 96, cellKm)
		if err != nil {
			t.Skip()
		}
		cell, ok := g.CellOf(x, y)
		inExtent := !math.IsNaN(x) && !math.IsNaN(y) &&
			x >= 0 && y >= 0 &&
			x < float64(g.NX)*g.CellKm && y < float64(g.NY)*g.CellKm
		if ok != inExtent {
			t.Fatalf("CellOf(%v, %v) ok=%v, in-extent=%v (grid %d×%d cell %v)",
				x, y, ok, inExtent, g.NX, g.NY, g.CellKm)
		}
		if !ok {
			return
		}
		if cell < 0 || cell >= g.Cells() {
			t.Fatalf("CellOf(%v, %v) = %d outside [0, %d)", x, y, cell, g.Cells())
		}
		// The point must satisfy its cell's half-open bounds — membership in
		// exactly one cell follows, since cells tile the plane disjointly.
		ix, iy := cell%g.NX, cell/g.NX
		loX, hiX := float64(ix)*g.CellKm, float64(ix+1)*g.CellKm
		loY, hiY := float64(iy)*g.CellKm, float64(iy+1)*g.CellKm
		if x < loX || x >= hiX || y < loY || y >= hiY {
			t.Fatalf("point (%v, %v) outside its cell %d bounds [%v,%v)×[%v,%v)",
				x, y, cell, loX, hiX, loY, hiY)
		}
		// Coordinate → cell → center → cell round-trips.
		cx, cy := g.Center(cell)
		back, ok2 := g.CellOf(cx, cy)
		if !ok2 || back != cell {
			t.Fatalf("center of cell %d maps to %d, ok=%v", cell, back, ok2)
		}
	})
}
