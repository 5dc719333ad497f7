package geo

import (
	"math"
	"testing"
)

func mustGrid(t *testing.T, minX, minY, w, h, cell float64) Grid {
	t.Helper()
	g, err := NewGrid(minX, minY, w, h, cell)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridShape(t *testing.T) {
	g := mustGrid(t, 0, 0, 96, 96, 1.5)
	if g.NX != 64 || g.NY != 64 || g.Cells() != 4096 {
		t.Fatalf("grid = %d×%d (%d cells), want 64×64", g.NX, g.NY, g.Cells())
	}
	// Non-dividing cell size overhangs by one cell.
	g = mustGrid(t, 0, 0, 10, 10, 3)
	if g.NX != 4 || g.NY != 4 {
		t.Fatalf("grid = %d×%d, want 4×4", g.NX, g.NY)
	}
}

func TestNewGridErrors(t *testing.T) {
	bad := [][5]float64{
		{0, 0, 96, 96, 0},
		{0, 0, 96, 96, -1},
		{0, 0, 96, 96, math.NaN()},
		{0, 0, 0, 96, 1},
		{0, 0, 96, -5, 1},
		{0, 0, 1e6, 1e6, 1e-2}, // 10^16 cells: more than an int32 ranks
	}
	for i, c := range bad {
		if _, err := NewGrid(c[0], c[1], c[2], c[3], c[4]); err == nil {
			t.Errorf("case %d: expected an error", i)
		}
	}
}

// TestGridValidate rejects each structural defect a deserialized grid can
// carry: a non-positive or non-finite cell size, an empty axis and a
// non-finite origin.
func TestGridValidate(t *testing.T) {
	good := Grid{MinX: -1, MinY: 2, CellKm: 1.5, NX: 4, NY: 3}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Grid){
		"zero cell":       func(g *Grid) { g.CellKm = 0 },
		"NaN cell":        func(g *Grid) { g.CellKm = math.NaN() },
		"infinite cell":   func(g *Grid) { g.CellKm = math.Inf(1) },
		"no columns":      func(g *Grid) { g.NX = 0 },
		"negative rows":   func(g *Grid) { g.NY = -1 },
		"2^32 cells":      func(g *Grid) { g.NX, g.NY = 1<<16, 1<<16 },
		"NaN origin":      func(g *Grid) { g.MinX = math.NaN() },
		"infinite origin": func(g *Grid) { g.MinY = math.Inf(-1) },
	} {
		g := good
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, g)
		}
	}
}

func TestCellOfBoundaries(t *testing.T) {
	g := mustGrid(t, 0, 0, 10, 10, 2.5)
	cases := []struct {
		x, y float64
		cell int
		ok   bool
	}{
		{0, 0, 0, true},                 // origin is in cell 0
		{2.5, 0, 1, true},               // internal boundary belongs to the higher cell
		{0, 2.5, 4, true},               // same on the y axis
		{2.5, 2.5, 5, true},             // corner point lands in exactly one cell
		{9.99, 9.99, 15, true},          // last cell
		{10, 0, 0, false},               // the extent's far edge is outside
		{0, 10, 0, false},               //
		{-0.01, 5, 0, false},            // below the origin
		{math.NaN(), 5, 0, false},       // missing coordinate
		{5, math.NaN(), 0, false},       //
		{math.Inf(1), 5, 0, false},      //
		{5 - 1e-12, 5 - 1e-12, 5, true}, // just inside a boundary stays low
	}
	for _, c := range cases {
		cell, ok := g.CellOf(c.x, c.y)
		if ok != c.ok || (ok && cell != c.cell) {
			t.Errorf("CellOf(%v, %v) = %d, %v; want %d, %v", c.x, c.y, cell, ok, c.cell, c.ok)
		}
	}
}

func TestCenterRoundTrips(t *testing.T) {
	g := mustGrid(t, -4, 7, 33, 21, 0.7)
	for cell := 0; cell < g.Cells(); cell++ {
		x, y := g.Center(cell)
		got, ok := g.CellOf(x, y)
		if !ok || got != cell {
			t.Fatalf("cell %d center (%v, %v) maps to %d, %v", cell, x, y, got, ok)
		}
	}
}

func TestCounts(t *testing.T) {
	g := mustGrid(t, 0, 0, 10, 10, 5)
	obs := []Observation{
		{X: 1, Y: 1, Crashes: 2},
		{X: 2, Y: 2, Crashes: 1},
		{X: 7, Y: 8, Crashes: 4},
		{X: 50, Y: 50, Crashes: 9}, // outside: dropped
	}
	counts := g.Counts(obs)
	want := []float64{3, 0, 0, 4}
	for c, w := range want {
		if counts[c] != w {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}
