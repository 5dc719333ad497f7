package tree

import (
	"math"
	"testing"

	"roadcrash/internal/data"
	"roadcrash/internal/rng"
)

// mixedDataset exercises every split kind in one tree: interval cuts,
// nominal level subsets and sprinkled missing values.
func mixedDataset(n int, seed uint64) *data.Dataset {
	r := rng.New(seed)
	b := data.NewBuilder("mixed").
		Interval("x").
		Nominal("color", "red", "green", "blue", "grey").
		Binary("y")
	for i := 0; i < n; i++ {
		x := r.Float64()
		c := float64(r.Intn(4))
		y := 0.0
		if x > 0.55 != (c == 1 || c == 3) {
			y = 1
		}
		if r.Float64() < 0.05 {
			x = data.Missing
		}
		if r.Float64() < 0.05 {
			c = data.Missing
		}
		b.Row(x, c, y)
	}
	return b.Build()
}

// compileProbes spans the routing space: interval values either side of
// any cut, every nominal level, an out-of-range level index and missing
// values in every position.
func compileProbes() [][]float64 {
	var rows [][]float64
	for _, x := range []float64{-1, 0.2, 0.55, 0.9, 2, data.Missing} {
		for _, c := range []float64{0, 1, 2, 3, 70, -2, data.Missing} {
			rows = append(rows, []float64{x, c, data.Missing})
		}
	}
	return rows
}

// TestCompileBitIdentical pins the flattening: the compiled tree routes
// every probe — interval cuts, nominal subsets, out-of-range levels,
// missing values — to exactly the interpreted leaf, for classification
// and regression trees alike, via both the row and the columnar entry
// points.
func TestCompileBitIdentical(t *testing.T) {
	ds := mixedDataset(1200, 3)
	target := ds.MustAttrIndex("y")
	cfg := DefaultConfig()
	cfg.MinLeaf = 15
	grown := map[string]*Tree{}
	ct, err := Grow(ds, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grown["classification"] = ct
	rt, err := GrowRegression(ds, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grown["regression"] = rt

	probes := compileProbes()
	cols := make([][]float64, len(probes[0]))
	for j := range cols {
		cols[j] = make([]float64, len(probes))
		for i, row := range probes {
			cols[j][i] = row[j]
		}
	}
	for name, tr := range grown {
		c := tr.Compile()
		if c.width != ds.NumAttrs() {
			t.Fatalf("%s: compiled width %d, want %d", name, c.width, ds.NumAttrs())
		}
		out := make([]float64, len(probes))
		c.ScoreColumns(cols, out)
		for i, row := range probes {
			if got, want := c.Predict(row), tr.Predict(row); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s probe %d: compiled Predict %v, interpreted %v", name, i, got, want)
			}
			want := tr.PredictProb(row)
			if got := c.PredictProb(row); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s probe %d: compiled PredictProb %v, interpreted %v", name, i, got, want)
			}
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Errorf("%s probe %d: ScoreColumns %v, interpreted %v", name, i, out[i], want)
			}
		}
	}
	// Regression leaves outside [0,1] must clamp identically on all paths.
	if rt.PredictProb(probes[0]) != rt.Compile().PredictProb(probes[0]) {
		t.Error("regression clamp differs")
	}
}

// TestLeafIndexMatchesInterpretedRouting pins the leaf-id flattening every
// M5 compiled model rides on: the flat index must route every probe —
// interval cuts, nominal subsets, out-of-range levels, missing values — to
// exactly the interpreted tree's leaf id, via both the row and columnar
// entry points, and ids must stay within [0, Leaves()).
func TestLeafIndexMatchesInterpretedRouting(t *testing.T) {
	ds := mixedDataset(1200, 3)
	target := ds.MustAttrIndex("y")
	cfg := DefaultConfig()
	cfg.MinLeaf = 15
	tr, err := GrowRegression(ds, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	li := tr.CompileLeafIndex()
	if want := tr.Leaves() - 1; li.MaxLeafID() != want {
		t.Fatalf("MaxLeafID = %d, want %d (ids are dense 0..Leaves()-1)", li.MaxLeafID(), want)
	}
	for i, row := range compileProbes() {
		want := tr.LeafID(row)
		if got := li.LeafID(row); got != want {
			t.Errorf("probe %d: flat leaf id %d, interpreted %d", i, got, want)
		}
		if want < 0 || want >= tr.Leaves() {
			t.Errorf("probe %d: leaf id %d outside [0, %d)", i, want, tr.Leaves())
		}
	}
}

// TestCompileLayout pins the preorder encoding: one slot per node, the
// left child immediately following its parent — the property that makes
// the common descent a sequential read.
func TestCompileLayout(t *testing.T) {
	ds := mixedDataset(1200, 3)
	tr, err := Grow(ds, ds.MustAttrIndex("y"), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Compile()
	if want := 2*tr.Leaves() - 1; len(c.nodes) != want {
		t.Fatalf("compiled %d nodes, want %d (2*leaves-1)", len(c.nodes), want)
	}
	leaves := 0
	for i := range c.nodes {
		n := &c.nodes[i]
		if n.attr < 0 {
			leaves++
			continue
		}
		if n.left != int32(i)+1 {
			t.Fatalf("node %d: left child at %d, want %d (preorder)", i, n.left, i+1)
		}
		if n.right <= n.left || int(n.right) >= len(c.nodes) {
			t.Fatalf("node %d: right child %d out of order", i, n.right)
		}
	}
	if leaves != tr.Leaves() {
		t.Fatalf("compiled %d leaves, tree has %d", leaves, tr.Leaves())
	}
}
