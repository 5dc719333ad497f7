package cluster

import (
	"math"
	"testing"

	"roadcrash/internal/data"
	"roadcrash/internal/rng"
)

// blobs generates k well-separated Gaussian blobs in 2D.
func blobs(perBlob int, centers [][2]float64, seed uint64) *data.Dataset {
	r := rng.New(seed)
	b := data.NewBuilder("blobs").Interval("x").Interval("y").Interval("label")
	for li, c := range centers {
		for i := 0; i < perBlob; i++ {
			b.Row(c[0]+r.Normal(0, 0.3), c[1]+r.Normal(0, 0.3), float64(li))
		}
	}
	return b.Build()
}

func TestRecoversBlobs(t *testing.T) {
	centers := [][2]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}}
	ds := blobs(200, centers, 1)
	cfg := DefaultConfig()
	cfg.K = 4
	cfg.Exclude = []string{"label"}
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every cluster should be label-pure.
	labels, _ := ds.ColByName("label")
	for c := 0; c < 4; c++ {
		members := res.Members(c)
		if len(members) == 0 {
			t.Fatalf("cluster %d empty", c)
		}
		first := labels[members[0]]
		for _, i := range members {
			if labels[i] != first {
				t.Fatalf("cluster %d mixes labels", c)
			}
		}
	}
}

func TestAssignmentsToNearestCentroid(t *testing.T) {
	ds := blobs(100, [][2]float64{{0, 0}, {8, 8}}, 2)
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.Exclude = []string{"label"}
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Invariant: each point is not closer to any other centroid.
	pts := res.enc.Matrix(ds)
	for i, p := range pts {
		own := sqDist(p, res.Centroids[res.Assignment[i]])
		for c := range res.Centroids {
			if d := sqDist(p, res.Centroids[c]); d < own-1e-9 {
				t.Fatalf("point %d assigned to %d but %d is closer", i, res.Assignment[i], c)
			}
		}
	}
}

func TestSizesAndInertiaConsistent(t *testing.T) {
	ds := blobs(150, [][2]float64{{0, 0}, {5, 5}, {-5, 5}}, 3)
	cfg := DefaultConfig()
	cfg.K = 3
	cfg.Exclude = []string{"label"}
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != ds.Len() {
		t.Fatalf("sizes sum to %d, want %d", total, ds.Len())
	}
	if res.Inertia < 0 || math.IsNaN(res.Inertia) {
		t.Fatalf("inertia = %v", res.Inertia)
	}
	if res.Iterations <= 0 {
		t.Fatal("no iterations recorded")
	}
}

func TestMoreClustersLowerInertia(t *testing.T) {
	ds := blobs(200, [][2]float64{{0, 0}, {6, 0}, {0, 6}, {6, 6}}, 4)
	inertia := func(k int) float64 {
		cfg := DefaultConfig()
		cfg.K = k
		cfg.Exclude = []string{"label"}
		res, err := Run(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Inertia
	}
	if i2, i8 := inertia(2), inertia(8); i8 >= i2 {
		t.Fatalf("inertia(8)=%v should beat inertia(2)=%v", i8, i2)
	}
}

func TestGroupColumn(t *testing.T) {
	ds := blobs(50, [][2]float64{{0, 0}, {9, 9}}, 5)
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.Exclude = []string{"label"}
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	labels, _ := ds.ColByName("label")
	groups := res.GroupColumn(labels)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	if n != ds.Len() {
		t.Fatalf("grouped %d values, want %d", n, ds.Len())
	}
}

func TestGroupColumnSkipsMissing(t *testing.T) {
	b := data.NewBuilder("gm").Interval("x").Interval("v")
	b.Row(0, 1).Row(0.1, data.Missing).Row(10, 3).Row(10.1, 4)
	ds := b.Build()
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.Exclude = []string{"v"}
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := ds.ColByName("v")
	groups := res.GroupColumn(vals)
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	if n != 3 {
		t.Fatalf("grouped %d values, want 3 (missing skipped)", n)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	ds := blobs(100, [][2]float64{{0, 0}, {7, 7}}, 6)
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.Exclude = []string{"label"}
	r1, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Assignment {
		if r1.Assignment[i] != r2.Assignment[i] {
			t.Fatal("same-seed clustering disagrees")
		}
	}
}

// TestRestartsDeterministicAndNoWorse verifies the restart fan-out: the
// winner is identical for every worker count, and its inertia is no worse
// than any individual restart's fit.
func TestRestartsDeterministicAndNoWorse(t *testing.T) {
	ds := blobs(150, [][2]float64{{0, 0}, {6, 0}, {0, 6}, {6, 6}}, 9)
	cfg := DefaultConfig()
	cfg.K = 4
	cfg.Exclude = []string{"label"}
	cfg.Restarts = 6
	cfg.Workers = 1
	ref, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		got, err := Run(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Inertia != ref.Inertia {
			t.Fatalf("workers=%d: inertia %v vs %v", workers, got.Inertia, ref.Inertia)
		}
		for i := range ref.Assignment {
			if ref.Assignment[i] != got.Assignment[i] {
				t.Fatalf("workers=%d: assignment differs at %d", workers, i)
			}
		}
	}
	// Single-run behavior is untouched when Restarts <= 1.
	cfg.Restarts = 1
	single, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Restarts = 0
	zero, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if single.Inertia != zero.Inertia {
		t.Fatalf("Restarts 0 vs 1 disagree: %v vs %v", zero.Inertia, single.Inertia)
	}
	if ref.Inertia > single.Inertia {
		t.Fatalf("best-of-6 inertia %v worse than single run %v", ref.Inertia, single.Inertia)
	}
}

func TestErrors(t *testing.T) {
	ds := blobs(2, [][2]float64{{0, 0}}, 7)
	cfg := DefaultConfig()
	cfg.K = 50
	if _, err := Run(ds, cfg); err == nil {
		t.Error("K > n should error")
	}
	cfg = Config{K: 0, MaxIter: 10}
	if _, err := Run(ds, cfg); err == nil {
		t.Error("K=0 should error")
	}
	cfg = Config{K: 1, MaxIter: 0}
	if _, err := Run(ds, cfg); err == nil {
		t.Error("MaxIter=0 should error")
	}
	cfg = Config{K: 1, MaxIter: 10, Restarts: -1}
	if _, err := Run(ds, cfg); err == nil {
		t.Error("negative Restarts should error")
	}
	cfg = DefaultConfig()
	cfg.K = 1
	cfg.Exclude = []string{"ghost"}
	if _, err := Run(ds, cfg); err == nil {
		t.Error("unknown exclusion should error")
	}
}

// TestDuplicatePoints clusters points that all coincide: k-means++ finds
// no distance mass to weight by and picks uniformly, and the clusters that
// attract no point are reseeded rather than divided by a zero count.
func TestDuplicatePoints(t *testing.T) {
	b := data.NewBuilder("dup").Interval("x").Interval("y")
	for i := 0; i < 12; i++ {
		b.Row(1, 2)
	}
	cfg := DefaultConfig()
	cfg.K = 3
	res, err := Run(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 || res.Sizes[0] != 12 || res.Sizes[1] != 0 || res.Sizes[2] != 0 {
		t.Fatalf("inertia %v sizes %v, want 0 and [12 0 0]", res.Inertia, res.Sizes)
	}
	for c, cen := range res.Centroids {
		for _, v := range cen {
			if math.IsNaN(v) {
				t.Fatalf("centroid %d = %v", c, cen)
			}
		}
	}
}

// TestKMeansRestartSeedTable pins the restart path byte-for-byte: every
// (Restarts, Workers) pair in the table reproduces the serial Workers=1
// fit exactly, including Restarts=1 with Workers>1 — the single restart
// must take the same engine path and the same seed as a serial run.
func TestKMeansRestartSeedTable(t *testing.T) {
	ds := blobs(120, [][2]float64{{0, 0}, {6, 0}, {0, 6}}, 13)
	base := DefaultConfig()
	base.K = 3
	base.Exclude = []string{"label"}
	for _, restarts := range []int{1, 2, 5} {
		cfg := base
		cfg.Restarts = restarts
		cfg.Workers = 1
		ref, err := Run(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			cfg.Workers = workers
			got, err := Run(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Inertia != ref.Inertia || got.Iterations != ref.Iterations {
				t.Fatalf("restarts=%d workers=%d: inertia/iterations %v/%d vs %v/%d",
					restarts, workers, got.Inertia, got.Iterations, ref.Inertia, ref.Iterations)
			}
			for i := range ref.Assignment {
				if got.Assignment[i] != ref.Assignment[i] {
					t.Fatalf("restarts=%d workers=%d: assignment differs at %d", restarts, workers, i)
				}
			}
			for c := range ref.Centroids {
				for j := range ref.Centroids[c] {
					if got.Centroids[c][j] != ref.Centroids[c][j] {
						t.Fatalf("restarts=%d workers=%d: centroid %d drifts", restarts, workers, c)
					}
				}
			}
		}
	}
}

func TestHandlesMissingViaImputation(t *testing.T) {
	b := data.NewBuilder("mi").Interval("x").Interval("y")
	r := rng.New(8)
	for i := 0; i < 200; i++ {
		x := r.Normal(0, 1)
		if i%2 == 0 {
			x += 10
		}
		y := r.Normal(0, 1)
		if i%15 == 0 {
			y = data.Missing
		}
		b.Row(x, y)
	}
	ds := b.Build()
	cfg := DefaultConfig()
	cfg.K = 2
	res, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sizes[0] == 0 || res.Sizes[1] == 0 {
		t.Fatalf("sizes = %v", res.Sizes)
	}
}
