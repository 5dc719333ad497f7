package geo

import (
	"math"
	"testing"

	"roadcrash/internal/eval"
	"roadcrash/internal/roadnet"
)

// streamObservations drains a default scenario stream into per-segment
// observations.
func streamObservations(t *testing.T, rows int, seed uint64) []Observation {
	t.Helper()
	opt := roadnet.DefaultScenarioOptions(rows)
	opt.Seed = seed
	s, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := CollectSegments(s)
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

func studyGrid(t *testing.T, cellKm float64) Grid {
	t.Helper()
	g, err := NewGrid(0, 0, roadnet.ExtentKm, roadnet.ExtentKm, cellKm)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCollectSegmentsCollapsesYearRows(t *testing.T) {
	opt := roadnet.DefaultScenarioOptions(400) // 100 segments × 4 years
	s, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := CollectSegments(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 100 {
		t.Fatalf("collected %d observations from 100 segments", len(obs))
	}
	for i, o := range obs {
		if o.X < 0 || o.X >= roadnet.ExtentKm || o.Y < 0 || o.Y >= roadnet.ExtentKm {
			t.Fatalf("observation %d at (%v, %v) outside the study region", i, o.X, o.Y)
		}
		if o.Crashes < 0 {
			t.Fatalf("observation %d carries negative crashes %v", i, o.Crashes)
		}
	}
}

func TestCollectSegmentsSchemaErrors(t *testing.T) {
	// A reader whose schema lacks coordinates must error, not zero-fill.
	br := &fakeReader{}
	if _, err := CollectSegments(br); err == nil {
		t.Fatal("expected a schema error")
	}
}

func TestSplitObservations(t *testing.T) {
	obs := make([]Observation, 10)
	train, test, err := SplitObservations(obs, 0.5)
	if err != nil || len(train) != 5 || len(test) != 5 {
		t.Fatalf("split = %d/%d, %v", len(train), len(test), err)
	}
	if _, _, err := SplitObservations(obs, 0); err == nil {
		t.Error("fraction 0 should error")
	}
	if _, _, err := SplitObservations(obs, 1); err == nil {
		t.Error("fraction 1 should error")
	}
	if _, _, err := SplitObservations(obs[:1], 0.5); err == nil {
		t.Error("single observation should error")
	}
	// A fraction that would swallow every observation leaves one for the
	// evaluation period.
	train, test, err = SplitObservations(obs, 0.99)
	if err != nil || len(test) != 1 || len(train) != 9 {
		t.Fatalf("0.99 split = %d/%d, %v", len(train), len(test), err)
	}
}

// TestKDEDeterministicAcrossWorkers pins the determinism contract: the
// fitted risk surface is bit-identical for Workers 1, 2 and 8.
func TestKDEDeterministicAcrossWorkers(t *testing.T) {
	obs := streamObservations(t, 8000, 11)
	g := studyGrid(t, 3)
	opt := DefaultKDEOptions()
	opt.Workers = 1
	ref, err := FitKDE(g, obs, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		opt.Workers = workers
		got, err := FitKDE(g, obs, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		for c := range ref.Risk {
			if math.Float64bits(ref.Risk[c]) != math.Float64bits(got.Risk[c]) ||
				math.Float64bits(ref.Rate[c]) != math.Float64bits(got.Rate[c]) {
				t.Fatalf("workers=%d: cell %d risk %v rate %v vs risk %v rate %v — surface not bit-identical",
					workers, c, got.Risk[c], got.Rate[c], ref.Risk[c], ref.Rate[c])
			}
		}
	}
}

func TestKDESurfaceWellFormed(t *testing.T) {
	obs := streamObservations(t, 4000, 3)
	g := studyGrid(t, 4)
	m, err := FitKDE(g, obs, 1, DefaultKDEOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(2); err != nil {
		t.Fatal(err)
	}
	// The surface must carry real mass: some cells risky, most not.
	hi, lo := 0, 0
	for _, r := range m.Risk {
		if r > 0.5 {
			hi++
		}
		if r < 0.05 {
			lo++
		}
	}
	if hi == 0 || lo == 0 {
		t.Fatalf("degenerate surface: %d risky, %d quiet of %d cells", hi, lo, len(m.Risk))
	}
}

// TestFitsStoreRate pins what both fits store per cell: the expected
// crash count λ (for persistence, the scaled training count) and the
// risk 1 - exp(-λ) derived from it, bit for bit. The study stream's
// busiest cells have λ large enough that their risk rounds to exactly 1,
// which is why cells rank on λ.
func TestFitsStoreRate(t *testing.T) {
	obs := streamObservations(t, 20000, 20110322)
	g := studyGrid(t, 3)
	kde, err := FitKDE(g, obs, 1.5, DefaultKDEOptions())
	if err != nil {
		t.Fatal(err)
	}
	pers, err := FitPersistence(g, obs, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	counts := g.Counts(obs)
	saturated := 0
	for _, m := range []*Model{kde, pers} {
		if err := m.Validate(2); err != nil {
			t.Fatalf("%s: %v", m.Method, err)
		}
		for c, lambda := range m.Rate {
			if want := 1 - math.Exp(-lambda); math.Float64bits(m.Risk[c]) != math.Float64bits(want) {
				t.Fatalf("%s cell %d: risk %v, want 1 - exp(-%v) = %v", m.Method, c, m.Risk[c], lambda, want)
			}
			if m.Risk[c] == 1 {
				saturated++
			}
		}
	}
	for c, n := range counts {
		if pers.Rate[c] != n*1.5 {
			t.Fatalf("persistence cell %d: rate %v, want %v crashes × 1.5", c, pers.Rate[c], n)
		}
	}
	if saturated == 0 {
		t.Fatal("no cell's risk saturates at 1; the fixture no longer exercises the rate ranking")
	}
}

func TestFitErrors(t *testing.T) {
	g := studyGrid(t, 3)
	obs := []Observation{{X: 1, Y: 1, Crashes: 1}, {X: 2, Y: 2, Crashes: 1}}
	if _, err := FitKDE(g, obs, 1, KDEOptions{BandwidthKm: 0}); err == nil {
		t.Error("zero bandwidth should error")
	}
	if _, err := FitKDE(g, obs, 0, DefaultKDEOptions()); err == nil {
		t.Error("zero scale should error")
	}
	if _, err := FitKDE(Grid{}, obs, 1, DefaultKDEOptions()); err == nil {
		t.Error("invalid grid should error")
	}
	if _, err := FitPersistence(g, obs, -1); err == nil {
		t.Error("negative scale should error")
	}
	if _, err := FitPersistence(Grid{CellKm: -1}, obs, 1); err == nil {
		t.Error("invalid grid should error")
	}
}

// TestKDEBeatsPersistence pins the evaluation contract's headline: on the
// study stream — including a drifting one — the KDE surface captures more
// next-period crash mass in its top cells than raw persistence, because
// cell-level counts are noisy while the underlying intensity is smooth.
func TestKDEBeatsPersistence(t *testing.T) {
	for _, drift := range []bool{false, true} {
		opt := roadnet.DefaultScenarioOptions(60000)
		opt.Seed = 20110322
		if drift {
			opt.DriftAfterRow = 30000
			opt.DriftRiskShift = 0.7
		}
		s, err := roadnet.NewScenarioStream(opt)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := CollectSegments(s)
		if err != nil {
			t.Fatal(err)
		}
		train, test, err := SplitObservations(obs, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		g := studyGrid(t, 3)
		kde, err := FitKDE(g, train, 1, DefaultKDEOptions())
		if err != nil {
			t.Fatal(err)
		}
		pers, err := FitPersistence(g, train, 1)
		if err != nil {
			t.Fatal(err)
		}
		future := g.Counts(test)
		const k = 64
		kdeHit, err := eval.HitRateAtK(kde.RankKey(), future, k)
		if err != nil {
			t.Fatal(err)
		}
		persHit, err := eval.HitRateAtK(pers.RankKey(), future, k)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("drift=%v: hit-rate@%d kde=%.4f persistence=%.4f", drift, k, kdeHit, persHit)
		if kdeHit <= persHit {
			t.Errorf("drift=%v: KDE hit-rate@%d %.4f does not beat persistence %.4f",
				drift, k, kdeHit, persHit)
		}
	}
}
