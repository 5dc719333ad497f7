package stats

import (
	"math"
	"testing"
)

func TestChiSquareIndependenceKnownTable(t *testing.T) {
	// Classic 2x2 example: chi2 = 16.2*... use a hand-computed table.
	// Observed: [[20, 30], [30, 20]]; expected all 25; chi2 = 4*(25)/25 = 4.
	res, err := ChiSquareIndependence([][]float64{{20, 30}, {30, 20}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "chi2 stat", res.Statistic, 4, 1e-12)
	approx(t, "chi2 df", res.DF, 1, 0)
	approx(t, "chi2 p", res.PValue, ChiSquareSF(4, 1), 1e-12)
}

func TestChiSquareIndependenceIndependentTable(t *testing.T) {
	// Perfectly proportional rows: statistic must be 0, p-value 1.
	res, err := ChiSquareIndependence([][]float64{{10, 20}, {20, 40}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "stat", res.Statistic, 0, 1e-12)
	approx(t, "p", res.PValue, 1, 1e-12)
}

func TestChiSquareIndependenceErrors(t *testing.T) {
	cases := [][][]float64{
		{},                // empty
		{{1, 2}, {3}},     // ragged
		{{0, 0}, {0, 0}},  // no mass
		{{5, 5}, {0, 0}},  // one effective row
		{{5, 0}, {7, 0}},  // one effective column
		{{-1, 2}, {3, 4}}, // negative cell
		{{1, 2, 3}},       // single row
	}
	for i, obs := range cases {
		if _, err := ChiSquareIndependence(obs); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestChiSquareIndependenceZeroMarginIgnored(t *testing.T) {
	// A zero column should reduce df, not corrupt the statistic.
	res, err := ChiSquareIndependence([][]float64{{20, 30, 0}, {30, 20, 0}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "stat", res.Statistic, 4, 1e-12)
	approx(t, "df", res.DF, 1, 0)
}

func TestOneWayANOVAKnownExample(t *testing.T) {
	// Hand-checked example: groups with clearly different means.
	g1 := []float64{6, 8, 4, 5, 3, 4}
	g2 := []float64{8, 12, 9, 11, 6, 8}
	g3 := []float64{13, 9, 11, 8, 7, 12}
	res, err := OneWayANOVA([][]float64{g1, g2, g3})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "F", res.FStatistic, 9.3, 0.05)
	approx(t, "dfB", res.DFBetween, 2, 0)
	approx(t, "dfW", res.DFWithin, 15, 0)
	if res.PValue > 0.01 {
		t.Errorf("p = %v, want < 0.01", res.PValue)
	}
	if res.EtaSquared <= 0 || res.EtaSquared >= 1 {
		t.Errorf("eta² = %v", res.EtaSquared)
	}
}

func TestOneWayANOVAIdenticalGroups(t *testing.T) {
	g := []float64{5, 6, 7, 8}
	res, err := OneWayANOVA([][]float64{g, g, g})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "F identical", res.FStatistic, 0, 1e-9)
	approx(t, "p identical", res.PValue, 1, 1e-9)
}

func TestOneWayANOVAConstantWithin(t *testing.T) {
	// Zero within-group variance but different means: F = inf, p = 0.
	res, err := OneWayANOVA([][]float64{{1, 1, 1}, {2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.FStatistic, 1) || res.PValue != 0 {
		t.Errorf("F = %v, p = %v", res.FStatistic, res.PValue)
	}
}

func TestOneWayANOVASkipsEmptyGroups(t *testing.T) {
	res, err := OneWayANOVA([][]float64{{1, 2, 3}, {}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveGroup != 2 {
		t.Errorf("effective groups = %d, want 2", res.EffectiveGroup)
	}
	if !math.IsNaN(res.GroupMeans[1]) {
		t.Error("empty group mean should be NaN")
	}
}

func TestOneWayANOVAErrors(t *testing.T) {
	if _, err := OneWayANOVA([][]float64{{1, 2, 3}}); err == nil {
		t.Error("single group should error")
	}
	if _, err := OneWayANOVA([][]float64{{1}, {2}}); err == nil {
		t.Error("no within-group df should error")
	}
	if _, err := OneWayANOVA(nil); err == nil {
		t.Error("nil groups should error")
	}
}
