package geo

import (
	"fmt"
	"math"

	"roadcrash/internal/engine"
)

// KDEOptions controls the kernel density fit.
type KDEOptions struct {
	// BandwidthKm is the Gaussian kernel bandwidth. Larger values pool
	// crash evidence across wider neighborhoods.
	BandwidthKm float64
	// Workers bounds the goroutines evaluating cells; <= 0 means
	// GOMAXPROCS. The fitted surface is bit-identical for every worker
	// count: each cell sums its kernel contributions in observation order,
	// and cells fan out through the shared engine pool.
	Workers int
}

// DefaultKDEOptions returns the calibrated bandwidth for the study grid:
// wide enough to pool neighboring cells, narrow enough to keep the town
// centers separated.
func DefaultKDEOptions() KDEOptions { return KDEOptions{BandwidthKm: 3} }

// kdeCutoffSigmas truncates the Gaussian kernel: observations beyond this
// many bandwidths contribute nothing. At 4σ the dropped mass is < 1e-4 of
// a point's weight — far below the risk surface's meaningful resolution —
// and the truncation is a pure function of the cell-observation distance,
// so it cannot perturb determinism.
const kdeCutoffSigmas = 4

// FitKDE fits the kernel density baseline: a per-cell risk surface where
// each training-period crash spreads a Gaussian kernel of the configured
// bandwidth, the resulting intensity is normalized to the training
// period's total crash mass scaled by scale (the expected next-period /
// training-period exposure ratio; pass 1 for equal periods) into each
// cell's expected crash count λ (Rate), and each cell's risk is
// P(≥1 crash) = 1 - exp(-λ).
func FitKDE(g Grid, train []Observation, scale float64, opt KDEOptions) (*Model, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opt.BandwidthKm <= 0 || math.IsNaN(opt.BandwidthKm) {
		return nil, fmt.Errorf("geo: KDE bandwidth %v km, want positive", opt.BandwidthKm)
	}
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	h := opt.BandwidthKm
	cut := (kdeCutoffSigmas * h) * (kdeCutoffSigmas * h)
	inv2h2 := 1 / (2 * h * h)

	total := 0.0
	for _, o := range train {
		if _, ok := g.CellOf(o.X, o.Y); ok {
			total += o.Crashes
		}
	}
	raw, err := engine.Map(opt.Workers, g.Cells(), func(c int) (float64, error) {
		cx, cy := g.Center(c)
		s := 0.0
		for _, o := range train {
			dx, dy := o.X-cx, o.Y-cy
			if d2 := dx*dx + dy*dy; d2 <= cut {
				s += o.Crashes * math.Exp(-d2*inv2h2)
			}
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	mass := 0.0
	for _, v := range raw {
		mass += v
	}
	rate := make([]float64, len(raw))
	if mass > 0 {
		norm := total * scale / mass
		for c, v := range raw {
			rate[c] = v * norm
		}
	}
	return &Model{
		Grid:        g,
		Method:      MethodKDE,
		BandwidthKm: opt.BandwidthKm,
		Risk:        risksFromExpected(rate),
		Rate:        rate,
	}, nil
}

// FitPersistence fits the persistence baseline: a cell's expected
// next-period crash count λ (Rate) is its own training-period count
// (scaled by scale), risk-transformed exactly as the KDE surface is. This
// is the "treat last period's black spots" strategy the KDE baseline has
// to beat.
func FitPersistence(g Grid, train []Observation, scale float64) (*Model, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	rate := g.Counts(train)
	for c := range rate {
		rate[c] *= scale
	}
	return &Model{Grid: g, Method: MethodPersistence, Risk: risksFromExpected(rate), Rate: rate}, nil
}

func checkScale(scale float64) error {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("geo: period scale %v, want positive finite", scale)
	}
	return nil
}

// risksFromExpected converts per-cell expected crash counts λ into the
// probability of at least one crash under a Poisson arrival model,
// 1 - exp(-λ).
func risksFromExpected(rate []float64) []float64 {
	risk := make([]float64, len(rate))
	for c, lambda := range rate {
		risk[c] = 1 - math.Exp(-lambda)
	}
	return risk
}
