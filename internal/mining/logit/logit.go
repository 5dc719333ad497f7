// Package logit implements the logistic-regression supporting model via
// iteratively reweighted least squares (IRLS) with a ridge penalty, on the
// standardized one-hot design produced by the encode package.
package logit

import (
	"fmt"
	"math"

	"roadcrash/internal/data"
	"roadcrash/internal/linalg"
	"roadcrash/internal/mining/encode"
)

// Config controls training.
type Config struct {
	// MaxIter bounds IRLS iterations.
	MaxIter int
	// Tol stops iteration once the max coefficient change falls below it.
	Tol float64
	// Ridge is the L2 penalty keeping collinear designs solvable.
	Ridge float64
	// Exclude lists attribute names to leave out of the design (the target
	// is always excluded automatically).
	Exclude []string
}

// DefaultConfig returns standard IRLS settings.
func DefaultConfig() Config { return Config{MaxIter: 50, Tol: 1e-8, Ridge: 1e-6} }

// Model is a fitted logistic regression.
type Model struct {
	enc     *encode.Encoder
	weights []float64
	iters   int
}

// Train fits the model on a binary target column.
func Train(ds *data.Dataset, target int, cfg Config) (*Model, error) {
	if target < 0 || target >= ds.NumAttrs() {
		return nil, fmt.Errorf("logit: target column %d out of range", target)
	}
	if ds.Attr(target).Kind != data.Binary {
		return nil, fmt.Errorf("logit: target %q must be binary", ds.Attr(target).Name)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 50
	}
	if cfg.Ridge <= 0 {
		cfg.Ridge = 1e-6
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-8
	}
	exclude := append([]string{ds.Attr(target).Name}, cfg.Exclude...)
	enc, err := encode.Fit(ds, encode.Options{Bias: true, Exclude: exclude})
	if err != nil {
		return nil, fmt.Errorf("logit: %w", err)
	}
	var xs [][]float64
	var ys []float64
	raw := make([]float64, ds.NumAttrs())
	for i := 0; i < ds.Len(); i++ {
		y := ds.At(i, target)
		if data.IsMissing(y) {
			continue
		}
		raw = ds.Row(i, raw)
		xs = append(xs, enc.Transform(raw, nil))
		ys = append(ys, y)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("logit: no labelled instances")
	}
	p := enc.Width()
	w := make([]float64, p)
	m := &Model{enc: enc, weights: w}

	// IRLS: w ← solve(XᵀSX + ridge·I, Xᵀ(S z)) with z the working response.
	for iter := 0; iter < cfg.MaxIter; iter++ {
		xtwx := make([][]float64, p)
		for i := range xtwx {
			xtwx[i] = make([]float64, p)
		}
		xtwz := make([]float64, p)
		for r, x := range xs {
			eta := linalg.Dot(w, x)
			mu := 1 / (1 + math.Exp(-eta))
			s := mu * (1 - mu)
			if s < 1e-10 {
				s = 1e-10
			}
			z := eta + (ys[r]-mu)/s
			for i := 0; i < p; i++ {
				if x[i] == 0 {
					continue
				}
				sxi := s * x[i]
				for j := i; j < p; j++ {
					xtwx[i][j] += sxi * x[j]
				}
				xtwz[i] += sxi * z
			}
		}
		for i := 0; i < p; i++ {
			for j := 0; j < i; j++ {
				xtwx[i][j] = xtwx[j][i]
			}
			xtwx[i][i] += cfg.Ridge
		}
		next, err := linalg.Solve(xtwx, xtwz)
		if err != nil {
			return nil, fmt.Errorf("logit: IRLS step %d: %w", iter, err)
		}
		delta := 0.0
		for i := range w {
			delta = math.Max(delta, math.Abs(next[i]-w[i]))
		}
		copy(w, next)
		m.iters = iter + 1
		if delta < cfg.Tol {
			break
		}
	}
	return m, nil
}

// PredictProb returns P(positive | row) for a full-schema row.
func (m *Model) PredictProb(row []float64) float64 {
	x := m.enc.Transform(row, nil)
	return 1 / (1 + math.Exp(-linalg.Dot(m.weights, x)))
}
