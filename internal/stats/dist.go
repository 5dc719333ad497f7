package stats

import "math"

// ChiSquareSF returns the survival function P(X > x), the p-value of a
// chi-square statistic.
func ChiSquareSF(x float64, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if x <= 0 {
		return 1
	}
	return GammaQ(df/2, x/2)
}

// FSF returns the survival function P(X > x) of the F distribution, the
// p-value of an F statistic.
func FSF(x, df1, df2 float64) float64 {
	if df1 <= 0 || df2 <= 0 {
		return math.NaN()
	}
	if x <= 0 {
		return 1
	}
	return BetaInc(df2/2, df1/2, df2/(df1*x+df2))
}
