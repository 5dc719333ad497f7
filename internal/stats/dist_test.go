package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChiSquareCDFReference(t *testing.T) {
	// Classical critical values: P(X > 3.841) = 0.05 at df=1,
	// P(X > 5.991) = 0.05 at df=2, P(X > 6.635) = 0.01 at df=1.
	approx(t, "chi2 sf df1", ChiSquareSF(3.8414588206941236, 1), 0.05, 1e-9)
	approx(t, "chi2 sf df2", ChiSquareSF(5.991464547107979, 2), 0.05, 1e-9)
	approx(t, "chi2 sf df1 1%", ChiSquareSF(6.6348966010212145, 1), 0.01, 1e-9)
	approx(t, "chi2 cdf+sf", GammaP(3.0/2, 4.2/2)+ChiSquareSF(4.2, 3), 1, 1e-12)
}

func TestChiSquareEdges(t *testing.T) {
	if ChiSquareSF(-1, 2) != 1 {
		t.Error("chi-square at negative x should be degenerate")
	}
	if !math.IsNaN(ChiSquareSF(1, 0)) {
		t.Error("chi-square with df=0 should be NaN")
	}
}

func TestFDistributionReference(t *testing.T) {
	// Critical values: P(F > 4.351) ≈ 0.05 for (2, 20) df;
	// P(F > 161.45) ≈ 0.05 for (1, 1).
	approx(t, "F sf (2,20)", FSF(3.4928, 2, 20), 0.05, 2e-4)
	approx(t, "F sf (1,1)", FSF(161.4476, 1, 1), 0.05, 1e-4)
	approx(t, "F cdf+sf", BetaInc(3.0/2, 7.0/2, 3*2.5/(3*2.5+7))+FSF(2.5, 3, 7), 1, 1e-12)
}

func TestFDistributionChiSquareConsistency(t *testing.T) {
	// As df2 → ∞, F(df1, df2) → chi2(df1)/df1.
	x := 1.7
	approx(t, "F vs chi2 limit", FSF(x, 3, 1e7), ChiSquareSF(3*x, 3), 1e-5)
}

// Property: every distribution is well formed, checked through the
// survival functions the split criteria use: each stays within [0,1] and
// is non-increasing in x.
func TestCDFsWellFormed(t *testing.T) {
	f := func(raw uint16) bool {
		x := float64(raw%200) * 0.1
		sfs := [][2]float64{
			{ChiSquareSF(x, 4), ChiSquareSF(x+0.1, 4)},
			{FSF(x, 3, 9), FSF(x+0.1, 3, 9)},
		}
		for _, sf := range sfs {
			for _, v := range sf {
				if v < -1e-12 || v > 1+1e-12 || math.IsNaN(v) {
					return false
				}
			}
			if sf[1] > sf[0]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
