// Package stats is the statistics substrate for the road-crash study. It
// provides the special functions and probability distributions behind the
// paper's split criteria (chi-square test for decision trees, F-test for
// regression trees), the one-way ANOVA used in the clustering phase, and
// general descriptive statistics.
//
// Everything is implemented from scratch on top of math so the repository
// has no external dependencies.
package stats

import "math"

const (
	maxIter = 500
	eps     = 3e-14
	fpmin   = 1e-300
)

// GammaLn returns the natural log of the absolute value of the gamma
// function, wrapping math.Lgamma.
func GammaLn(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// GammaP returns the regularized lower incomplete gamma function P(a, x)
// for a > 0, x >= 0.
func GammaP(a, x float64) float64 {
	if a <= 0 || x < 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

// GammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaQ(a, x float64) float64 {
	if a <= 0 || x < 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a,x) by its power series (x < a+1 regime).
func gammaPSeries(a, x float64) float64 {
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-GammaLn(a))
}

// gammaQContinuedFraction evaluates Q(a,x) by its continued fraction
// (x >= a+1 regime), modified Lentz's method.
func gammaQContinuedFraction(a, x float64) float64 {
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-GammaLn(a)) * h
}

// BetaInc returns the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and x in [0, 1].
func BetaInc(a, b, x float64) float64 {
	if a <= 0 || b <= 0 || x < 0 || x > 1 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x == 1 {
		return 1
	}
	bt := math.Exp(GammaLn(a+b) - GammaLn(a) - GammaLn(b) + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return bt * betaCF(a, b, x) / a
	}
	return 1 - bt*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for BetaInc (Lentz's method).
func betaCF(a, b, x float64) float64 {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
