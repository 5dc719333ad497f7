// Package rng provides a deterministic pseudo-random number generator and
// the samplers the road-crash study needs: uniform, normal, gamma, beta,
// Poisson, negative binomial, and the zero-altered negative binomial that
// models the crash counting process after Shankar, Milton & Mannering.
//
// The generator is a 64-bit SplitMix64-seeded xoshiro256** variant. It is
// deliberately independent from math/rand so that experiment outputs are
// stable across Go releases; every table and figure in EXPERIMENTS.md is
// reproducible from a seed.
package rng

import "math"

// Source is a deterministic stream of pseudo-random 64-bit values.
// The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
	// spare holds a cached normal deviate from the Box-Muller pair.
	spare    float64
	hasSpare bool
}

// New returns a Source seeded from seed via SplitMix64 so that nearby seeds
// produce unrelated streams.
func New(seed uint64) *Source {
	r := &Source{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes the stream in place from seed, exactly as New does —
// the allocation-free form for hot paths that derive many short-lived
// streams from a stack-allocated Source.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.spare, r.hasSpare = 0, false
}

// Split derives an independent child stream. The child is seeded from the
// parent's next output, so repeated Split calls on a fresh parent yield a
// reproducible family of streams.
func (r *Source) Split() *Source { return New(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hi = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi += aHi*bHi + t>>32
	return hi, lo
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Norm returns a standard normal deviate (Box-Muller with caching).
func (r *Source) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * f
			r.hasSpare = true
			return u * f
		}
	}
}

// Normal returns a normal deviate with the given mean and standard
// deviation. sigma must be non-negative.
func (r *Source) Normal(mu, sigma float64) float64 { return mu + sigma*r.Norm() }

// TruncNormal draws from a normal distribution truncated to [lo, hi] by
// rejection. It panics if lo > hi.
func (r *Source) TruncNormal(mu, sigma, lo, hi float64) float64 {
	if lo > hi {
		panic("rng: TruncNormal with lo > hi")
	}
	if sigma == 0 {
		return math.Min(hi, math.Max(lo, mu))
	}
	for i := 0; i < 1000; i++ {
		x := r.Normal(mu, sigma)
		if x >= lo && x <= hi {
			return x
		}
	}
	// Extremely unlikely region: fall back to a uniform draw in range.
	return lo + (hi-lo)*r.Float64()
}

// Gamma returns a gamma deviate with the given shape and scale, using
// Marsaglia & Tsang's method (with the shape<1 boost).
func (r *Source) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma with non-positive parameter")
	}
	if shape < 1 {
		// Boost: G(a) = G(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Beta returns a beta(a, b) deviate.
func (r *Source) Beta(a, b float64) float64 {
	x := r.Gamma(a, 1)
	y := r.Gamma(b, 1)
	return x / (x + y)
}

// Poisson returns a Poisson deviate with mean lambda >= 0. Small means use
// Knuth's product method; large means use the PTRS transformed-rejection
// sampler so very hazardous road segments stay cheap to simulate.
func (r *Source) Poisson(lambda float64) int {
	switch {
	case lambda < 0:
		panic("rng: Poisson with negative mean")
	case lambda == 0:
		return 0
	case lambda < 30:
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		return r.poissonPTRS(lambda)
	}
}

// poissonPTRS implements Hörmann's PTRS sampler for lambda >= 10.
func (r *Source) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(lambda)-lambda-lgammaPlus1(k) {
			return int(k)
		}
	}
}

func lgammaPlus1(k float64) float64 {
	lg, _ := math.Lgamma(k + 1)
	return lg
}

// NegBinomial returns a negative binomial deviate with mean mu and
// dispersion parameter size > 0 (variance mu + mu²/size), via the
// gamma-Poisson mixture. Smaller size means a heavier tail, which is what
// produces the paper's long crash-count tail (Figure 1).
func (r *Source) NegBinomial(mu, size float64) int {
	if mu < 0 || size <= 0 {
		panic("rng: NegBinomial with invalid parameters")
	}
	if mu == 0 {
		return 0
	}
	lambda := r.Gamma(size, mu/size)
	return r.Poisson(lambda)
}

// ZeroAltered draws from a zero-altered (hurdle) counting process: with
// probability pZero the count is structurally zero; otherwise the count is a
// zero-truncated draw from count(). This mirrors Shankar et al.'s
// zero-altered probability process, where some road segments are inherently
// "safe" regardless of exposure.
func (r *Source) ZeroAltered(pZero float64, count func() int) int {
	if pZero < 0 || pZero > 1 {
		panic("rng: ZeroAltered with pZero outside [0,1]")
	}
	if r.Float64() < pZero {
		return 0
	}
	for i := 0; i < 10000; i++ {
		if c := count(); c > 0 {
			return c
		}
	}
	return 1 // count() almost surely zero; hurdle crossed, report minimum.
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }

// Choice returns a pseudo-random index weighted by the non-negative weights.
// It panics if weights is empty or sums to zero.
func (r *Source) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: Choice with negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("rng: Choice with no mass")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
