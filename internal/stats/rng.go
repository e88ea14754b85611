// Package stats provides the deterministic random-number machinery,
// probability distributions, and descriptive/regression statistics used
// throughout the secmetric reproduction.
//
// Everything in this package is seeded and reproducible: corpus generation,
// synthetic source trees, and machine-learning experiments all derive their
// randomness from an RNG created here, so a fixed seed regenerates the exact
// figures reported in EXPERIMENTS.md.
package stats

import "math"

// RNG is a deterministic pseudo-random generator based on the SplitMix64
// algorithm. It is intentionally self-contained (no math/rand dependency) so
// that streams are stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split returns a new independent generator derived from the current state.
// The parent stream advances by one step, so sibling splits differ.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Rejection sampling to avoid modulo bias.
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := r.Uint64()
		if v <= max {
			return int(v % uint64(n))
		}
	}
}

// IntRange returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Normal returns a draw from the normal distribution with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	// Guard against log(0).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli trials with success probability p.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("stats: Geometric needs p in (0, 1]")
	}
	if p == 1 {
		return 0
	}
	return int(math.Floor(math.Log(1-r.Float64()) / math.Log(1-p)))
}

// Zipf returns a draw from {0, ..., n-1} where element i has weight
// 1/(i+1)^s. It is used for skewed categorical choices such as CWE frequency.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 0 {
		panic("stats: Zipf with non-positive n")
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
	}
	target := r.Float64() * total
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += 1 / math.Pow(float64(i+1), s)
		if target < acc {
			return i
		}
	}
	return n - 1
}

// Choice returns a random index weighted by the non-negative weights. It
// panics if weights is empty or sums to zero.
func (r *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: Choice with negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("stats: Choice with no mass")
	}
	target := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
