// Package rng provides deterministic pseudo-random number generation and
// the probability distributions used throughout the offloading simulator.
//
// Every stochastic component in the repository draws from a *rng.Source so
// that simulations are exactly reproducible given a seed, and so that
// independent subsystems can be given independent (split) streams without
// sharing mutable state across goroutines.
package rng

import (
	"fmt"
	"math"
)

// Source is a deterministic pseudo-random source based on the
// splitmix64/xoshiro256** construction. The zero value is NOT usable; create
// sources with New or by splitting an existing source.
//
// Source is not safe for concurrent use; split one stream per goroutine.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed. Distinct seeds yield uncorrelated
// streams; the same seed always yields the same stream.
func New(seed uint64) *Source {
	r := &Source{}
	// Expand the seed with splitmix64 so that small or similar seeds still
	// produce well-distributed initial state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives a new independent Source from r. The derived stream is a
// deterministic function of r's current state, and advancing r afterwards
// does not affect the child.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

// Derive maps (base, stream) to a new seed with a splitmix64 finalizer, so
// that callers can hand out one independent seed per shard/experiment/
// replication purely from immutable inputs. Unlike Split, Derive consumes
// no generator state: the result depends only on its arguments, which is
// what makes parallel execution bit-identical to serial execution — worker
// count and completion order cannot influence which seed a stream gets.
//
// Distinct (base, stream) pairs yield uncorrelated seeds even when base
// and stream are small consecutive integers.
func Derive(base, stream uint64) uint64 {
	// Mix the stream index into the base with the golden-gamma increment,
	// then apply the splitmix64 finalizer twice (once over the combined
	// word, once over the result) so that low-entropy inputs diffuse into
	// all 64 bits.
	x := base + (stream+1)*0x9e3779b97f4a7c15
	for i := 0; i < 2; i++ {
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x = x ^ (x >> 31)
	}
	return x
}

// Fork returns a fresh Source for the given stream index derived from
// base. It is shorthand for New(Derive(base, stream)): a pure function of
// its arguments, safe to call concurrently from any number of goroutines.
func Fork(base, stream uint64) *Source {
	return New(Derive(base, stream))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
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

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed float64 with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("rng: Exp called with rate=%g", rate))
	}
	u := r.Float64()
	// Guard u == 0, where Log would return -Inf.
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormal returns a lognormally distributed float64 where the underlying
// normal has parameters mu and sigma.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Pareto returns a Pareto-distributed float64 with minimum xm and shape
// alpha. It panics if xm <= 0 or alpha <= 0.
func (r *Source) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic(fmt.Sprintf("rng: Pareto called with xm=%g alpha=%g", xm, alpha))
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}
