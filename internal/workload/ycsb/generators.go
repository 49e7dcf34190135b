// Package ycsb reimplements the two YCSB core workloads the paper runs
// (Cooper et al., SoCC'10): the request-distribution generators
// (uniform, zipfian, scrambled zipfian) and the A (50% reads, 50%
// updates) and B (95% reads, 5% updates) mixes over the document
// store, driven by closed-loop client processes.
package ycsb

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Generator produces the next item index for a request distribution.
type Generator interface {
	Next(rng *rand.Rand) int64
}

// Uniform draws uniformly from [0, n).
type Uniform struct{ n int64 }

// NewUniform creates a uniform generator over n items.
func NewUniform(n int64) *Uniform { return &Uniform{n: n} }

func (u *Uniform) Next(rng *rand.Rand) int64 { return rng.Int63n(u.n) }

// Zipfian draws from a zipfian distribution over [0, n) with the YCSB
// constant 0.99, using the Gray et al. rejection-free method exactly
// as YCSB's ZipfianGenerator does.
type Zipfian struct {
	items                            int64
	theta, alpha, zetan, eta, zeta2t float64
}

// ZipfianConstant is YCSB's default skew.
const ZipfianConstant = 0.99

// NewZipfian creates a zipfian generator over n items.
func NewZipfian(n int64) *Zipfian {
	z := &Zipfian{items: n, theta: ZipfianConstant}
	z.alpha = 1 / (1 - z.theta)
	z.zetan = zeta(n, z.theta)
	z.zeta2t = zeta(2, z.theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - z.zeta2t/z.zetan)
	return z
}

func zeta(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *Zipfian) Next(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// ScrambledZipfian spreads the zipfian head across the keyspace by
// hashing, like YCSB's ScrambledZipfianGenerator, so popular items are
// not clustered.
type ScrambledZipfian struct {
	z     *Zipfian
	items int64
}

// NewScrambledZipfian creates a scrambled zipfian generator over n
// items.
func NewScrambledZipfian(n int64) *ScrambledZipfian {
	return &ScrambledZipfian{z: NewZipfian(n), items: n}
}

func (s *ScrambledZipfian) Next(rng *rand.Rand) int64 {
	v := s.z.Next(rng)
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	return int64(h.Sum64() % uint64(s.items))
}
