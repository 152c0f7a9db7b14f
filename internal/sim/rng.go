package sim

import "math/rand"

// source is the simulator's random source: math/rand's additive
// lagged-Fibonacci generator (a 607-word register, tap 273), equal to
// rand.NewSource draw for draw (TestSourceMatchesMathRand, FuzzSeedSource),
// with a Seed that does not walk math/rand's serial seeding chain.
//
// math/rand fills the register from 1,841 consecutive steps of the Lehmer
// generator x ← 48271·x mod (2³¹−1), each step waiting on the one before, and
// XORs a constant table into it. Step k is 48271ᵏ·x₀ mod (2³¹−1), so with
// the powers in a table (lehmerPow) every register word is three independent
// multiply-and-reduce operations: a Runner reseeds once per iteration, and
// this cuts the reseed to about a quarter of math/rand's.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen    = 607
	rngTap    = 273
	int32max  = 1<<31 - 1
	seedSteps = 20 + 3*rngLen // Lehmer steps math/rand's Seed takes
)

var (
	// lehmerPow[k] is 48271ᵏ mod (2³¹−1).
	lehmerPow [seedSteps + 1]uint32
	// cooked is the table math/rand XORs into a seeded register, recovered
	// from math/rand's own output (see deriveCooked) rather than copied.
	cooked [rngLen]int64
)

func init() {
	lehmerPow[0] = 1
	for k := 1; k <= seedSteps; k++ {
		lehmerPow[k] = uint32(uint64(lehmerPow[k-1]) * 48271 % int32max)
	}
	cooked = deriveCooked()
}

// randStream is the package's random stream: math/rand's Rand algorithms for
// the draws the simulator makes, over a source held by value, so a draw is
// direct calls instead of a *rand.Rand's call through the Source interface.
// It yields exactly what rand.New(rand.NewSource(seed)) yields.
type randStream struct{ source }

// newRand returns a stream seeded with seed. Every random stream of the
// package is built here.
func newRand(seed int64) *randStream {
	r := new(randStream)
	r.Seed(seed)
	return r
}

// Int31 is math/rand's Rand.Int31.
func (r *randStream) Int31() int32 { return int32(r.Int63() >> 32) }

// Int31n is math/rand's Rand.Int31n.
func (r *randStream) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Int63n is math/rand's Rand.Int63n.
func (r *randStream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn is math/rand's Rand.Intn.
func (r *randStream) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 is math/rand's Rand.Float64, resampling the 1-in-2⁵³ draw that
// rounds to 1.
func (r *randStream) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// lehmerSeed maps a seed to the Lehmer state math/rand starts its chain from.
func lehmerSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lehmer returns 48271ᵏ·x mod (2³¹−1), given pow = 48271ᵏ mod (2³¹−1). The
// product is below 2⁶², and folding its high bits onto its low ones reduces
// it to below 2·(2³¹−1).
func lehmer(x uint64, pow uint32) uint64 {
	p := x * uint64(pow)
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// seedRegister fills vec as math/rand's Seed(seed) does, with mix where
// math/rand XORs in its cooked table: word i is built from steps 21+3i,
// 22+3i and 23+3i of the Lehmer chain (the first 20 are discarded).
func seedRegister(vec, mix *[rngLen]int64, seed int64) {
	x := lehmerSeed(seed)
	pow := lehmerPow[21:]
	for i := range vec {
		p := pow[3*i : 3*i+3]
		vec[i] = int64(lehmer(x, p[0]))<<40 ^ int64(lehmer(x, p[1]))<<20 ^ int64(lehmer(x, p[2])) ^ mix[i]
	}
}

// Seed sets the register to what math/rand's rngSource.Seed(seed) sets.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seedRegister(&s.vec, &cooked, seed)
}

// Uint64 is math/rand's rngSource.Uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is math/rand's rngSource.Int63.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// deriveCooked recovers math/rand's cooked table from rand.NewSource(1). Its
// first 607 outputs o₁…o₆₀₇ determine the register v it was seeded to:
// output k adds the tap word (607−k mod 607) into the feed word (334−k mod
// 607), and from k = 274 on the tap word is the output of step k−273, so
// v[(334−k) mod 607] = oₖ − oₖ₋₂₇₃; before that the tap word is still the
// seeded v[607−k], recovered by then, so v[334−k] = oₖ − v[607−k]. The
// cooked table is v XOR the words seed 1 gives before the XOR.
func deriveCooked() (c [rngLen]int64) {
	ref := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]int64 // o[k] is output k, from 1
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(ref.Uint64())
	}
	const feed0 = rngLen - rngTap
	var v [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(feed0-k+rngLen)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[feed0-k] = o[k] - v[rngLen-k]
	}
	seedRegister(&c, &v, 1)
	return c
}
