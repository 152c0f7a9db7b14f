package sim

import (
	"math"
	"math/rand"
	"testing"
)

// drawNs are the bounds the equivalence scripts pass to Intn: both sides of
// Intn's switch from Int31n to Int63n, and Int31n's power-of-two and
// rejection paths.
var drawNs = []int{1, 2, 7, 301, 1<<31 - 1, 1 << 31, 1 << 40}

// drawer is what the equivalence scripts draw from: the simulator's stream
// and math/rand's *rand.Rand.
type drawer interface {
	Int63() int64
	Uint64() uint64
	Float64() float64
	Intn(int) int
}

// draw makes the draw op selects from r — Int63, Uint64, Float64 or Intn over
// drawNs — and returns its bits.
func draw(r drawer, op byte) uint64 {
	switch k := int(op) % (3 + len(drawNs)); k {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return math.Float64bits(r.Float64())
	default:
		return uint64(r.Intn(drawNs[k-3]))
	}
}

// sameStream fails unless newRand(seed) and rand.New(rand.NewSource(seed))
// make the same draws for script, both reseeded with reseed halfway through.
func sameStream(t testing.TB, seed, reseed int64, script []byte) {
	t.Helper()
	got, want := newRand(seed), rand.New(rand.NewSource(seed))
	for i, op := range script {
		if i == len(script)/2 {
			got.Seed(reseed)
			want.Seed(reseed)
		}
		if g, w := draw(got, op), draw(want, op); g != w {
			t.Fatalf("seed %d, reseed %d: draw %d (op %d) = %#x, math/rand's %#x", seed, reseed, i, op, g, w)
		}
	}
}

// TestSourceMatchesMathRand: the simulator's stream — its source, seeded by
// jump-ahead from a table derived from math/rand, under its own copies of
// math/rand's draw algorithms — is math/rand's stream draw for draw —
// on the seeds math/rand's seed reduction treats specially (0, the value 0
// maps to, both sides of 2³¹−1, the int64 extremes) and on 1,000 iteration
// seeds, over 10⁴ mixed draws with a reseed in the middle.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1),
		math.MinInt64, math.MaxInt64}
	stream := NewSeedStream(17)
	for range 1000 {
		seeds = append(seeds, stream.Next())
	}
	script := make([]byte, 10_000)
	rand.New(rand.NewSource(3)).Read(script)
	for i, seed := range seeds {
		sameStream(t, seed, seeds[(i+1)%len(seeds)], script)
	}
}

// FuzzSeedSource: for a fuzz-chosen seed, reseed and draw script, the
// simulator's stream and math/rand's make the same draws.
func FuzzSeedSource(f *testing.F) {
	f.Add(int64(0), int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(math.MinInt64), int64(1<<31-1), []byte("mixed draws"))
	f.Fuzz(func(t *testing.T, seed, reseed int64, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		sameStream(t, seed, reseed, script)
	})
}

// BenchmarkSeed times one reseed of the simulator's source and of
// math/rand's.
func BenchmarkSeed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{{"jump-ahead", new(source)}, {"math-rand", rand.NewSource(0)}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.src.Seed(int64(i))
			}
		})
	}
}
