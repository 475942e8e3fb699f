package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// paritySeeds are the seeds the lazy source must reproduce math/rand on:
// math/rand's normalization edge cases (zero, ±(2³¹−1) and its multiples,
// the int64 extremes) plus real Split outputs.
func paritySeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 42,
		lehmerM, -lehmerM, 2 * lehmerM, lehmerM - 1, lehmerM + 1, 89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	for _, labels := range [][]int64{{}, {1}, {2000, 3, 17, 4}, {19, 5, 9999}, {-1, 0}} {
		for _, root := range []int64{0, 7, -123456789} {
			seeds = append(seeds, int64(mixLabels(root, labels)))
		}
	}
	return seeds
}

// parityCounts straddles every index where the lazy source changes regime:
// the first draw reading a written-back word (rngTap), the feed wrap
// (rngFeed), the tap wrap (rngLen) and the second lap (2·rngLen).
var parityCounts = []int{1, 2, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1213, 1214, 1215, 1800}

// mixedDraw applies operation op to r and returns its result as bits, so a
// mixed sequence of samplers can be compared exactly across two sources.
func mixedDraw(r *rand.Rand, op int) uint64 {
	switch op % 6 {
	case 0:
		return math.Float64bits(r.Float64())
	case 1:
		return math.Float64bits(r.NormFloat64())
	case 2:
		return uint64(r.Intn(10))
	case 3:
		return uint64(r.Intn(1<<40 + 3))
	case 4:
		return uint64(r.Int63())
	default:
		var h uint64
		for _, v := range r.Perm(7) {
			h = h*8 + uint64(v)
		}
		return h
	}
}

// TestSourceMatchesMathRand pins the lazy source to math/rand bit for bit:
// raw words and mixed sampler calls from fresh generators, and the streams
// of generators reseeded after their register was materialized (or while
// still on the closed form), which must carry nothing of the stream before.
func TestSourceMatchesMathRand(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		for _, seed := range paritySeeds() {
			for _, n := range parityCounts {
				// Raw source words, exactly n of them.
				lazy := NewRNG(seed)
				want := rand.NewSource(seed).(rand.Source64)
				for j := 0; j < n; j++ {
					if g, w := lazy.src.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, j, g, w)
					}
				}
				// n mixed sampler calls through the rand.Rand wrapper.
				lazy = NewRNG(seed)
				oracle := rand.New(rand.NewSource(seed))
				for j := 0; j < n; j++ {
					op := j*7 + int(uint64(seed)%5)
					if g, w := mixedDraw(lazy.r, op), mixedDraw(oracle, op); g != w {
						t.Fatalf("seed %d: mixed call %d (op %d) = %#x, math/rand %#x", seed, j, op%6, g, w)
					}
				}
			}
		}
	})
	t.Run("reseed", func(t *testing.T) {
		for _, before := range []int{0, 5, 273, 700, 1500} {
			lazy := NewRNG(99)
			for j := 0; j < before; j++ {
				lazy.Int63()
			}
			for k, labels := range [][]int64{{1, 2}, {3}, {2000, 0, 0, 9}} {
				lazy.Reseed(int64(k), labels...)
				want := rand.NewSource(int64(mixLabels(int64(k), labels)))
				for j := 0; j < 1300; j++ {
					if g, w := lazy.Int63(), want.Int63(); g != w {
						t.Fatalf("after %d draws, reseed %v: draw %d = %d, math/rand %d", before, labels, j, g, w)
					}
				}
			}
		}
	})
}

func FuzzSourceParity(f *testing.F) {
	f.Add(int64(0), uint16(1), uint8(0))
	f.Add(int64(lehmerM), uint16(273), uint8(1))
	f.Add(int64(math.MinInt64), uint16(608), uint8(2))
	f.Add(int64(math.MaxInt64), uint16(1214), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, mix uint8) {
		n := int(draws) % 2000
		lazy := NewRNG(seed)
		oracle := rand.New(rand.NewSource(seed))
		for j := 0; j < n; j++ {
			op := int(mix) + j*int(mix|1)
			if g, w := mixedDraw(lazy.r, op), mixedDraw(oracle, op); g != w {
				t.Fatalf("seed %d: mixed call %d (op %d) = %#x, math/rand %#x", seed, j, op%6, g, w)
			}
		}
		// A reseed of the now-advanced generator restarts the stream exactly.
		lazy.Reseed(seed, int64(mix))
		want := rand.NewSource(int64(mixLabels(seed, []int64{int64(mix)})))
		for j := 0; j < n; j++ {
			if g, w := lazy.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: reseeded draw %d = %d, math/rand %d", seed, j, g, w)
			}
		}
	})
}

var benchSink float64

// BenchmarkSplit is the cost of deriving a child stream and reading
// `draws` Gaussians from it: 1 is a per-client coin, 30 a short
// per-item stream, 784 one MNIST sample's noise.
func BenchmarkSplit(b *testing.B) {
	for _, draws := range []int{1, 30, 784} {
		b.Run(fmt.Sprintf("draws=%d", draws), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := Split(11, int64(i), 3)
				for j := 0; j < draws; j++ {
					benchSink += g.Normal(0, 1)
				}
			}
		})
	}
}

// BenchmarkReseed is BenchmarkSplit on one long-lived generator re-derived
// in place: the path that must not allocate. The generator's register is
// materialized before timing, as a pooled generator's is after first use.
func BenchmarkReseed(b *testing.B) {
	for _, draws := range []int{1, 30, 784} {
		b.Run(fmt.Sprintf("draws=%d", draws), func(b *testing.B) {
			g := NewRNG(0)
			for j := 0; j <= rngTap; j++ {
				g.Int63()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Reseed(11, int64(i), 3)
				for j := 0; j < draws; j++ {
					benchSink += g.Normal(0, 1)
				}
			}
		})
	}
}
