package tensor

// lazySource is math/rand's additive lagged Fibonacci source
// (rand.NewSource) with lazy seeding: it emits exactly the stream
// rand.NewSource(seed) emits, but computes each register word the first
// time a draw reads it instead of filling all 607 words up front.
//
// math/rand fills the register from a MINSTD Lehmer seeder
// (x ← 48271·x mod 2³¹−1), so with xₙ = seed·48271ⁿ mod (2³¹−1) register
// word i is the closed form
//
//	(x₂₁₊₃ᵢ<<40) ^ (x₂₂₊₃ᵢ<<20) ^ x₂₃₊₃ᵢ ^ rngCooked[i]
//
// and draw j < rngTap adds word(rngFeed−1−j) to word(rngLen−1−j), neither of
// which an earlier draw has overwritten. A source that is reseeded per item
// and read a handful of times — per-client coins, per-index class picks —
// therefore costs what it draws. Draw rngTap is the first to read a word an
// earlier draw wrote back; there the source fills the whole register,
// replays those writes, and runs as math/rand from then on. The register is
// kept across Seed, so a reused source allocates it at most once, and its
// closed-form draws store the words they compute into it, so reaching the
// register costs one fill, not two.
type lazySource struct {
	seed      uint64 // normalized as math/rand does: [1, 2³¹−2]
	drawn     int    // draws served from the closed form; rngTap+1 once vec is live
	tap, feed int
	vec       *[rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap // the feed index of a freshly seeded source
	rngMask = 1<<63 - 1

	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

// lehmerPow[n] = 48271ⁿ mod (2³¹−1) for every seeder step a register word
// reads, x₀ through x₂₃₊₃·₆₀₆.
var lehmerPow = func() (p [23 + 3*(rngLen-1) + 1]uint32) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = uint32(uint64(p[n-1]) * lehmerA % lehmerM)
	}
	return p
}()

// Seed resets the source to the stream rand.NewSource(seed) emits, with
// math/rand's seed normalization. It does no other work.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.drawn = 0
}

// word returns register word i of the freshly seeded source.
func (s *lazySource) word(i int) int64 {
	n := 21 + 3*i
	return s.lehmer(n)<<40 ^ s.lehmer(n+1)<<20 ^ s.lehmer(n+2) ^ rngCooked[i]
}

// lehmer returns the seeder's n-th state xₙ = seed·48271ⁿ mod (2³¹−1),
// branch-free: the product is below 2⁶², one Mersenne fold brings it
// under 2³²−2 and a second into [1, 2³¹−2] (it is never 0 mod the prime).
func (s *lazySource) lehmer(n int) int64 {
	v := s.seed * uint64(lehmerPow[n])
	v = v&lehmerM + v>>31
	return int64(v&lehmerM + v>>31)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *lazySource) Uint64() uint64 {
	if s.drawn <= rngTap {
		return s.lazyUint64()
	}
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

func (s *lazySource) lazyUint64() uint64 {
	j := s.drawn
	if j == rngTap {
		s.materialize()
		return s.Uint64()
	}
	s.drawn++
	tap := s.word(rngLen - 1 - j)
	x := s.word(rngFeed-1-j) + tap
	if s.vec != nil {
		// A register kept from an earlier stream: store both words as
		// math/rand's register holds them now, so materialize need not
		// compute them again.
		s.vec[rngLen-1-j] = tap
		s.vec[rngFeed-1-j] = x
	}
	return uint64(x)
}

// materialize brings the register to the state math/rand's would be in
// after rngTap draws and leaves tap and feed where math/rand's would be.
// A register allocated here is filled from the closed form and the rngTap
// feed writes the closed-form draws made are replayed on it; a register
// kept across Seed already holds words rngFeed−rngTap through rngLen−1
// (lazyUint64 stored them), so only the words below are computed.
func (s *lazySource) materialize() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
		for i := range s.vec {
			s.vec[i] = s.word(i)
		}
		for j := 0; j < rngTap; j++ {
			s.vec[rngFeed-1-j] += s.vec[rngLen-1-j]
		}
	} else {
		for i := 0; i < rngFeed-rngTap; i++ {
			s.vec[i] = s.word(i)
		}
	}
	s.tap, s.feed = rngLen-rngTap, rngFeed-rngTap
	s.drawn = rngTap + 1
}
