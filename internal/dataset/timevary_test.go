package dataset

import (
	"hash/fnv"
	"testing"
)

// Time-varying partitioners: shards are pure functions of
// (seed, clientID, round), stages change exactly at their boundaries, and
// a round-keyed draw never depends on which rounds a dataset answered
// before it. The derived-draw cache that once made that a hazard is gone
// (every draw is recomputed from Split); these tests now pin that
// recomputation is stable under any query order.

// labelAt reads one example's final label without generating its sample:
// the exact label path of ClientData.Get.
func labelAt(d *Dataset, cd *ClientData, i int) int {
	class := cd.shard.ClassAt(i)
	y := d.flipLabel(class, int64(cd.id), int64(i))
	if cd.shard.FlipRate > 0 {
		if cd.shard.FlipLabel != 0 {
			return d.extraFlipAtRound(y, cd.shard.FlipRate, cd.shard.FlipLabel, int64(cd.id), int64(i), int64(cd.shard.Round))
		}
		return d.extraFlip(y, cd.shard.FlipRate, int64(cd.id), int64(i))
	}
	return y
}

// labelDigest fingerprints one (client, round) shard's full label sequence.
func labelDigest(d *Dataset, cd *ClientData) uint64 {
	h := fnv.New64a()
	for i := 0; i < cd.Len(); i++ {
		y := labelAt(d, cd, i)
		h.Write([]byte{byte(y), byte(y >> 8)})
	}
	return h.Sum64()
}

func TestIncrementalClassesStages(t *testing.T) {
	spec, err := Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	const period = 2
	d := New(spec, 42).WithPartitioner(IncrementalClasses{Period: period})
	// Stage s (rounds [s·period, (s+1)·period)) exposes exactly 2+s classes.
	for round := 0; round < 8; round++ {
		visible := incrementalStartClasses + round/period
		seen := map[int]bool{}
		for id := 0; id < 4; id++ {
			cd := d.ClientAt(id, round)
			if len(cd.Classes()) != visible {
				t.Fatalf("round %d: %d visible classes, want %d", round, len(cd.Classes()), visible)
			}
			for i := 0; i < cd.Len(); i++ {
				c := cd.shard.ClassAt(i)
				if c >= visible {
					t.Fatalf("round %d: client %d example %d drew class %d outside the visible %d", round, id, i, c, visible)
				}
				seen[c] = true
			}
		}
		if len(seen) != visible {
			t.Fatalf("round %d: only %d of %d visible classes materialized across 4 clients", round, len(seen), visible)
		}
	}
	// Rounds inside one stage share their shard bit-for-bit; a stage
	// boundary redraws it.
	cd0, cd1 := d.ClientAt(0, 0), d.ClientAt(0, 1)
	if labelDigest(d, cd0) != labelDigest(d, cd1) {
		t.Fatal("rounds 0 and 1 share a stage but drew different shards")
	}
	if labelDigest(d, cd0) == labelDigest(d, d.ClientAt(0, period)) {
		t.Fatal("stage boundary did not redraw the shard")
	}
	// The visible set saturates at the benchmark's class count.
	far := d.ClientAt(0, 1000)
	if len(far.Classes()) != spec.Classes {
		t.Fatalf("far-horizon round exposes %d classes, want cap %d", len(far.Classes()), spec.Classes)
	}
}

func TestDecayingLabelNoiseHalves(t *testing.T) {
	spec, err := Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	const period = 3
	d := New(spec, 42).WithPartitioner(DecayingLabelNoise{Period: period})
	for id := 0; id < 4; id++ {
		r0 := d.ClientAt(id, 0).shard.FlipRate
		if r0 <= 0 || r0 > labelNoiseMaxRate {
			t.Fatalf("client %d base rate %v outside (0, %v]", id, r0, labelNoiseMaxRate)
		}
		rp := d.ClientAt(id, period).shard.FlipRate
		if diff := rp - r0/2; diff < -1e-15 || diff > 1e-15 {
			t.Fatalf("client %d rate at round %d = %v, want half of %v", id, period, rp, r0)
		}
	}
	// Flip coins are redrawn per round: some example's realized label
	// changes between rounds within one rate regime.
	cd0, cd1 := d.ClientAt(0, 0), d.ClientAt(0, 1)
	if labelDigest(d, cd0) == labelDigest(d, cd1) {
		t.Fatal("decaying-noise rounds 0 and 1 drew identical flip coins")
	}
	// Aggregate mislabelling must trend to zero as the rate decays.
	flips := func(round int) int {
		n := 0
		for id := 0; id < 4; id++ {
			cd := d.ClientAt(id, round)
			for i := 0; i < cd.Len(); i++ {
				if labelAt(d, cd, i) != cd.shard.ClassAt(i) {
					n++
				}
			}
		}
		return n
	}
	early, late := flips(0), flips(10*period)
	if late >= early {
		t.Fatalf("flips did not decay: %d at round 0 vs %d at round %d", early, late, 10*period)
	}
}

// TestTimeVaryingOrderInvariance: a shard is a pure function of
// (seed, id, round) — the order rounds and clients are queried in, and
// whether the dataset answered other queries first, must not change a
// single label. It began as the regression for the derived cache's
// round-blind keys (a warmed cache served round-r draws for round-r′);
// that cache is deleted, and "warm" now means a dataset that has already
// answered other rounds.
func TestTimeVaryingOrderInvariance(t *testing.T) {
	spec, err := Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	const rounds, clients = 6, 3
	for _, part := range []Partitioner{IncrementalClasses{Period: 2}, DecayingLabelNoise{Period: 2}} {
		// Fresh dataset per (id, round): no earlier query can touch a digest.
		cold := map[[2]int]uint64{}
		for id := 0; id < clients; id++ {
			for r := 0; r < rounds; r++ {
				d := New(spec, 42).WithPartitioner(part)
				cold[[2]int{id, r}] = labelDigest(d, d.ClientAt(id, r))
			}
		}
		// One shared dataset, rounds visited in descending order with clients
		// interleaved — maximally unlike the cold pass.
		warm := New(spec, 42).WithPartitioner(part)
		for r := rounds - 1; r >= 0; r-- {
			for id := clients - 1; id >= 0; id-- {
				got := labelDigest(warm, warm.ClientAt(id, r))
				if got != cold[[2]int{id, r}] {
					t.Fatalf("%s: client %d round %d: warmed-cache shard diverges from cold recomputation", part.Name(), id, r)
				}
			}
		}
		// Re-query after every shard was answered once: still identical.
		for id := 0; id < clients; id++ {
			for r := 0; r < rounds; r++ {
				if labelDigest(warm, warm.ClientAt(id, r)) != cold[[2]int{id, r}] {
					t.Fatalf("%s: client %d round %d: cached re-query diverges", part.Name(), id, r)
				}
			}
		}
	}
}

// TestDerivedCacheRoundKeys pins round keying at the draw level. It was
// written for the derived cache's key fix (round-keyed streams memoized on
// their full key, round-static streams on the round-0 key); the cache is
// deleted, so it now pins that round-keyed draws depend on their round and
// on nothing a dataset answered earlier.
func TestDerivedCacheRoundKeys(t *testing.T) {
	spec, err := Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	// Reference values from datasets that only ever answered one round each.
	ref0 := New(spec, 42).pickAtRound(labelIncrementalPick, 1, 2, 0, 4)
	ref5 := New(spec, 42).pickAtRound(labelIncrementalPick, 1, 2, 5, 4)
	d := New(spec, 42)
	if got := d.pickAtRound(labelIncrementalPick, 1, 2, 5, 4); got != ref5 {
		t.Fatalf("round-5 pick = %d, want %d", got, ref5)
	}
	// The poisoned-cache probe: when the derived cache keyed without the
	// round, this returned the round-5 value drawn just above.
	if got := d.pickAtRound(labelIncrementalPick, 1, 2, 0, 4); got != ref0 {
		t.Fatalf("round-0 pick after round-5 warm-up = %d, want %d", got, ref0)
	}
	// Distinct rounds are genuinely distinct streams, not one recycled draw:
	// over many indices the two rounds must disagree somewhere.
	differ := false
	for i := int64(0); i < 64 && !differ; i++ {
		differ = d.pickAtRound(labelIncrementalPick, 1, i, 0, 10) != d.pickAtRound(labelIncrementalPick, 1, i, 5, 10)
	}
	if !differ {
		t.Fatal("round-keyed pick stream identical across rounds")
	}
	// Same discipline for the flip-coin stream.
	fd0 := New(spec, 42).flipDrawAtRound(labelDecayFlip, 1, 2, 0)
	d2 := New(spec, 42)
	d2.flipDrawAtRound(labelDecayFlip, 1, 2, 7)
	if got := d2.flipDrawAtRound(labelDecayFlip, 1, 2, 0); got != fd0 {
		t.Fatal("round-0 flip draw poisoned by a round-7 warm-up")
	}
	// Round-static streams are untouched by round-keyed traffic on the same
	// (label, stream, idx): each draw is its own Split of the labels.
	u := New(spec, 42).unitAt(3300, 1, 2)
	if got := d2.unitAt(3300, 1, 2); got != u {
		t.Fatal("round-static unit draw diverges on a warmed cache")
	}
}
