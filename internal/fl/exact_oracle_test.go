package fl

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"fedcdp/internal/tensor"
)

// bigExactVec is the big.Float accumulator that ExactVec replaced, kept
// verbatim (names aside) as the test oracle for the digit superaccumulator:
// big.Float addition at bigExactPrec bits never rounds inside the envelope
// of reachable sums, and its Float64 and MantExp are the reference for
// Round and ScalarWire. The special-value helpers (mergeSpec, specFloat)
// and ExactScalarWire are shared with exact.go.

// bigExactPrec is the accumulator width in bits. A float64 addend spans at
// most 53 mantissa bits anywhere in [2^-1074, 2^1024); after N ≤ 2^150
// exact additions the sum's magnitude is below 2^(1024+150), so the widest
// window any reachable sum needs is (1024+150) − (−1074) + margin < 2304.
// Within that window big.Float addition at this precision never rounds.
const bigExactPrec = 2304

// bigExactVec is a vector of exact fixed-point accumulators for float64
// addends. Addition is exact (see bigExactPrec), hence commutative and
// associative: sums are invariant to arrival order, grouping, shard
// assignment and tree fanout, which is the arithmetic foundation of the
// hierarchical fold. Round performs the single round-to-nearest-even per
// element. Not safe for concurrent use; the aggregators lock around it.
type bigExactVec struct {
	acc     []big.Float
	spec    []byte
	scratch big.Float
}

// newBigExactVec returns a zeroed n-element exact accumulator.
func newBigExactVec(n int) *bigExactVec {
	v := &bigExactVec{acc: make([]big.Float, n), spec: make([]byte, n)}
	for i := range v.acc {
		v.acc[i].SetPrec(bigExactPrec)
	}
	v.scratch.SetPrec(53)
	return v
}

// Len returns the element count.
func (v *bigExactVec) Len() int { return len(v.acc) }

// Zero resets every element to an empty sum (for reuse across rounds).
func (v *bigExactVec) Zero() {
	for i := range v.acc {
		v.acc[i].SetInt64(0)
		v.spec[i] = exactFinite
	}
}

// Add absorbs one float64 addend into element i, exactly. Zero addends are
// skipped (an exact sum is unchanged; note this canonicalizes a sum of
// negative zeros to +0, one of the documented exact-mode semantics).
// Non-finite addends fold into the element's special-value code.
func (v *bigExactVec) Add(i int, x float64) {
	if x == 0 {
		return
	}
	if math.IsNaN(x) {
		v.spec[i] = mergeSpec(v.spec[i], exactNaN)
		return
	}
	if math.IsInf(x, 1) {
		v.spec[i] = mergeSpec(v.spec[i], exactPosInf)
		return
	}
	if math.IsInf(x, -1) {
		v.spec[i] = mergeSpec(v.spec[i], exactNegInf)
		return
	}
	v.scratch.SetFloat64(x)
	v.acc[i].Add(&v.acc[i], &v.scratch)
}

// AddAll absorbs data element-wise: acc[i] += data[i].
func (v *bigExactVec) AddAll(data []float64) {
	for i, x := range data {
		v.Add(i, x)
	}
}

// AddAllScaled absorbs the float64-rounded products fl(s·data[i]) —
// exactly the addends the legacy weighted fold produces, so the exact and
// legacy folds agree on what each client contributes and differ only in
// how contributions are summed.
func (v *bigExactVec) AddAllScaled(s float64, data []float64) {
	for i, x := range data {
		v.Add(i, s*x)
	}
}

// Merge absorbs another accumulator: the grouping step of a tree fold.
func (v *bigExactVec) Merge(o *bigExactVec) error {
	if o.Len() != v.Len() {
		return fmt.Errorf("fl: exact merge of %d elements into %d", o.Len(), v.Len())
	}
	for i := range v.acc {
		v.spec[i] = mergeSpec(v.spec[i], o.spec[i])
		v.acc[i].Add(&v.acc[i], &o.acc[i])
	}
	return nil
}

// Round returns element i rounded once to the nearest float64 (ties to
// even); sums beyond the float64 range come back as ±Inf, and elements
// poisoned by non-finite addends as their IEEE-merged special value.
func (v *bigExactVec) Round(i int) float64 {
	if v.spec[i] != exactFinite {
		return specFloat(v.spec[i])
	}
	f, _ := v.acc[i].Float64()
	return f
}

// --- Wire form -------------------------------------------------------------

// The wire caps that went with the big.Float accumulator: a mantissa
// cannot be wider than it, and no exponent leaves ±2^20.
const (
	bigMantBytes = bigExactPrec / 8
	bigExpBound  = 1 << 20
)

// ScalarWire returns element i in wire form.
func (v *bigExactVec) ScalarWire(i int) ExactScalarWire {
	w := ExactScalarWire{Spec: v.spec[i]}
	a := &v.acc[i]
	if a.Sign() == 0 {
		return w
	}
	w.Neg = a.Signbit()
	var mant big.Float
	exp := a.MantExp(&mant) // |mant| ∈ [0.5, 1), value = mant·2^exp
	mant.Abs(&mant)
	p := int(a.MinPrec())
	mant.SetMantExp(&mant, p) // integer in [2^(p-1), 2^p)
	mi, _ := mant.Int(nil)    // exact: mant is an integer
	w.Mant = mi.Bytes()
	w.Exp = int64(exp - p)
	return w
}

// validateBigScalar rejects wire scalars outside the representable
// envelope before any allocation or arithmetic touches them.
func validateBigScalar(w ExactScalarWire) error {
	switch {
	case w.Spec > exactNaN:
		return fmt.Errorf("fl: unknown exact special code %d", w.Spec)
	case len(w.Mant) > bigMantBytes:
		return fmt.Errorf("fl: exact mantissa of %d bytes exceeds %d", len(w.Mant), bigMantBytes)
	case w.Exp < -bigExpBound || w.Exp > bigExpBound:
		return fmt.Errorf("fl: exact exponent %d outside ±%d", w.Exp, bigExpBound)
	}
	return nil
}

// SetScalarWire installs a wire scalar into element i, validating first.
func (v *bigExactVec) SetScalarWire(i int, w ExactScalarWire) error {
	if err := validateBigScalar(w); err != nil {
		return err
	}
	v.spec[i] = w.Spec
	a := &v.acc[i]
	if len(w.Mant) == 0 {
		a.SetInt64(0)
		return nil
	}
	var mi big.Int
	mi.SetBytes(w.Mant)
	a.SetInt(&mi)
	a.SetMantExp(a, int(w.Exp))
	if w.Neg {
		a.Neg(a)
	}
	return nil
}

// exactPair runs every operation on the digit accumulator and on the
// big.Float oracle side by side.
type exactPair struct {
	d *ExactVec
	b *bigExactVec
}

func newExactPair(n int) exactPair { return exactPair{NewExactVec(n), newBigExactVec(n)} }

func (p exactPair) add(i int, x float64) {
	p.d.Add(i, x)
	p.b.Add(i, x)
}

func (p exactPair) merge(tb testing.TB, o exactPair) {
	tb.Helper()
	if err := p.d.Merge(o.d); err != nil {
		tb.Fatal(err)
	}
	if err := p.b.Merge(o.b); err != nil {
		tb.Fatal(err)
	}
}

// rewire replaces every element by its own wire round-trip on both sides.
// A sum grown past the wire envelope (only self-doubling gets there) must
// be refused, and then stays as it is.
func (p exactPair) rewire(tb testing.TB) {
	tb.Helper()
	for i := 0; i < p.d.Len(); i++ {
		w, wb := p.d.ScalarWire(i), p.b.ScalarWire(i)
		if err := p.d.SetScalarWire(i, w); err != nil {
			if low, high, _ := mantBits(wb.Mant); wb.Exp+int64(low) >= exactLowBit && wb.Exp+int64(high) < exactHighBit {
				tb.Fatalf("element %d: in-envelope scalar %+v refused: %v", i, wb, err)
			}
			continue
		}
		if err := p.b.SetScalarWire(i, wb); err != nil {
			tb.Fatalf("element %d: oracle refused %+v: %v", i, wb, err)
		}
	}
}

// check compares Round bits and wire forms element by element.
func (p exactPair) check(tb testing.TB, ctx string) {
	tb.Helper()
	for i := 0; i < p.d.Len(); i++ {
		if got, want := p.d.Round(i), p.b.Round(i); math.Float64bits(got) != math.Float64bits(want) {
			tb.Fatalf("%s: element %d rounds to %v (%#x), oracle %v (%#x)", ctx, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := p.d.ScalarWire(i), p.b.ScalarWire(i); !sameScalarWire(got, want) {
			tb.Fatalf("%s: element %d wire %+v, oracle %+v", ctx, i, got, want)
		}
	}
}

func sameScalarWire(a, b ExactScalarWire) bool {
	return a.Spec == b.Spec && a.Neg == b.Neg && a.Exp == b.Exp && bytes.Equal(a.Mant, b.Mant) && (a.Mant == nil) == (b.Mant == nil)
}

// randomAddend draws one addend of a kind enabled in mix: raw bit patterns
// (NaN and ±Inf included), subnormals, extremes, scaled normals, specials,
// or the negation of an earlier addend to force cancellation.
func randomAddend(r *rand.Rand, mix uint8, prev []float64) float64 {
	kinds := make([]int, 0, 6)
	for k := 0; k < 6; k++ {
		if mix&(1<<k) != 0 {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		kinds = append(kinds, 0)
	}
	sign := 1.0
	if r.Intn(2) == 0 {
		sign = -1
	}
	switch kinds[r.Intn(len(kinds))] {
	case 0:
		return math.Float64frombits(r.Uint64())
	case 1:
		return sign * math.Float64frombits(r.Uint64()&(1<<52-1))
	case 2:
		return sign * []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, 0, 1, 0x1p-1022, 0x1p970, 0x1p1023}[r.Intn(7)]
	case 3:
		return r.NormFloat64() * math.Ldexp(1, r.Intn(240)-120)
	case 4:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
	default:
		if len(prev) == 0 {
			return sign
		}
		return -prev[r.Intn(len(prev))]
	}
}

// runExactParity drives a pool of accumulator pairs through n random
// adds, merges (self-merges included), wire round-trips and resets,
// checking the pairs against each other as it goes.
func runExactParity(tb testing.TB, seed int64, n int, mix uint8) {
	r := rand.New(rand.NewSource(seed))
	const elems = 3
	pool := []exactPair{newExactPair(elems), newExactPair(elems), newExactPair(elems)}
	var prev []float64
	for op := 0; op < n; op++ {
		p := pool[r.Intn(len(pool))]
		switch c := r.Intn(100); {
		case c < 60:
			x := randomAddend(r, mix, prev)
			prev = append(prev, x)
			p.add(r.Intn(elems), x)
		case c < 80:
			p.merge(tb, pool[r.Intn(len(pool))])
		case c < 92:
			p.rewire(tb)
		case c < 94:
			p.d.Zero()
			p.b.Zero()
		default:
			p.check(tb, fmt.Sprintf("seed %d op %d", seed, op))
		}
	}
	for i, p := range pool {
		p.check(tb, fmt.Sprintf("seed %d final pair %d", seed, i))
	}
}

func FuzzExactVecParity(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(0x3f))
	f.Add(int64(2), uint16(400), uint8(0x01))
	f.Add(int64(3), uint16(300), uint8(0x06))
	f.Add(int64(4), uint16(300), uint8(0x28))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mix uint8) {
		runExactParity(t, seed, int(n%1000), mix)
	})
}

func TestExactVecMatchesBigOracle(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	cases := []struct {
		name string
		a, b []float64 // addends of two accumulators that are then merged
	}{
		{"subnormal-sum", []float64{tiny, tiny, 3 * tiny}, []float64{0x0.fffffffffffffp-1022}},
		{"subnormal-into-normal", []float64{0x0.fffffffffffffp-1022, tiny}, nil},
		{"subnormal-cancel", []float64{5 * tiny, -3 * tiny}, []float64{-2 * tiny, tiny}},
		{"max-tie-to-inf", []float64{math.MaxFloat64, 0x1p970}, nil},
		{"max-below-tie", []float64{math.MaxFloat64, 0x1p970}, []float64{-tiny}},
		{"neg-max-tie-to-inf", []float64{-math.MaxFloat64}, []float64{-0x1p970}},
		{"overflow-then-back", []float64{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64}, []float64{-math.MaxFloat64, -math.MaxFloat64}},
		{"tie-to-even-down", []float64{1, 0x1p-53}, nil},
		{"tie-broken-by-sticky", []float64{1, 0x1p-53}, []float64{tiny}},
		{"tie-to-even-up", []float64{1 + 0x1p-52, 0x1p-53}, nil},
		{"negative-across-digits", []float64{-1, tiny}, []float64{0x1p-600}},
		{"cancel-to-zero", []float64{1.5, -0.25}, []float64{-1.25}},
		{"negative-zero-addends", []float64{math.Copysign(0, -1), math.Copysign(0, -1)}, []float64{math.Copysign(0, -1)}},
		{"empty", nil, nil},
		{"inf-merge-neg-inf", []float64{math.Inf(1), 1}, []float64{math.Inf(-1)}},
		{"nan-merge", []float64{2}, []float64{math.NaN(), 3}},
		{"inf-merge-finite", []float64{math.Inf(-1)}, []float64{7, -7}},
		{"disjoint-high-low", []float64{0x1p1000}, []float64{0x1p-1000}},
		{"disjoint-low-high", []float64{-0x1p-1070}, []float64{0x1p900, 0x1p-30}},
	}
	for _, c := range cases {
		a, b := newExactPair(1), newExactPair(1)
		for _, x := range c.a {
			a.add(0, x)
		}
		for _, x := range c.b {
			b.add(0, x)
		}
		a.check(t, c.name+"/a")
		b.check(t, c.name+"/b")
		a.merge(t, b)
		a.check(t, c.name+"/merged")
		b.merge(t, a)
		b.check(t, c.name+"/merged-back")
		a.rewire(t)
		a.check(t, c.name+"/rewired")
	}
	for name, x := range map[string]float64{"one": 1, "neg": -3.75, "subnormal": -tiny, "max": math.MaxFloat64, "dust": 0x1.23456789abcdep-1060} {
		// 64 self-merges double the sum 64 times and run the carry pass
		// (adds doubles per merge); the result is the oracle's value ×2^64.
		p := newExactPair(1)
		p.add(0, x)
		p.add(0, 0x1p-1074)
		scaled := newBigExactVec(1)
		scaled.Add(0, x)
		scaled.Add(0, 0x1p-1074)
		want := scaled.ScalarWire(0)
		if len(want.Mant) > 0 {
			want.Exp += 64
		}
		for k := 0; k < 64; k++ {
			p.merge(t, p)
		}
		p.check(t, "self-doubling/"+name)
		if got := p.d.ScalarWire(0); !sameScalarWire(got, want) {
			t.Fatalf("self-doubling/%s: wire %+v, oracle×2^64 %+v", name, got, want)
		}
		scaled.acc[0].SetMantExp(&scaled.acc[0], 64)
		if got, want := p.d.Round(0), scaled.Round(0); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("self-doubling/%s: rounds to %v, oracle×2^64 %v", name, got, want)
		}
	}
}

func TestExactCarryKeepsNegativeWindow(t *testing.T) {
	// The carry out of a negative top digit folds back into it; appending
	// it instead would grow the window on every pass.
	v := NewExactVec(1)
	v.Add(0, -1)
	v.Add(0, 0x1p-80)
	n := len(v.el[0].d)
	for k := 0; k < 100; k++ {
		v.carryAll()
	}
	if len(v.el[0].d) != n {
		t.Fatalf("carry passes grew the window from %d to %d digits", n, len(v.el[0].d))
	}
	if got := v.Round(0); got != -1+0x1p-80 {
		t.Fatalf("carried sum rounds to %v", got)
	}
}

func TestExactParitySweep(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 30
	}
	for s := 0; s < trials; s++ {
		runExactParity(t, int64(s), 300, uint8(s*37)|1<<uint(s%6))
	}
}

var exactFoldSink *PartialWire

// BenchmarkExactFold folds a 2,114-element update (the cancer MLP's size)
// into an exact accumulator, with the digit superaccumulator and the
// big.Float oracle, and times an edge partial's encode (Partial.Wire) and
// decode (PartialFromWire). ns/elem divides by the update's elements.
//
//	go test -run NONE -bench ExactFold -benchmem ./internal/fl
func BenchmarkExactFold(b *testing.B) {
	const n = 2114
	g := tensor.NewRNG(11)
	updates := make([][]float64, 8)
	for k := range updates {
		updates[k] = make([]float64, n)
		for i := range updates[k] {
			updates[k][i] = g.Normal(0, 0.05)
		}
	}
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
	}
	b.Run("AddAll/digits", func(b *testing.B) {
		v := NewExactVec(n)
		for _, u := range updates {
			v.AddAll(u)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.AddAll(updates[i%len(updates)])
		}
		perElem(b)
	})
	b.Run("AddAll/big", func(b *testing.B) {
		v := newBigExactVec(n)
		for _, u := range updates {
			v.AddAll(u)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.AddAll(updates[i%len(updates)])
		}
		perElem(b)
	})
	v := NewExactVec(n)
	for k := 0; k < 100; k++ {
		v.AddAll(updates[k%len(updates)])
	}
	p := &Partial{Rule: AggFedSGD, Clients: 100, Shapes: [][]int{{n}}, Sums: []*ExactVec{v}}
	b.Run("Wire", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exactFoldSink = p.Wire()
		}
		perElem(b)
	})
	w := p.Wire()
	b.Run("FromWire", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PartialFromWire(w); err != nil {
				b.Fatal(err)
			}
		}
		perElem(b)
	})
}
