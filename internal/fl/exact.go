package fl

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"fedcdp/internal/tensor"
)

// Hierarchical (sharded) aggregation. Edge aggregators each own a shard of
// the client population, fold their shard's updates locally, and forward
// one weight-carrying partial fold upstream; the root composes partials
// exactly as it composes client updates. The correctness obligation is
// strong: a tree fold over ANY shard assignment must reproduce the flat
// fold bit for bit. Floating-point addition is not associative, so a float
// partial sum cannot honor that — instead the sharded fold accumulates in
// an exact wide fixed-point representation (ExactVec below): every float64
// addend is absorbed without rounding, sums over any grouping and in any
// order are the same mathematical value, and a single round-to-nearest
// happens at Commit. Exactness is what makes the tree ≡ flat guarantee a
// theorem instead of a tolerance — and, as a bonus, makes arrival-order
// streaming folds bit-reproducible at any GOMAXPROCS.
//
// The exact fold is opt-in (Config.Shards ≥ 1, core.Config.Shards,
// fedserve -agg-shards): its committed bits differ from the legacy float
// aggregators' order-dependent sums, so the flat parity oracle for a tree
// fold is the single-shard exact fold (Shards=1), and every pre-existing
// seeded golden — which runs with Shards=0 — is untouched.

// Each ExactVec element is a superaccumulator (Neal, "Fast exact summation
// using small and large superaccumulators", arXiv:1505.05571): a window of
// signed radix-2^32 digits held in int64s, worth
//
//	Σ d[j]·2^(32·(lo+j) − exactBias)
//
// Digit 0 sits below 2^-1074, the weight of a float64's lowest bit, so a
// finite addend m·2^(e−1075) (53-bit m; subnormals use e=1) is the mantissa
// shifted left by (e+13) mod 32 and lands in three consecutive digits: an
// Add is three int64 additions. The window grows on demand and Zero keeps
// its capacity, so a reused accumulator allocates nothing.
//
// One addition moves a digit by less than 2^32, so the int64 digits absorb
// exactCarryEvery additions (or merges of that many) before a carry pass
// must bring every digit but the top back into [0, 2^32) and the signed top
// into [−2^32, 2^32).
const (
	exactBias       = 1088 // 34 digits below 2^0
	exactCarryEvery = 1 << 29
	exactDigitMask  = 1<<32 - 1
)

// The envelope of reachable sums. Every addend is a multiple of 2^-1074
// and below 2^1024 in magnitude, and no fold absorbs 2^64 addends, so no
// honest sum has a set bit outside [2^-1074, 2^(1024+64)); wire scalars
// outside it are rejected. The window then spans at most 68 digits.
const (
	exactLowBit  = -1074
	exactHighBit = 1024 + 64
)

// exactStackDigits sizes the stack scratch that Round and ScalarWire carry
// a copy of the window in. Model updates span a few digits; a wider window
// (up to the envelope's 68) spills to the heap.
const exactStackDigits = 16

// Special-value codes tracked per element beside the exact accumulator
// (the digits hold finite values only, and ±Inf must merge by IEEE rules:
// opposite infinities yield NaN, NaN absorbs everything).
const (
	exactFinite byte = iota
	exactPosInf
	exactNegInf
	exactNaN
)

// mergeSpec combines two special-value codes under IEEE addition rules.
func mergeSpec(a, b byte) byte {
	switch {
	case a == exactFinite:
		return b
	case b == exactFinite:
		return a
	case a == b:
		return a
	default: // mixed infinities, or anything with NaN
		return exactNaN
	}
}

// specFloat materializes a special-value code.
func specFloat(s byte) float64 {
	switch s {
	case exactPosInf:
		return math.Inf(1)
	case exactNegInf:
		return math.Inf(-1)
	default:
		return math.NaN()
	}
}

// ExactVec is a vector of exact fixed-point accumulators for float64
// addends. Addition is exact (see exactBias), hence commutative and
// associative: sums are invariant to arrival order, grouping, shard
// assignment and tree fanout, which is the arithmetic foundation of the
// hierarchical fold. Round performs the single round-to-nearest-even per
// element. Not safe for concurrent use; the aggregators lock around it.
type ExactVec struct {
	el   []exactDigits
	spec []byte
	// adds bounds the additions any element absorbed since the last carry
	// pass: every digit's magnitude is at most adds·2^32.
	adds int
}

// exactDigits is one element's digit window; an empty window is zero.
type exactDigits struct {
	lo int32 // digit index of d[0]
	d  []int64
}

// NewExactVec returns a zeroed n-element exact accumulator.
func NewExactVec(n int) *ExactVec {
	return &ExactVec{el: make([]exactDigits, n), spec: make([]byte, n)}
}

// Len returns the element count.
func (v *ExactVec) Len() int { return len(v.el) }

// Zero resets every element to an empty sum (for reuse across rounds).
func (v *ExactVec) Zero() {
	for i := range v.el {
		v.el[i].d = v.el[i].d[:0]
		v.spec[i] = exactFinite
	}
	v.adds = 0
}

// Add absorbs one float64 addend into element i, exactly. Zero addends are
// skipped (an exact sum is unchanged; note this canonicalizes a sum of
// negative zeros to +0, one of the documented exact-mode semantics).
// Non-finite addends fold into the element's special-value code.
func (v *ExactVec) Add(i int, x float64) {
	v.add(i, x)
	v.counted()
}

// AddAll absorbs data element-wise: acc[i] += data[i].
func (v *ExactVec) AddAll(data []float64) {
	for i, x := range data {
		v.add(i, x)
	}
	v.counted()
}

// AddAllScaled absorbs the float64-rounded products fl(s·data[i]) —
// exactly the addends the legacy weighted fold produces, so the exact and
// legacy folds agree on what each client contributes and differ only in
// how contributions are summed.
func (v *ExactVec) AddAllScaled(s float64, data []float64) {
	for i, x := range data {
		v.add(i, s*x)
	}
	v.counted()
}

// counted records one more addition per element and runs the carry pass
// when the digits' headroom is used up.
func (v *ExactVec) counted() {
	v.adds++
	if v.adds >= exactCarryEvery {
		v.carryAll()
	}
}

// add absorbs x into element i without counting it.
func (v *ExactVec) add(i int, x float64) {
	b := math.Float64bits(x)
	e := uint(b>>52) & 0x7ff
	m := b & (1<<52 - 1)
	switch e {
	case 0x7ff:
		s := exactNaN
		if m == 0 {
			s = exactPosInf
			if x < 0 {
				s = exactNegInf
			}
		}
		v.spec[i] = mergeSpec(v.spec[i], s)
		return
	case 0:
		if m == 0 {
			return
		}
		e = 1
	default:
		m |= 1 << 52
	}
	p := e + 13 // bit position of m's lowest bit above digit 0's
	k := int32(p >> 5)
	s := p & 31
	d0 := int64(m << s & exactDigitMask)
	d1 := int64(m << s >> 32)
	d2 := int64(m >> (64 - s))
	el := &v.el[i]
	j := int(k - el.lo)
	if j < 0 || j+3 > len(el.d) {
		j = el.widen(k, k+3)
	}
	w := el.d[j : j+3 : j+3]
	if int64(b) < 0 {
		w[0] -= d0
		w[1] -= d1
		w[2] -= d2
	} else {
		w[0] += d0
		w[1] += d1
		w[2] += d2
	}
}

// widen extends the window to cover digit indices [lo, hi), zeroing the
// new digits, and returns the position of digit lo in the window.
func (el *exactDigits) widen(lo, hi int32) int {
	n := int32(len(el.d))
	if n == 0 {
		el.lo = lo
		el.d = zeroDigits(el.d, int(hi-lo))
		return 0
	}
	newLo, newHi := el.lo, el.lo+n
	if lo < newLo {
		newLo = lo
	}
	if hi > newHi {
		newHi = hi
	}
	shift := int(el.lo - newLo)
	old := el.d
	d := zeroDigits(old, int(newHi-newLo))
	copy(d[shift:], old[:n]) // an in-place shift up when d aliases old
	clear(d[:shift])
	el.lo, el.d = newLo, d
	return int(lo - newLo)
}

// zeroDigits returns a size-digit slice, reusing d's capacity when it
// suffices, with every digit past len(d) zeroed.
func zeroDigits(d []int64, size int) []int64 {
	if size > cap(d) {
		c := 2 * cap(d)
		if c < size+2 {
			c = size + 2
		}
		nd := make([]int64, size, c)
		copy(nd, d)
		return nd
	}
	n := len(d)
	d = d[:size]
	if n < size {
		clear(d[n:])
	}
	return d
}

// carryDigits runs a carry pass over d: every digit but the top into
// [0, 2^32), the signed top into [−2^32, 2^32). The value is unchanged;
// the window grows at the top only when the top digit itself overflows.
func carryDigits(d []int64) []int64 {
	last := len(d) - 1
	var c int64
	for j := 0; j < last; j++ {
		x := d[j] + c
		d[j] = x & exactDigitMask
		c = x >> 32
	}
	t := d[last] + c
	for t>>32 != 0 && t>>32 != -1 {
		d[last] = t & exactDigitMask
		t >>= 32
		d = append(d, 0)
		last++
	}
	d[last] = t
	return d
}

// carryAll runs the carry pass over every element.
func (v *ExactVec) carryAll() {
	for i := range v.el {
		if el := &v.el[i]; len(el.d) > 0 {
			el.d = carryDigits(el.d)
		}
	}
	v.adds = 1
}

// Merge absorbs another accumulator: the grouping step of a tree fold.
// The source is only read (a TakePartial snapshot aliases live
// accumulators), and v.Merge(v) doubles v.
func (v *ExactVec) Merge(o *ExactVec) error {
	if o.Len() != v.Len() {
		return fmt.Errorf("fl: exact merge of %d elements into %d", o.Len(), v.Len())
	}
	for i := range v.el {
		v.spec[i] = mergeSpec(v.spec[i], o.spec[i])
		src := o.el[i]
		if len(src.d) == 0 {
			continue
		}
		dst := &v.el[i]
		j := int(src.lo - dst.lo)
		if len(dst.d) == 0 || j < 0 || j+len(src.d) > len(dst.d) {
			// Never taken when o == v: a window always covers itself.
			j = dst.widen(src.lo, src.lo+int32(len(src.d)))
		}
		w := dst.d[j : j+len(src.d)]
		for k, x := range src.d {
			w[k] += x
		}
	}
	v.adds += o.adds
	if v.adds >= exactCarryEvery {
		v.carryAll()
	}
	return nil
}

// magnitude carries a copy of element i's digits in dst and returns the
// digits of |sum| (each in [0, 2^32), top digit nonzero; empty for a zero
// sum) with the sum's sign. The element itself is not modified.
func (v *ExactVec) magnitude(i int, dst []int64) (mag []int64, neg bool) {
	if len(v.el[i].d) == 0 {
		return nil, false
	}
	d := carryDigits(append(dst, v.el[i].d...))
	if neg = d[len(d)-1] < 0; neg {
		for j := range d {
			d[j] = -d[j]
		}
		d = carryDigits(d)
	}
	for len(d) > 0 && d[len(d)-1] == 0 {
		d = d[:len(d)-1]
	}
	return d, neg
}

// digitsAt returns the 64 bits of the nonnegative digit string d starting
// at bit pos (bits outside the window read as zero; pos may be negative).
func digitsAt(d []int64, pos int) uint64 {
	j, s := pos>>5, uint(pos&31)
	digit := func(k int) uint64 {
		if k < 0 || k >= len(d) {
			return 0
		}
		return uint64(d[k])
	}
	return (digit(j)|digit(j+1)<<32)>>s | digit(j+2)<<(64-s)
}

// anyBelow reports whether the nonnegative digit string d has a set bit
// below bit pos.
func anyBelow(d []int64, pos int) bool {
	if pos <= 0 {
		return false
	}
	j, s := pos>>5, uint(pos&31)
	if j >= len(d) {
		j, s = len(d), 0
	}
	for _, x := range d[:j] {
		if x != 0 {
			return true
		}
	}
	return s > 0 && d[j]&(1<<s-1) != 0
}

// Round returns element i rounded once to the nearest float64 (ties to
// even); sums beyond the float64 range come back as ±Inf, and elements
// poisoned by non-finite addends as their IEEE-merged special value. An
// empty or cancelled sum is +0.
func (v *ExactVec) Round(i int) float64 {
	if v.spec[i] != exactFinite {
		return specFloat(v.spec[i])
	}
	var buf [exactStackDigits]int64
	mag, neg := v.magnitude(i, buf[:0])
	if len(mag) == 0 {
		return 0
	}
	base := 32*int(v.el[i].lo) - exactBias // weight of mag's bit 0
	top := len(mag) - 1
	high := base + 32*top + bits.Len64(uint64(mag[top])) - 1
	// The result is m·2^q with q the weight of the last kept bit: 53 bits
	// below the top, but never under the subnormal quantum 2^-1074.
	q := high - 52
	if q < exactLowBit {
		q = exactLowBit
	}
	r := q - 1 - base // the round bit's position in mag
	x := digitsAt(mag, r)
	m := x >> 1
	if x&1 != 0 && (m&1 != 0 || anyBelow(mag, r)) {
		m++
	}
	if m == 1<<53 {
		m >>= 1
		q++
	}
	// For m in [2^52, 2^53) this is the biased exponent q+1075 over the
	// 52-bit fraction; at q = -1074 with m < 2^52 it is the subnormal m.
	f := uint64(q-exactLowBit)<<52 + m
	if q > 1023-52 {
		f = 0x7ff << 52
	}
	if neg {
		f |= 1 << 63
	}
	return math.Float64frombits(f)
}

// --- Wire form -------------------------------------------------------------

// Caps on hostile wire input, checked before the envelope: no mantissa
// exceeds 288 bytes (the codecs' long-standing bound; an envelope scalar
// needs at most 271) and no exponent leaves ±2^20.
const (
	exactMantBytes = 288
	exactExpBound  = 1 << 20
)

// ExactScalarWire is one exact accumulator element in wire form: the value
// is sign·Mant·2^Exp with Mant a big-endian minimal mantissa (empty means
// zero), plus the special-value code. The representation is canonical, so
// encode/decode round-trips preserve the sum bit for bit.
type ExactScalarWire struct {
	Spec byte
	Neg  bool
	Exp  int64
	Mant []byte
}

// ScalarWire returns element i in wire form.
func (v *ExactVec) ScalarWire(i int) ExactScalarWire {
	w, _ := v.appendScalarWire(nil, i)
	return w
}

// appendScalarWire returns element i in wire form with its mantissa
// appended to buf (capped, so later appends never overwrite it): Mant is
// odd and minimal, and Exp the weight of its lowest bit.
func (v *ExactVec) appendScalarWire(buf []byte, i int) (ExactScalarWire, []byte) {
	w := ExactScalarWire{Spec: v.spec[i]}
	var dbuf [exactStackDigits]int64
	mag, neg := v.magnitude(i, dbuf[:0])
	if len(mag) == 0 {
		return w, buf
	}
	w.Neg = neg
	b := 0
	for mag[b] == 0 {
		b++
	}
	low := 32*b + bits.TrailingZeros64(uint64(mag[b]))
	top := len(mag) - 1
	high := 32*top + bits.Len64(uint64(mag[top])) - 1
	w.Exp = int64(32*int(v.el[i].lo) - exactBias + low)
	n := (high-low)/8 + 1
	start := len(buf)
	buf = append(buf, make([]byte, n)...)
	out := buf[start:]
	for c := 0; c < n; c += 4 {
		x := digitsAt(mag, low+8*c)
		for u := c; u < n && u < c+4; u++ {
			out[n-1-u] = byte(x)
			x >>= 8
		}
	}
	w.Mant = out[:n:n]
	return w, buf
}

// mantBits returns the positions of the lowest and highest set bits of a
// big-endian mantissa; ok is false when it is zero.
func mantBits(mant []byte) (low, high int, ok bool) {
	s := 0
	for s < len(mant) && mant[s] == 0 {
		s++
	}
	if s == len(mant) {
		return 0, 0, false
	}
	t := len(mant) - 1
	for mant[t] == 0 {
		t--
	}
	low = 8*(len(mant)-1-t) + bits.TrailingZeros8(mant[t])
	high = 8*(len(mant)-1-s) + bits.Len8(mant[s]) - 1
	return low, high, true
}

// validateExactScalar rejects wire scalars outside the envelope of
// reachable sums before any allocation or arithmetic touches them. A
// scalar beyond it could not be absorbed exactly: its low bits would
// vanish from every later sum, or it would need thousands of digits.
func validateExactScalar(w ExactScalarWire) error {
	switch {
	case w.Spec > exactNaN:
		return fmt.Errorf("fl: unknown exact special code %d", w.Spec)
	case len(w.Mant) > exactMantBytes:
		return fmt.Errorf("fl: exact mantissa of %d bytes exceeds %d", len(w.Mant), exactMantBytes)
	case w.Exp < -exactExpBound || w.Exp > exactExpBound:
		return fmt.Errorf("fl: exact exponent %d outside ±%d", w.Exp, exactExpBound)
	}
	low, high, ok := mantBits(w.Mant)
	switch {
	case !ok:
	case w.Exp+int64(low) < exactLowBit:
		return fmt.Errorf("fl: exact scalar has a set bit at 2^%d, below 2^%d", w.Exp+int64(low), exactLowBit)
	case w.Exp+int64(high) >= exactHighBit:
		return fmt.Errorf("fl: exact scalar reaches 2^%d, at or above 2^%d", w.Exp+int64(high), exactHighBit)
	}
	return nil
}

// SetScalarWire installs a wire scalar into element i, validating first.
func (v *ExactVec) SetScalarWire(i int, w ExactScalarWire) error {
	if err := validateExactScalar(w); err != nil {
		return err
	}
	v.setScalarWire(i, w)
	return nil
}

// setScalarWire installs a validated wire scalar into element i.
func (v *ExactVec) setScalarWire(i int, w ExactScalarWire) {
	v.spec[i] = w.Spec
	el := &v.el[i]
	el.d = el.d[:0]
	low, high, ok := mantBits(w.Mant)
	if !ok {
		return
	}
	if v.adds == 0 {
		v.adds = 1
	}
	// Whole mantissa bytes lo..hi (counted from the least significant)
	// hold every set bit; inside the envelope byte lo starts at or above
	// digit 0. Stream them into the digits 32 bits at a time.
	lo, hi := low/8, high/8
	p := int(w.Exp) + exactBias + 8*lo
	el.widen(int32(p>>5), int32((p+8*(hi-lo)+7)>>5)+1)
	sign := int64(1)
	if w.Neg {
		sign = -1
	}
	var acc uint64
	n, k := uint(p&31), 0
	for t := len(w.Mant) - 1 - lo; t >= len(w.Mant)-1-hi; t-- {
		acc |= uint64(w.Mant[t]) << n
		if n += 8; n >= 32 {
			el.d[k] = sign * int64(acc&exactDigitMask)
			k++
			acc >>= 32
			n -= 32
		}
	}
	if n > 0 {
		el.d[k] = sign * int64(acc)
	}
}

// ExactTensorWire is one shaped exact-sum tensor in wire form.
type ExactTensorWire struct {
	Shape []int
	Elems []ExactScalarWire
}

// --- Partial folds ---------------------------------------------------------

// Partial is the weight-carrying result of an edge fold: the exact sums
// over some subset of the round's client updates, the count of distinct
// clients folded, and (for the weighted rule) the exact weight total. The
// root composes partials by exact merge, so any partition of the cohort
// into partials — one per shard, one per client, or the whole cohort at
// once — commits identical bits.
type Partial struct {
	Rule    string
	Clients int
	WSum    *ExactVec // single element; nil unless Rule is AggWeighted
	Shapes  [][]int
	Sums    []*ExactVec
}

// Merge absorbs another partial of the same rule and geometry.
func (p *Partial) Merge(o *Partial) error {
	if o.Rule != p.Rule {
		return fmt.Errorf("fl: merging %q partial into %q", o.Rule, p.Rule)
	}
	if len(o.Sums) != len(p.Sums) {
		return fmt.Errorf("fl: merging partial of %d tensors into %d", len(o.Sums), len(p.Sums))
	}
	for i := range p.Sums {
		if err := p.Sums[i].Merge(o.Sums[i]); err != nil {
			return err
		}
	}
	if p.WSum != nil {
		if o.WSum == nil {
			return fmt.Errorf("fl: weighted partial merge without a weight sum")
		}
		if err := p.WSum.Merge(o.WSum); err != nil {
			return err
		}
	}
	p.Clients += o.Clients
	return nil
}

// Wire converts the partial to its wire form. Each tensor's mantissas are
// carved from one buffer.
func (p *Partial) Wire() *PartialWire {
	w := &PartialWire{Rule: p.Rule, Clients: p.Clients, Sums: make([]ExactTensorWire, len(p.Sums))}
	for i, s := range p.Sums {
		tw := ExactTensorWire{
			Shape: append([]int(nil), p.Shapes[i]...),
			Elems: make([]ExactScalarWire, s.Len()),
		}
		// A carried window of n digits needs at most 4n+8 mantissa bytes;
		// a short guess only costs a reallocation.
		size := 0
		for _, el := range s.el {
			if len(el.d) > 0 {
				size += 4*len(el.d) + 8
			}
		}
		buf := make([]byte, 0, size)
		for j := range tw.Elems {
			tw.Elems[j], buf = s.appendScalarWire(buf, j)
		}
		w.Sums[i] = tw
	}
	if p.WSum != nil {
		w.HasWSum = true
		w.WSum = p.WSum.ScalarWire(0)
	}
	return w
}

// PartialWire is the wire form of a Partial, carried by UpdateMsg.Partial
// on edge→root sessions over either codec.
type PartialWire struct {
	Rule    string
	Clients int
	HasWSum bool
	WSum    ExactScalarWire
	Sums    []ExactTensorWire
}

// Validate reports whether the wire partial is structurally sound — rule
// known, counts and shapes bounded, every scalar in the representable
// envelope. Hostile input gets an error, never a panic or an allocation
// balloon.
func (w *PartialWire) Validate() error {
	switch w.Rule {
	case AggFedSGD, AggFedAvg, AggWeighted:
	default:
		return fmt.Errorf("fl: partial carries unknown rule %q", w.Rule)
	}
	if w.Clients < 0 || w.Clients > 1<<31 {
		return fmt.Errorf("fl: partial client count %d outside [0, 2^31]", w.Clients)
	}
	if (w.Rule == AggWeighted) != w.HasWSum {
		return fmt.Errorf("fl: partial rule %q with weight-sum presence %v", w.Rule, w.HasWSum)
	}
	if len(w.Sums) == 0 || len(w.Sums) > maxWireTensors {
		return fmt.Errorf("fl: partial carries %d tensors (want 1..%d)", len(w.Sums), maxWireTensors)
	}
	for i, t := range w.Sums {
		n, err := validShapeLen(t.Shape)
		if err != nil {
			return fmt.Errorf("fl: partial tensor %d: %w", i, err)
		}
		if len(t.Elems) != n {
			return fmt.Errorf("fl: partial tensor %d has %d elements for shape %v", i, len(t.Elems), t.Shape)
		}
		for j, e := range t.Elems {
			if err := validateExactScalar(e); err != nil {
				return fmt.Errorf("fl: partial tensor %d element %d: %w", i, j, err)
			}
		}
	}
	if w.HasWSum {
		if err := validateExactScalar(w.WSum); err != nil {
			return fmt.Errorf("fl: partial weight sum: %w", err)
		}
	}
	return nil
}

// PartialFromWire validates and decodes a wire partial.
func PartialFromWire(w *PartialWire) (*Partial, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := &Partial{
		Rule:    w.Rule,
		Clients: w.Clients,
		Shapes:  make([][]int, len(w.Sums)),
		Sums:    make([]*ExactVec, len(w.Sums)),
	}
	for i, t := range w.Sums {
		p.Shapes[i] = append([]int(nil), t.Shape...)
		v := NewExactVec(len(t.Elems))
		for j, e := range t.Elems {
			v.setScalarWire(j, e)
		}
		p.Sums[i] = v
	}
	if w.HasWSum {
		p.WSum = NewExactVec(1)
		p.WSum.setScalarWire(0, w.WSum)
	}
	return p, nil
}

// --- Topology --------------------------------------------------------------

// Topology assigns the client population to aggregation shards: contiguous
// balanced ranges when the population size K is known (the first K mod
// Shards shards own one extra client), id mod Shards when it is not (a
// standalone fedserve doesn't know K). Pure arithmetic — every participant
// derives the same assignment with no coordination.
type Topology struct {
	K      int // population size; ≤0 = unknown (modulo assignment)
	Shards int // shard count; values ≤1 collapse to one shard
}

// ShardOf returns the owning shard of a client id.
func (t Topology) ShardOf(id int) int {
	s := t.Shards
	if s <= 1 {
		return 0
	}
	if t.K <= 0 {
		if id < 0 {
			id = -id
		}
		return id % s
	}
	if id < 0 {
		return 0
	}
	if id >= t.K {
		return s - 1
	}
	q, r := t.K/s, t.K%s
	if id < r*(q+1) {
		return id / (q + 1)
	}
	return r + (id-r*(q+1))/q
}

// Range returns shard s's contiguous client range [lo, hi); it is only
// meaningful when K is known.
func (t Topology) Range(s int) (lo, hi int) {
	if t.Shards <= 1 {
		return 0, t.K
	}
	q, r := t.K/t.Shards, t.K%t.Shards
	lo = s*q + min(s, r)
	hi = lo + q
	if s < r {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- Interfaces ------------------------------------------------------------

// ClientFolder is implemented by aggregators that route folds by client
// identity (the tree fold needs the id to pick a shard; Fold does not
// carry it). The runtimes probe for it exactly as they probe for
// WeightedFolder.
type ClientFolder interface {
	FoldClient(clientID int, update []*tensor.Tensor, weight float64)
}

// PartialFolder is implemented by aggregators that can absorb an edge's
// partial fold — the root of a hierarchical deployment.
type PartialFolder interface {
	FoldPartial(p *Partial) error
}

// foldClientInto routes one update into agg with its client identity when
// the aggregator is identity-aware — the dispatch rule shared by the
// streaming, barrier and RPC runtimes (mirroring foldInto).
func foldClientInto(agg Aggregator, clientID int, update []*tensor.Tensor, weight float64) {
	if cf, ok := agg.(ClientFolder); ok {
		cf.FoldClient(clientID, update, weight)
		return
	}
	foldInto(agg, update, weight)
}

// --- Exact aggregator ------------------------------------------------------

// ExactAggregator is the exact-arithmetic fold behind hierarchical
// aggregation: one instance serves as a flat exact fold (the parity
// oracle), as an edge fold (forwarding TakePartial upstream), or as a tree
// root (absorbing partials via FoldPartial). Addends per client mirror the
// legacy aggregators exactly — fedsgd folds ΔW, fedavg folds W+ΔW,
// weighted folds fl(w·W)+fl(w·ΔW) with the same weight clamping — and the
// commit applies the same expression shape (params += inv·sum, or zero
// then add-scaled), so the only semantic difference from the legacy float
// fold is that the sum itself never rounds.
type ExactAggregator struct {
	mu     sync.Mutex
	rule   string
	base   []*tensor.Tensor
	shapes [][]int
	sums   []*ExactVec
	wsum   *ExactVec
	n      int
}

// NewExact returns an exact fold for an aggregation rule ("" = fedsgd).
func NewExact(rule string) (*ExactAggregator, error) {
	switch rule {
	case "":
		rule = AggFedSGD
	case AggFedSGD, AggFedAvg, AggWeighted:
	default:
		return nil, fmt.Errorf("fl: unknown aggregation %q", rule)
	}
	a := &ExactAggregator{rule: rule}
	if rule == AggWeighted {
		a.wsum = NewExactVec(1)
	}
	return a, nil
}

// Rule returns the aggregation rule this fold implements.
func (a *ExactAggregator) Rule() string { return a.rule }

// Begin implements Aggregator.
func (a *ExactAggregator) Begin(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	reuse := len(a.sums) == len(params)
	if reuse {
		for i, p := range params {
			if a.sums[i].Len() != p.Len() {
				reuse = false
				break
			}
		}
	}
	if reuse {
		for _, s := range a.sums {
			s.Zero()
		}
		for i, p := range params {
			a.shapes[i] = append(a.shapes[i][:0], p.Shape()...)
		}
	} else {
		a.sums = make([]*ExactVec, len(params))
		a.shapes = make([][]int, len(params))
		for i, p := range params {
			a.sums[i] = NewExactVec(p.Len())
			a.shapes[i] = append([]int(nil), p.Shape()...)
		}
	}
	if a.rule != AggFedSGD {
		if geometryMatches(a.base, params) {
			for i, p := range params {
				a.base[i].CopyFrom(p)
			}
		} else {
			a.base = tensor.CloneAll(params)
		}
	}
	if a.wsum != nil {
		a.wsum.Zero()
	}
	a.n = 0
}

// Fold implements Aggregator: an unweighted fold counts as weight 1.
func (a *ExactAggregator) Fold(update []*tensor.Tensor) { a.FoldWeighted(update, 1) }

// FoldWeighted implements WeightedFolder. Non-weighted rules ignore the
// weight, exactly as their legacy counterparts (which never see one).
// The weighted rule clamps like WeightedFedAvgAggregator.FoldWeighted.
func (a *ExactAggregator) FoldWeighted(update []*tensor.Tensor, weight float64) {
	if !(weight > 0) || math.IsInf(weight, 1) {
		weight = 1
	} else if weight > maxFoldWeight {
		weight = maxFoldWeight
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	switch a.rule {
	case AggFedSGD:
		for i, u := range update {
			a.sums[i].AddAll(u.Data())
		}
	case AggFedAvg:
		for i, u := range update {
			a.sums[i].AddAll(a.base[i].Data())
			a.sums[i].AddAll(u.Data())
		}
	case AggWeighted:
		for i, u := range update {
			a.sums[i].AddAllScaled(weight, a.base[i].Data())
			a.sums[i].AddAllScaled(weight, u.Data())
		}
		a.wsum.Add(0, weight)
	}
	a.n++
}

// FoldClient implements ClientFolder: a flat exact fold has one shard, so
// identity routing is a plain fold.
func (a *ExactAggregator) FoldClient(clientID int, update []*tensor.Tensor, weight float64) {
	a.FoldWeighted(update, weight)
}

// FoldPartial implements PartialFolder: the root absorbs one edge's
// partial by exact merge. Geometry or rule mismatches are errors — the
// runtime counts the session as failed instead of poisoning the round.
func (a *ExactAggregator) FoldPartial(p *Partial) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p.Rule != a.rule {
		return fmt.Errorf("fl: folding %q partial into %q aggregator", p.Rule, a.rule)
	}
	if len(p.Sums) != len(a.sums) {
		return fmt.Errorf("fl: partial has %d tensors, round has %d", len(p.Sums), len(a.sums))
	}
	for i := range p.Sums {
		if p.Sums[i].Len() != a.sums[i].Len() {
			return fmt.Errorf("fl: partial tensor %d has %d elements, round has %d", i, p.Sums[i].Len(), a.sums[i].Len())
		}
	}
	for i := range p.Sums {
		if err := a.sums[i].Merge(p.Sums[i]); err != nil {
			return err
		}
	}
	if a.wsum != nil {
		if p.WSum == nil {
			return fmt.Errorf("fl: weighted partial without a weight sum")
		}
		if err := a.wsum.Merge(p.WSum); err != nil {
			return err
		}
	}
	a.n += p.Clients
	return nil
}

// Count implements Aggregator; for a root it counts clients (summed from
// partials), not sessions.
func (a *ExactAggregator) Count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// Commit implements Aggregator: round each exact sum once, then apply the
// legacy rule's commit expression.
func (a *ExactAggregator) Commit(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == 0 {
		return
	}
	switch a.rule {
	case AggFedSGD:
		inv := 1 / float64(a.n)
		for i, p := range params {
			d := p.Data()
			for j := range d {
				d[j] += inv * a.sums[i].Round(j)
			}
		}
	case AggFedAvg:
		inv := 1 / float64(a.n)
		for i, p := range params {
			p.Zero()
			d := p.Data()
			for j := range d {
				d[j] += inv * a.sums[i].Round(j)
			}
		}
	case AggWeighted:
		ws := a.wsum.Round(0)
		if ws == 0 {
			return
		}
		inv := 1 / ws
		for i, p := range params {
			p.Zero()
			d := p.Data()
			for j := range d {
				d[j] += inv * a.sums[i].Round(j)
			}
		}
	}
}

// TakePartial snapshots the fold as a partial for upstream forwarding. The
// returned partial aliases the aggregator's accumulators and is valid
// until the next Begin; serialize or merge it before reusing the edge.
func (a *ExactAggregator) TakePartial() *Partial {
	a.mu.Lock()
	defer a.mu.Unlock()
	return &Partial{Rule: a.rule, Clients: a.n, WSum: a.wsum, Shapes: a.shapes, Sums: a.sums}
}

// EdgeFold wraps an edge's exact aggregator so a RoundServer can drive it
// without ever committing: the edge's round ends with TakePartial, and
// only the root applies an aggregate to parameters.
func EdgeFold(a *ExactAggregator) Aggregator { return edgeFold{a} }

type edgeFold struct{ *ExactAggregator }

func (edgeFold) Commit([]*tensor.Tensor) {}

// --- Tree aggregator -------------------------------------------------------

// TreeAggregator is the in-process multi-level aggregation tree: client
// folds route to their shard's edge, and Commit composes the edge partials
// — fanout-ary, level by level — into a root exact fold before applying
// it. Because composition is exact merge, the committed bits are invariant
// to the shard assignment and fanout; the deployment harness
// (core.RunSimnet) runs the same algebra with the edges behind real
// RoundServers on the simnet fabric.
type TreeAggregator struct {
	topo   Topology
	fanout int
	edges  []*ExactAggregator
	root   *ExactAggregator
}

// NewTree builds a tree fold for an aggregation rule over a shard
// topology. fanout bounds how many partials one compose step merges
// (≤1 = compose all at once).
func NewTree(rule string, topo Topology, fanout int) (*TreeAggregator, error) {
	if topo.Shards < 1 {
		return nil, fmt.Errorf("fl: tree aggregation needs ≥1 shard, got %d", topo.Shards)
	}
	root, err := NewExact(rule)
	if err != nil {
		return nil, err
	}
	t := &TreeAggregator{topo: topo, fanout: fanout, root: root}
	t.edges = make([]*ExactAggregator, topo.Shards)
	for i := range t.edges {
		t.edges[i], _ = NewExact(rule)
	}
	return t, nil
}

// Begin implements Aggregator.
func (t *TreeAggregator) Begin(params []*tensor.Tensor) {
	t.root.Begin(params)
	for _, e := range t.edges {
		e.Begin(params)
	}
}

// Fold implements Aggregator. Without a client identity the update lands
// on shard 0 — exact merge makes placement arithmetically irrelevant;
// identity-aware callers use FoldClient.
func (t *TreeAggregator) Fold(update []*tensor.Tensor) { t.edges[0].Fold(update) }

// FoldWeighted implements WeightedFolder (shard 0, as Fold).
func (t *TreeAggregator) FoldWeighted(update []*tensor.Tensor, weight float64) {
	t.edges[0].FoldWeighted(update, weight)
}

// FoldClient implements ClientFolder: the update folds at its shard's edge.
func (t *TreeAggregator) FoldClient(clientID int, update []*tensor.Tensor, weight float64) {
	t.edges[t.topo.ShardOf(clientID)].FoldWeighted(update, weight)
}

// Count implements Aggregator.
func (t *TreeAggregator) Count() int {
	n := 0
	for _, e := range t.edges {
		n += e.Count()
	}
	return n
}

// Commit implements Aggregator: compose the edge partials fanout-ary into
// the root, then commit the root.
func (t *TreeAggregator) Commit(params []*tensor.Tensor) {
	parts := make([]*Partial, len(t.edges))
	for i, e := range t.edges {
		parts[i] = e.TakePartial()
	}
	f := t.fanout
	if f <= 1 {
		f = len(parts)
	}
	for len(parts) > 1 {
		next := parts[:0]
		for lo := 0; lo < len(parts); lo += f {
			hi := lo + f
			if hi > len(parts) {
				hi = len(parts)
			}
			dst := parts[lo]
			for _, src := range parts[lo+1 : hi] {
				// Same-geometry merges by construction; an error here would
				// be a programming bug, not a data condition.
				if err := dst.Merge(src); err != nil {
					panic(err)
				}
			}
			next = append(next, dst)
		}
		parts = next
	}
	if err := t.root.FoldPartial(parts[0]); err != nil {
		panic(err)
	}
	t.root.Commit(params)
}

// --- Construction ----------------------------------------------------------

// NewAggregatorFor constructs the server fold for an aggregation rule and
// shard topology: shards ≤ 0 is the legacy float fold (NewAggregator,
// byte-identical to every pre-sharding run), shards = 1 the flat exact
// fold (the tree's parity oracle), shards > 1 the aggregation tree. k is
// the population size when known (≤0 falls back to modulo sharding).
//
// Robust rules (median/trimmed/krum) are order statistics over the raw
// update multiset — they are not grouping-invariant, so there is no exact
// partial an edge could forward (a median of shard medians is not the
// median). Any sharded topology combined with a robust rule is a
// configuration error here, up front, rather than a silently wrong commit.
func NewAggregatorFor(rule string, shards, fanout, k int) (Aggregator, error) {
	if shards >= 1 && RobustAggregation(rule) {
		return nil, fmt.Errorf("fl: robust aggregation %q is not grouping-invariant and cannot run on the exact/tree topology (shards=%d); use shards=0", rule, shards)
	}
	switch {
	case shards <= 0:
		return NewAggregator(rule)
	case shards == 1:
		return NewExact(rule)
	default:
		return NewTree(rule, Topology{K: k, Shards: shards}, fanout)
	}
}
