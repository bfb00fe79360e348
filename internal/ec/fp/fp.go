// Package fp implements fixed-size prime-field arithmetic for the
// elliptic-curve hot path: 4×64-bit limb elements held in Montgomery
// form, with CIOS (coarsely integrated operand scanning) multiplication
// and fully in-place, allocation-free operations.
//
// One Field instance is built per curve prime at package-ec init time.
// All bundled primes (P-256, P-224, P-192) are odd and fit in four
// 64-bit limbs, so a single generic implementation with R = 2^256
// serves every curve; narrower primes simply carry zero top limbs.
//
// Add, Sub, Dbl, Neg, Mul, Sqr, Inv, FillBytes and CondMove are
// branch-free in their operands and index no table by them: the final
// conditional subtractions are masked selects, and Inv's Fermat
// exponent is the public p − 2. They serve the constant-time
// secret-scalar ladder of package ec as well as the public paths.
// IsZero, Equal, BatchInv and the big.Int conversions are variable
// time and serve public values only. The package is a
// research/simulation substrate, not audited production code.
package fp

import (
	"errors"
	"math/big"
	"math/bits"
)

// Limbs is the fixed limb count of an Element. R = 2^(64·Limbs).
const Limbs = 4

// Element is a field element in Montgomery form: the element a is
// stored as a·R mod p, little-endian limbs. The zero value is the
// field's zero (0·R = 0).
type Element [Limbs]uint64

// Field holds the per-prime Montgomery constants. It is immutable
// after New and safe for concurrent use.
type Field struct {
	p    [Limbs]uint64 // the modulus, little-endian limbs
	n0   uint64        // −p⁻¹ mod 2^64 (Montgomery reduction factor)
	rr   Element       // R² mod p, the to-Montgomery conversion factor
	one  Element       // R mod p, i.e. 1 in Montgomery form
	pm2  [Limbs]uint64 // p − 2, the Fermat inversion exponent
	pBig *big.Int      // the modulus as big.Int (boundary conversions)
}

// New builds the Montgomery context for an odd prime p < 2^256.
func New(p *big.Int) (*Field, error) {
	if p.Sign() <= 0 || p.Bit(0) == 0 || p.BitLen() > 64*Limbs {
		return nil, errors.New("fp: modulus must be an odd prime of at most 256 bits")
	}
	f := &Field{pBig: new(big.Int).Set(p)}
	fillLimbs(&f.p, p)

	// n0 = −p⁻¹ mod 2^64 by Newton iteration: each step doubles the
	// number of correct low bits, so five steps reach 64 from 5.
	inv := f.p[0] // correct to 3 bits for odd p
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.n0 = -inv

	r := new(big.Int).Lsh(big.NewInt(1), 64*Limbs)
	rModP := new(big.Int).Mod(r, p)
	fillLimbs((*[Limbs]uint64)(&f.one), rModP)
	rr := new(big.Int).Mul(rModP, rModP)
	rr.Mod(rr, p)
	fillLimbs((*[Limbs]uint64)(&f.rr), rr)

	pm2 := new(big.Int).Sub(p, big.NewInt(2))
	fillLimbs(&f.pm2, pm2)
	return f, nil
}

// fillLimbs writes v (< 2^256) into little-endian limbs.
func fillLimbs(dst *[Limbs]uint64, v *big.Int) {
	var buf [8 * Limbs]byte
	v.FillBytes(buf[:])
	for i := 0; i < Limbs; i++ {
		off := 8 * (Limbs - 1 - i)
		dst[i] = uint64(buf[off])<<56 | uint64(buf[off+1])<<48 |
			uint64(buf[off+2])<<40 | uint64(buf[off+3])<<32 |
			uint64(buf[off+4])<<24 | uint64(buf[off+5])<<16 |
			uint64(buf[off+6])<<8 | uint64(buf[off+7])
	}
}

// Modulus returns the prime as a fresh big.Int.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.pBig) }

// One returns 1 in Montgomery form.
func (f *Field) One() Element { return f.one }

// SetZero sets z to 0.
func (f *Field) SetZero(z *Element) { *z = Element{} }

// SetOne sets z to 1 (Montgomery form).
func (f *Field) SetOne(z *Element) { *z = f.one }

// IsZero reports whether x is 0. Zero's Montgomery form is zero and
// elements are kept fully reduced, so a limb test suffices.
func (f *Field) IsZero(x *Element) bool {
	return x[0]|x[1]|x[2]|x[3] == 0
}

// Equal reports whether x and y are the same field element. Reduced
// Montgomery representations are unique, so limb equality is exact.
func (f *Field) Equal(x, y *Element) bool {
	return x[0] == y[0] && x[1] == y[1] && x[2] == y[2] && x[3] == y[3]
}

// FromBig converts a big.Int (any sign, any magnitude) into Montgomery
// form, reducing modulo p. Allocates only via big.Int scratch; intended
// for the affine boundary, not the inner loop.
func (f *Field) FromBig(z *Element, v *big.Int) {
	var red *big.Int
	if v.Sign() < 0 || v.Cmp(f.pBig) >= 0 {
		red = new(big.Int).Mod(v, f.pBig)
	} else {
		red = v
	}
	var t Element
	fillLimbs((*[Limbs]uint64)(&t), red)
	f.Mul(z, &t, &f.rr) // t·R² · R⁻¹ = t·R
}

// ToBig converts x out of Montgomery form into a fresh big.Int.
func (f *Field) ToBig(x *Element) *big.Int {
	var buf [8 * Limbs]byte
	f.FillBytes(buf[:], x)
	return new(big.Int).SetBytes(buf[:])
}

// FillBytes writes x, out of Montgomery form, into dst as a big-endian
// integer zero-padded on the left. dst must hold the value: at most
// 8·Limbs bytes, and never fewer than the prime's byte length. It
// branches on nothing but len(dst).
func (f *Field) FillBytes(dst []byte, x *Element) {
	var t Element
	one := Element{1}
	f.Mul(&t, x, &one) // x·R · 1 · R⁻¹ = x
	for i := range dst {
		j := len(dst) - 1 - i // byte i counted from the least significant end
		dst[j] = byte(t[i/8] >> (8 * uint(i%8)))
	}
}

// Add sets z = x + y mod p. Aliasing among z, x, y is allowed.
func (f *Field) Add(z, x, y *Element) {
	var t Element
	var c uint64
	t[0], c = bits.Add64(x[0], y[0], 0)
	t[1], c = bits.Add64(x[1], y[1], c)
	t[2], c = bits.Add64(x[2], y[2], c)
	t[3], c = bits.Add64(x[3], y[3], c)
	// x + y < 2p may exceed 2^256 (carry set) or merely exceed p.
	var r Element
	var b uint64
	r[0], b = bits.Sub64(t[0], f.p[0], 0)
	r[1], b = bits.Sub64(t[1], f.p[1], b)
	r[2], b = bits.Sub64(t[2], f.p[2], b)
	r[3], b = bits.Sub64(t[3], f.p[3], b)
	selectReduced(z, &r, &t, c|(b^1))
}

// Dbl sets z = 2x mod p.
func (f *Field) Dbl(z, x *Element) { f.Add(z, x, x) }

// Sub sets z = x − y mod p. Aliasing is allowed.
func (f *Field) Sub(z, x, y *Element) {
	var t Element
	var b uint64
	t[0], b = bits.Sub64(x[0], y[0], 0)
	t[1], b = bits.Sub64(x[1], y[1], b)
	t[2], b = bits.Sub64(x[2], y[2], b)
	t[3], b = bits.Sub64(x[3], y[3], b)
	// On borrow add p back, masked rather than branched.
	mask := -b
	var c uint64
	z[0], c = bits.Add64(t[0], f.p[0]&mask, 0)
	z[1], c = bits.Add64(t[1], f.p[1]&mask, c)
	z[2], c = bits.Add64(t[2], f.p[2]&mask, c)
	z[3], _ = bits.Add64(t[3], f.p[3]&mask, c)
}

// Neg sets z = −x mod p.
func (f *Field) Neg(z, x *Element) {
	// p − x, masked to 0 when x = 0 (p itself is not reduced).
	mask := nonzeroMask(x[0] | x[1] | x[2] | x[3])
	var b uint64
	z[0], b = bits.Sub64(f.p[0], x[0], 0)
	z[1], b = bits.Sub64(f.p[1], x[1], b)
	z[2], b = bits.Sub64(f.p[2], x[2], b)
	z[3], _ = bits.Sub64(f.p[3], x[3], b)
	z[0] &= mask
	z[1] &= mask
	z[2] &= mask
	z[3] &= mask
}

// nonzeroMask returns all ones when v ≠ 0 and zero otherwise, without
// branching on v.
func nonzeroMask(v uint64) uint64 { return -((v | -v) >> 63) }

// selectReduced sets z = r when sel ≠ 0 and z = t otherwise, without
// branching on sel: the final conditional subtraction of Add, Mul and
// Sqr.
func selectReduced(z, r, t *Element, sel uint64) {
	mask := nonzeroMask(sel)
	z[0] = t[0] ^ (mask & (t[0] ^ r[0]))
	z[1] = t[1] ^ (mask & (t[1] ^ r[1]))
	z[2] = t[2] ^ (mask & (t[2] ^ r[2]))
	z[3] = t[3] ^ (mask & (t[3] ^ r[3]))
}

// CondMove sets z = x when move is 1 and leaves z unchanged when it is
// 0, touching both operands either way: the masked table select of the
// constant-time scalar multiplications in package ec.
func CondMove(z, x *Element, move uint64) {
	mask := -move
	z[0] ^= mask & (z[0] ^ x[0])
	z[1] ^= mask & (z[1] ^ x[1])
	z[2] ^= mask & (z[2] ^ x[2])
	z[3] ^= mask & (z[3] ^ x[3])
}

// madd1 returns the 128-bit a·b + c as (hi, lo).
func madd1(a, b, c uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry // hi ≤ 2^64−2, no overflow
	return hi, lo
}

// madd2 returns the 128-bit a·b + c + d as (hi, lo).
func madd2(a, b, c, d uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	var carry uint64
	c, carry = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return hi, lo
}

// Mul sets z = x·y·R⁻¹ mod p — Montgomery multiplication via the
// textbook CIOS loop (Koç, Acar, Kaliski 1996). With both inputs in
// Montgomery form the result is the Montgomery form of the product.
// Aliasing among z, x, y is allowed. No heap allocation.
func (f *Field) Mul(z, x, y *Element) {
	// t[0..3] running accumulator, t4/t5 the two overflow words of the
	// (Limbs+2)-word CIOS state. The modulus' top limb may exceed 2^63
	// (it does for P-256), so the no-carry shortcut is unavailable and
	// both overflow words are tracked.
	var t [Limbs]uint64
	var t4, t5 uint64
	for i := 0; i < Limbs; i++ {
		yi := y[i]
		var c, carry uint64
		c, t[0] = madd1(x[0], yi, t[0])
		c, t[1] = madd2(x[1], yi, t[1], c)
		c, t[2] = madd2(x[2], yi, t[2], c)
		c, t[3] = madd2(x[3], yi, t[3], c)
		t4, carry = bits.Add64(t4, c, 0)
		t5 = carry // previous shift left t5 = 0, so ∈ {0, 1}

		m := t[0] * f.n0
		c, _ = madd1(m, f.p[0], t[0]) // low word cancels to 0 by choice of m
		c, t[0] = madd2(m, f.p[1], t[1], c)
		c, t[1] = madd2(m, f.p[2], t[2], c)
		c, t[2] = madd2(m, f.p[3], t[3], c)
		t[3], carry = bits.Add64(t4, c, 0)
		t4 = t5 + carry
		t5 = 0
	}
	// Result is t (with possible overflow bit t4) < 2p; one conditional
	// subtraction brings it below p.
	var r Element
	var b uint64
	r[0], b = bits.Sub64(t[0], f.p[0], 0)
	r[1], b = bits.Sub64(t[1], f.p[1], b)
	r[2], b = bits.Sub64(t[2], f.p[2], b)
	r[3], b = bits.Sub64(t[3], f.p[3], b)
	tt := Element(t)
	selectReduced(z, &r, &tt, t4|(b^1))
}

// Sqr sets z = x²·R⁻¹ mod p — the dedicated Montgomery squaring.
// Unlike Mul, the 2·Limbs-word full square is formed directly: the six
// off-diagonal products x_i·x_j (i < j) are computed once and doubled
// by a single carry-chain shift, then the four diagonal squares x_i²
// are added in, saving ten of Mul's sixteen word multiplications.
// The Montgomery reduction (four SOS steps over the 8-word square) is
// fused onto the same accumulator. Aliasing z with x is allowed. No
// heap allocation. Squarings dominate the doubling chains of every
// scalar multiplication and every Fermat inversion, so this is the
// single hottest word loop in the package.
func (f *Field) Sqr(z, x *Element) {
	// --- full square t[0..7] = x² ---
	// Off-diagonal half first: t = Σ_{i<j} x_i·x_j·2^(64(i+j)).
	p01h, p01l := bits.Mul64(x[0], x[1])
	p02h, p02l := bits.Mul64(x[0], x[2])
	p03h, p03l := bits.Mul64(x[0], x[3])
	p12h, p12l := bits.Mul64(x[1], x[2])
	p13h, p13l := bits.Mul64(x[1], x[3])
	p23h, p23l := bits.Mul64(x[2], x[3])

	var t [2 * Limbs]uint64
	var c uint64
	t[1] = p01l
	t[2], c = bits.Add64(p01h, p02l, 0)
	t[3], c = bits.Add64(p02h, p03l, c)
	t[4], _ = bits.Add64(p03h, 0, c) // p03h ≤ 2^64−2, carry absorbs

	t[3], c = bits.Add64(t[3], p12l, 0)
	t[4], c = bits.Add64(t[4], p12h, c)
	t[5] = c

	t[4], c = bits.Add64(t[4], p13l, 0)
	t[5], c = bits.Add64(t[5], p13h, c)
	t[6] = c

	t[5], c = bits.Add64(t[5], p23l, 0)
	t[6], c = bits.Add64(t[6], p23h, c)
	t[7] = c

	// Double the off-diagonal half (2^512 cannot overflow: the full
	// square x² < 2^512 bounds it).
	t[7] = t[7]<<1 | t[6]>>63
	t[6] = t[6]<<1 | t[5]>>63
	t[5] = t[5]<<1 | t[4]>>63
	t[4] = t[4]<<1 | t[3]>>63
	t[3] = t[3]<<1 | t[2]>>63
	t[2] = t[2]<<1 | t[1]>>63
	t[1] = t[1] << 1

	// Add the diagonal x_i² at word pairs (2i, 2i+1).
	d0h, d0l := bits.Mul64(x[0], x[0])
	d1h, d1l := bits.Mul64(x[1], x[1])
	d2h, d2l := bits.Mul64(x[2], x[2])
	d3h, d3l := bits.Mul64(x[3], x[3])
	t[0] = d0l
	t[1], c = bits.Add64(t[1], d0h, 0)
	t[2], c = bits.Add64(t[2], d1l, c)
	t[3], c = bits.Add64(t[3], d1h, c)
	t[4], c = bits.Add64(t[4], d2l, c)
	t[5], c = bits.Add64(t[5], d2h, c)
	t[6], c = bits.Add64(t[6], d3l, c)
	t[7], _ = bits.Add64(t[7], d3h, c) // exact: total is x² < 2^512

	// --- Montgomery reduction (SOS): four rows of m_i·p folded in.
	// The running value stays < p·(p + 2^256) < 2^513, so a single
	// overflow bit beyond t[7] suffices.
	var hi uint64
	m := t[0] * f.n0
	c, _ = madd1(m, f.p[0], t[0])
	c, t[1] = madd2(m, f.p[1], t[1], c)
	c, t[2] = madd2(m, f.p[2], t[2], c)
	c, t[3] = madd2(m, f.p[3], t[3], c)
	t[4], c = bits.Add64(t[4], c, 0)
	t[5], c = bits.Add64(t[5], 0, c)
	t[6], c = bits.Add64(t[6], 0, c)
	t[7], c = bits.Add64(t[7], 0, c)
	hi = c

	m = t[1] * f.n0
	c, _ = madd1(m, f.p[0], t[1])
	c, t[2] = madd2(m, f.p[1], t[2], c)
	c, t[3] = madd2(m, f.p[2], t[3], c)
	c, t[4] = madd2(m, f.p[3], t[4], c)
	t[5], c = bits.Add64(t[5], c, 0)
	t[6], c = bits.Add64(t[6], 0, c)
	t[7], c = bits.Add64(t[7], 0, c)
	hi += c

	m = t[2] * f.n0
	c, _ = madd1(m, f.p[0], t[2])
	c, t[3] = madd2(m, f.p[1], t[3], c)
	c, t[4] = madd2(m, f.p[2], t[4], c)
	c, t[5] = madd2(m, f.p[3], t[5], c)
	t[6], c = bits.Add64(t[6], c, 0)
	t[7], c = bits.Add64(t[7], 0, c)
	hi += c

	m = t[3] * f.n0
	c, _ = madd1(m, f.p[0], t[3])
	c, t[4] = madd2(m, f.p[1], t[4], c)
	c, t[5] = madd2(m, f.p[2], t[5], c)
	c, t[6] = madd2(m, f.p[3], t[6], c)
	t[7], c = bits.Add64(t[7], c, 0)
	hi += c

	// Result is t[4..7] (+ overflow bit) < 2p; one conditional
	// subtraction, as in Mul.
	var r Element
	var b uint64
	r[0], b = bits.Sub64(t[4], f.p[0], 0)
	r[1], b = bits.Sub64(t[5], f.p[1], b)
	r[2], b = bits.Sub64(t[6], f.p[2], b)
	r[3], b = bits.Sub64(t[7], f.p[3], b)
	tt := Element{t[4], t[5], t[6], t[7]}
	selectReduced(z, &r, &tt, hi|(b^1))
}

// BatchInv sets dst[i] = xs[i]⁻¹ mod p for every i, amortizing one
// Fermat inversion across the whole batch via Montgomery's trick:
// invert the running product of all inputs, then peel per-element
// inverses off with two multiplications each (3(n−1) multiplications
// plus one Inv, versus n full exponentiations). Zero elements are
// skipped in place — dst[i] = 0, matching Inv's 0 ↦ 0 convention and
// the way batched point normalization skips the point at infinity.
// dst and xs must have equal length and may alias (including fully:
// BatchInv(xs, xs) inverts in place). The only heap allocation is the
// prefix-product scratch, one Element per input.
func (f *Field) BatchInv(dst, xs []Element) {
	if len(dst) != len(xs) {
		panic("fp: BatchInv length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return
	}
	// prefix[i] = product of the nonzero xs[0..i-1].
	prefix := make([]Element, n+1)
	prefix[0] = f.one
	for i := range xs {
		if f.IsZero(&xs[i]) {
			prefix[i+1] = prefix[i]
			continue
		}
		f.Mul(&prefix[i+1], &prefix[i], &xs[i])
	}
	var inv Element
	f.Inv(&inv, &prefix[n]) // all-zero batch: Inv(1) = 1, loop writes only zeros
	for i := n - 1; i >= 0; i-- {
		if f.IsZero(&xs[i]) {
			f.SetZero(&dst[i])
			continue
		}
		x := xs[i] // value copy: dst may alias xs
		f.Mul(&dst[i], &prefix[i], &inv)
		f.Mul(&inv, &inv, &x)
	}
}

// Inv sets z = x⁻¹ mod p via Fermat's little theorem: x^(p−2). The
// exponentiation is 4-bit fixed-window (≈ 255 squarings + 64
// multiplications); its branches and table indexes follow the public
// exponent only, so it is constant time in x. Inv of 0 yields 0;
// callers that care check IsZero first.
func (f *Field) Inv(z, x *Element) {
	// Precompute x^1..x^15.
	var tab [15]Element
	tab[0] = *x
	for i := 1; i < 15; i++ {
		f.Mul(&tab[i], &tab[i-1], x)
	}
	r := f.one
	started := false
	for i := Limbs - 1; i >= 0; i-- {
		w := f.pm2[i]
		for nib := 15; nib >= 0; nib-- {
			if started {
				f.Sqr(&r, &r)
				f.Sqr(&r, &r)
				f.Sqr(&r, &r)
				f.Sqr(&r, &r)
			}
			d := (w >> (4 * uint(nib))) & 0xf
			if d != 0 {
				if started {
					f.Mul(&r, &r, &tab[d-1])
				} else {
					r = tab[d-1]
					started = true
				}
			}
		}
	}
	*z = r
}
