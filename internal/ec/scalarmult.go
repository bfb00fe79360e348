package ec

import "math/big"

// Public-scalar multiplication. Three strategies are provided:
//
//   - ScalarMult: 5-bit wNAF with an on-the-fly odd-multiples table,
//     used for arbitrary points (ECQV extraction); on P-256 the
//     standard library serves it in the default build.
//   - ScalarBaseMult: fixed-base comb over a cached per-curve table
//     (no doublings at all on the default backend).
//   - CombinedMult: u1·G + u2·Q, ECDSA verification on P-224 and
//     P-192 (and the oracle of P-256's crypto/ecdsa verification).
//
// Each strategy has two implementations: the default fixed-limb
// Montgomery backend (backend_fp.go, O(1) allocations per call) and
// the original math/big path below, retained as a differential oracle
// and selectable with -tags ec_purebig. All three strategies are
// variable time, which is why they take public scalars only: secret
// scalars use the constant-time SecretKey path (secret.go).

const wnafWindow = 5 // window width; table holds 2^(w-2) odd multiples

// wnaf returns the width-w non-adjacent form of k, least significant
// digit first. Digits are odd integers in (−2^(w−1), 2^(w−1)) or zero.
// One scratch big.Int serves every digit; the only remaining per-call
// allocations are the scratch, the working copy of k and the digit
// slice. (The fp backend uses the fully allocation-free wnafFixed.)
func wnaf(k *big.Int, w uint) []int8 {
	if k.Sign() == 0 {
		return nil
	}
	digits := make([]int8, 0, k.BitLen()+1)
	d := new(big.Int).Set(k)
	scratch := new(big.Int)
	mod := int64(1) << w        // 2^w
	half := int64(1) << (w - 1) // 2^(w−1)
	for d.Sign() > 0 {
		if d.Bit(0) == 1 {
			r := scratch.And(d, scratch.SetInt64(mod-1)).Int64()
			if r >= half {
				r -= mod
			}
			digits = append(digits, int8(r))
			d.Sub(d, scratch.SetInt64(r))
		} else {
			digits = append(digits, 0)
		}
		d.Rsh(d, 1)
	}
	return digits
}

// oddMultiples returns [P, 3P, 5P, ..., (2^(w−1)−1)P] in Jacobian form.
func (c *Curve) oddMultiples(p Point, w uint) []*jacobianPoint {
	count := 1 << (w - 2)
	table := make([]*jacobianPoint, count)
	table[0] = c.toJacobian(p)
	twoP := c.jacDouble(table[0])
	for i := 1; i < count; i++ {
		table[i] = c.jacAdd(table[i-1], twoP)
	}
	return table
}

// scalarMultWNAF evaluates k·P given a precomputed odd-multiples table.
func (c *Curve) scalarMultWNAF(table []*jacobianPoint, k *big.Int) *jacobianPoint {
	digits := wnaf(k, wnafWindow)
	acc := c.jacInfinity()
	for i := len(digits) - 1; i >= 0; i-- {
		acc = c.jacDouble(acc)
		d := digits[i]
		switch {
		case d > 0:
			acc = c.jacAdd(acc, table[(d-1)/2])
		case d < 0:
			acc = c.jacAdd(acc, c.jacNeg(table[(-d-1)/2]))
		}
	}
	return acc
}

// reduceScalar returns k mod n, or nil when the result is zero. A k
// already in [1, n−1] comes back as itself, unallocated, so callers
// only read the result.
func (c *Curve) reduceScalar(k *big.Int) *big.Int {
	if c.checkScalarRange(k) {
		return k
	}
	kr := new(big.Int).Mod(k, c.N)
	if kr.Sign() == 0 {
		return nil
	}
	return kr
}

// ScalarMult returns k·P. The scalar is reduced modulo the group order;
// k ≡ 0 or P = ∞ yields the point at infinity. On P-256 the standard
// library multiplies an on-curve P (see stdlibServes).
func (c *Curve) ScalarMult(p Point, k *big.Int) Point {
	if !c.useFP() {
		return c.scalarMultBig(p, k)
	}
	if p.IsInfinity() {
		return Point{}
	}
	kr := c.reduceScalar(k)
	if kr == nil {
		return Point{}
	}
	if c.stdlibServes(p) {
		return fromStdlib(c.stdlib.ScalarMult(p.X, p.Y, kr.FillBytes(make([]byte, c.byteLen))))
	}
	return c.scalarMultFP(p, kr)
}

// scalarMultBig is the math/big wNAF path, exposed internally as the
// differential oracle for the fp backend.
func (c *Curve) scalarMultBig(p Point, k *big.Int) Point {
	if p.IsInfinity() {
		return Point{}
	}
	kr := c.reduceScalar(k)
	if kr == nil {
		return Point{}
	}
	table := c.oddMultiples(p, wnafWindow)
	return c.fromJacobian(c.scalarMultWNAF(table, kr))
}

// ScalarMultNaive is the schoolbook double-and-add ladder, retained as
// a correctness oracle and as the baseline of the scalar-multiplication
// ablation bench. It runs on the same field backend as ScalarMult's
// in-repo path so the ablation isolates the recoding algorithm, not
// the field layer; that holds on every curve the standard library does
// not serve (see stdlibServes), so the ablation runs on P-224.
func (c *Curve) ScalarMultNaive(p Point, k *big.Int) Point {
	if p.IsInfinity() {
		return Point{}
	}
	kr := c.reduceScalar(k)
	if kr == nil {
		return Point{}
	}
	if c.useFP() {
		return c.scalarMultNaiveFP(p, kr)
	}
	acc := c.jacInfinity()
	add := c.toJacobian(p)
	for i := kr.BitLen() - 1; i >= 0; i-- {
		acc = c.jacDouble(acc)
		if kr.Bit(i) == 1 {
			acc = c.jacAdd(acc, add)
		}
	}
	return c.fromJacobian(acc)
}

// batchToAffine converts Jacobian points to affine with a single field
// inversion (Montgomery's trick): invert the product of all Z values,
// then peel off individual inverses by multiplication.
func (c *Curve) batchToAffine(points []*jacobianPoint) []Point {
	n := len(points)
	out := make([]Point, n)
	// prefix[i] = z_0 · z_1 · … · z_{i-1}
	prefix := make([]*big.Int, n+1)
	prefix[0] = big.NewInt(1)
	for i, p := range points {
		if p.isInfinity() {
			prefix[i+1] = prefix[i]
			continue
		}
		prefix[i+1] = modMul(prefix[i], p.z, c.P)
	}
	inv, err := modInv(prefix[n], c.P)
	if err != nil {
		// Only possible if every point was infinity.
		return out
	}
	for i := n - 1; i >= 0; i-- {
		p := points[i]
		if p.isInfinity() {
			continue
		}
		zinv := modMul(prefix[i], inv, c.P) // z_i⁻¹
		inv = modMul(inv, p.z, c.P)
		zinv2 := modSqr(zinv, c.P)
		out[i] = Point{
			X: modMul(p.x, zinv2, c.P),
			Y: modMul(p.y, modMul(zinv2, zinv, c.P), c.P),
		}
	}
	return out
}

// baseMultiples returns the cached odd-multiples table for G in affine
// form, enabling the cheaper mixed addition in the big-path wNAF loop.
func (c *Curve) baseMultiples() []Point {
	c.baseOnce.Do(func() {
		c.baseTable = c.batchToAffine(c.oddMultiples(c.Generator(), wnafWindow))
	})
	return c.baseTable
}

// scalarMultWNAFAffine is scalarMultWNAF against an affine table,
// using mixed (Jacobian + affine) additions.
func (c *Curve) scalarMultWNAFAffine(table []Point, k *big.Int) *jacobianPoint {
	digits := wnaf(k, wnafWindow)
	acc := c.jacInfinity()
	for i := len(digits) - 1; i >= 0; i-- {
		acc = c.jacDouble(acc)
		d := digits[i]
		switch {
		case d > 0:
			acc = c.jacAddAffine(acc, table[(d-1)/2])
		case d < 0:
			acc = c.jacAddAffine(acc, c.Neg(table[(-d-1)/2]))
		}
	}
	return acc
}

// ScalarBaseMult returns k·G. On the default backend this walks the
// fixed-base comb table (mixed additions only); the oracle path uses
// the cached affine odd-multiples table.
func (c *Curve) ScalarBaseMult(k *big.Int) Point {
	if !c.useFP() {
		return c.scalarBaseMultBig(k)
	}
	kr := c.reduceScalar(k)
	if kr == nil {
		return Point{}
	}
	return c.scalarBaseMultFP(kr)
}

// scalarBaseMultBig is the math/big base-point path (differential
// oracle).
func (c *Curve) scalarBaseMultBig(k *big.Int) Point {
	kr := c.reduceScalar(k)
	if kr == nil {
		return Point{}
	}
	return c.fromJacobian(c.scalarMultWNAFAffine(c.baseMultiples(), kr))
}

// CombinedMult returns u1·G + u2·Q — the ECDSA verification path of
// P-224 and P-192, and the in-repo oracle of P-256's.
// The default backend runs the u2 chain in fixed-limb wNAF and folds
// the base term in through the comb table, on every curve and in
// every degenerate case; the oracle path uses Strauss–Shamir
// interleaving.
func (c *Curve) CombinedMult(q Point, u1, u2 *big.Int) Point {
	if !c.useFP() {
		return c.combinedMultBig(q, u1, u2)
	}
	u1r := new(big.Int).Mod(u1, c.N)
	u2r := new(big.Int).Mod(u2, c.N)
	if q.IsInfinity() || u2r.Sign() == 0 {
		return c.ScalarBaseMult(u1r)
	}
	if u1r.Sign() == 0 {
		return c.scalarMultFP(q, u2r)
	}
	return c.combinedMultFP(q, u1r, u2r)
}

// combinedMultBig is the math/big Strauss–Shamir path (differential
// oracle).
func (c *Curve) combinedMultBig(q Point, u1, u2 *big.Int) Point {
	u1r := new(big.Int).Mod(u1, c.N)
	u2r := new(big.Int).Mod(u2, c.N)
	if q.IsInfinity() || u2r.Sign() == 0 {
		return c.scalarBaseMultBig(u1r)
	}
	if u1r.Sign() == 0 {
		return c.scalarMultBig(q, u2r)
	}
	return c.combinedMultBigReduced(q, u1r, u2r)
}

// straussInterleave is the shared doubling chain of Strauss–Shamir
// interleaving over reduced nonzero scalars: base-table mixed
// additions for u1's digits, with qAdd folding in each nonzero digit
// of u2's Q term. Both CombinedMult oracle paths (fresh Jacobian
// table and cached affine MultTable) share this loop.
func (c *Curve) straussInterleave(u1r, u2r *big.Int, qAdd func(*jacobianPoint, int8) *jacobianPoint) *jacobianPoint {
	gTable := c.baseMultiples() // affine: mixed additions
	d1 := wnaf(u1r, wnafWindow)
	d2 := wnaf(u2r, wnafWindow)

	n := len(d1)
	if len(d2) > n {
		n = len(d2)
	}
	acc := c.jacInfinity()
	for i := n - 1; i >= 0; i-- {
		acc = c.jacDouble(acc)
		if i < len(d1) {
			if d := d1[i]; d > 0 {
				acc = c.jacAddAffine(acc, gTable[(d-1)/2])
			} else if d < 0 {
				acc = c.jacAddAffine(acc, c.Neg(gTable[(-d-1)/2]))
			}
		}
		if i < len(d2) {
			if d := d2[i]; d != 0 {
				acc = qAdd(acc, d)
			}
		}
	}
	return acc
}

// combinedMultBigReduced interleaves against an on-the-fly Jacobian
// odd-multiples table of Q, nearly halving the doublings of two
// independent multiplications.
func (c *Curve) combinedMultBigReduced(q Point, u1r, u2r *big.Int) Point {
	qTable := c.oddMultiples(q, wnafWindow)
	return c.fromJacobian(c.straussInterleave(u1r, u2r, func(acc *jacobianPoint, d int8) *jacobianPoint {
		if d > 0 {
			return c.jacAdd(acc, qTable[(d-1)/2])
		}
		return c.jacAdd(acc, c.jacNeg(qTable[(-d-1)/2]))
	}))
}
