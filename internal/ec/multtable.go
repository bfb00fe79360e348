package ec

import "math/big"

// MultTable is a precomputed scalar-multiplication table for one fixed
// point Q — typically a peer's long-term or ECQV-reconstructed public
// key. Building it costs the odd-multiples precomputation plus one
// batched inversion; afterwards every ScalarMult/CombinedMult against
// Q uses cheap mixed (Jacobian + affine) additions and skips the
// per-call table build entirely. That is the win for fleets: repeated
// STS handshakes and rekeys against the same static peer stop paying
// the precomputation over and over.
//
// A MultTable is immutable after construction and safe for concurrent
// use.
type MultTable struct {
	c *Curve
	q Point

	fpTab  []fpAffine // default backend: affine odd multiples, Montgomery form
	bigTab []Point    // oracle backend: affine odd multiples
}

// NewMultTable precomputes the odd multiples [Q, 3Q, ..., 15Q] of q in
// affine form. An infinity q yields a table whose multiplications all
// return infinity (CombinedMult degenerates to the base term).
func (c *Curve) NewMultTable(q Point) *MultTable {
	t := &MultTable{c: c, q: q.Clone()}
	if q.IsInfinity() {
		return t
	}
	if c.useFP() {
		var s fpScratch
		var jacs [8]fpJac
		c.fpOddMultiples(q, &jacs, &s)
		t.fpTab = make([]fpAffine, len(jacs))
		c.fpBatchToAffine(jacs[:], t.fpTab)
	} else {
		t.bigTab = c.batchToAffine(c.oddMultiples(q, wnafWindow))
	}
	return t
}

// Point returns the table's base point Q.
func (t *MultTable) Point() Point { return t.q.Clone() }

// Curve returns the curve the table was built on.
func (t *MultTable) Curve() *Curve { return t.c }

// wnafAccumulateAffine adds k·Q into acc through the cached affine
// table (fp backend).
//
//detlint:allow hotpath takes the reduced scalar as big.Int at the recoding boundary; wnafFixed recodes it allocation-free
func (t *MultTable) wnafAccumulateAffine(acc *fpJac, kr *big.Int, s *fpScratch) {
	var dbuf [264]int8
	digits := wnafFixed(kr, wnafWindow, dbuf[:])
	for i := len(digits) - 1; i >= 0; i-- {
		t.c.fpDouble(acc, s)
		d := digits[i]
		if d > 0 {
			t.c.fpAddAffine(acc, &t.fpTab[(d-1)/2], false, s)
		} else if d < 0 {
			t.c.fpAddAffine(acc, &t.fpTab[(-d-1)/2], true, s)
		}
	}
}

// ScalarMult returns k·Q using the cached table.
//
//detlint:allow hotpath scalar reduction mod N at the public big.Int boundary before the limb-pure table walk
func (t *MultTable) ScalarMult(k *big.Int) Point {
	c := t.c
	if t.q.IsInfinity() {
		return Point{}
	}
	kr := c.reduceScalar(k)
	if kr == nil {
		return Point{}
	}
	if t.fpTab != nil {
		var s fpScratch
		var acc fpJac
		c.fpSetInfinity(&acc)
		t.wnafAccumulateAffine(&acc, kr, &s)
		return c.fpToPoint(&acc)
	}
	return c.fromJacobian(c.scalarMultWNAFAffine(t.bigTab, kr))
}

// CombinedMult returns u1·G + u2·Q using the cached table for the Q
// term — the steady-state ECDSA-verify path against a known signer on
// P-224 and P-192.
//
//detlint:allow hotpath scalar reduction mod N at the public big.Int boundary: two O(1) allocs before the limb-pure loop
func (t *MultTable) CombinedMult(u1, u2 *big.Int) Point {
	c := t.c
	u1r := new(big.Int).Mod(u1, c.N)
	u2r := new(big.Int).Mod(u2, c.N)
	if t.q.IsInfinity() || u2r.Sign() == 0 {
		return c.ScalarBaseMult(u1r)
	}
	if u1r.Sign() == 0 {
		return t.ScalarMult(u2r)
	}
	if t.fpTab != nil {
		var s fpScratch
		var acc fpJac
		c.fpSetInfinity(&acc)
		t.wnafAccumulateAffine(&acc, u2r, &s)
		c.combAccumulate(&acc, u1r, &s)
		return c.fpToPoint(&acc)
	}
	// Oracle backend: Strauss–Shamir with the cached affine Q table.
	return c.fromJacobian(c.straussInterleave(u1r, u2r, func(acc *jacobianPoint, d int8) *jacobianPoint {
		if d > 0 {
			return c.jacAddAffine(acc, t.bigTab[(d-1)/2])
		}
		return c.jacAddAffine(acc, c.Neg(t.bigTab[(-d-1)/2]))
	}))
}
