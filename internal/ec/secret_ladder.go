package ec

import "repro/internal/ec/fp"

// The constant-time ladder behind the P-224 and P-192 secret-scalar
// engine. Points are homogeneous projective triples (X : Y : Z) with
// x = X/Z, y = Y/Z, and the identity is (0 : 1 : 0). Addition and
// doubling use the complete formulas for a = −3 of Renes, Costello and
// Batina, "Complete addition formulas for prime order elliptic
// curves" (ePrint 2015/1060, Algorithms 4 and 6). They are valid for
// every pair of inputs, the identity and equal points included, so
// the point at infinity needs no branch. Table entries are picked by a
// masked move from every entry (fp.CondMove), never by an index
// derived from the scalar, and the field operations underneath are
// branch-free. The ctscalar analyzer of cmd/detlint checks all of
// this: ctScalarMult and ctBaseMult are its roots.

// ctPoint is a homogeneous projective point.
type ctPoint struct {
	x, y, z fp.Element
}

// ladderMult is the fp engine for curves without a standard-library
// implementation.
type ladderMult struct {
	c *Curve
}

func (m ladderMult) baseMult(k []byte) (Point, error) {
	var r ctPoint
	m.c.ctBaseMult(&r, k)
	var x, y fp.Element
	m.c.ctAffine(&x, &y, &r) // k ∈ [1, n−1], so k·G is finite
	return m.c.fpAffineToPoint(&x, &y), nil
}

func (m ladderMult) newKey(k []byte) (secretKey, Point, error) {
	kk := append([]byte(nil), k...)
	pub, err := m.baseMult(kk)
	return ladderKey{c: m.c, k: kk}, pub, err
}

// ladderKey is the ladder engine's handle: the scalar bytes.
type ladderKey struct {
	c *Curve
	k []byte
}

func (k ladderKey) ecdh(q Point) ([]byte, error) {
	c := k.c
	if !c.IsOnCurve(q) {
		return nil, ErrDHPeer
	}
	var j fpJac
	c.fpFromAffinePoint(&j, q) // Z = 1: Jacobian and projective agree
	p := ctPoint{x: j.x, y: j.y, z: j.z}
	var r ctPoint
	c.ctScalarMult(&r, &p, k.k)
	if c.fpF.IsZero(&r.z) {
		return nil, ErrDHIdentity // the result is public: the caller sees the error anyway
	}
	var x, y fp.Element
	c.ctAffine(&x, &y, &r)
	out := make([]byte, c.byteLen)
	c.fpF.FillBytes(out, &x)
	return out, nil
}

// ctIdentity sets p to (0 : 1 : 0).
func (c *Curve) ctIdentity(p *ctPoint) {
	p.x = fp.Element{}
	p.y = c.fpF.One()
	p.z = fp.Element{}
}

// ctScalarMult sets r = k·q for big-endian scalar bytes k with a 4-bit
// fixed window: 4 doublings, then one addition of a masked-selected
// table entry 0·q … 15·q, per nibble. The operation sequence depends
// only on len(k).
func (c *Curve) ctScalarMult(r, q *ctPoint, k []byte) {
	var table [16]ctPoint
	c.ctIdentity(&table[0])
	table[1] = *q
	for i := 2; i < len(table); i++ {
		c.ctAdd(&table[i], &table[i-1], q)
	}
	var t ctPoint
	c.ctIdentity(r)
	for i, b := range k {
		if i != 0 {
			c.ctDouble(r, r)
			c.ctDouble(r, r)
			c.ctDouble(r, r)
			c.ctDouble(r, r)
		}
		c.ctSelect(&t, &table, b>>4)
		c.ctAdd(r, r, &t)
		c.ctDouble(r, r)
		c.ctDouble(r, r)
		c.ctDouble(r, r)
		c.ctDouble(r, r)
		c.ctSelect(&t, &table, b&0xf)
		c.ctAdd(r, r, &t)
	}
}

// ctSelect sets p = table[n] for n in [0, 15] by a masked move from
// every entry.
func (c *Curve) ctSelect(p *ctPoint, table *[16]ctPoint, n byte) {
	*p = table[0]
	for i := 1; i < len(table); i++ {
		move := ctEq(uint64(i), uint64(n))
		fp.CondMove(&p.x, &table[i].x, move)
		fp.CondMove(&p.y, &table[i].y, move)
		fp.CondMove(&p.z, &table[i].z, move)
	}
}

// ctBaseMult sets r = k·G for big-endian scalar bytes k through the
// fixed-base comb of ScalarBaseMult: one complete addition of a
// masked-selected entry i·16^w·G (i = 0 selects the identity) per
// 4-bit window w, no doublings. k is ByteLen bytes, two windows a
// byte.
func (c *Curve) ctBaseMult(r *ctPoint, k []byte) {
	rows := c.combRows()
	one := c.fpF.One()
	var t ctPoint
	c.ctIdentity(r)
	for w := range rows {
		b := k[len(k)-1-w/2]
		nib := (b >> (4 * uint(w%2))) & 0xf
		c.ctIdentity(&t)
		for i := range rows[w] {
			move := ctEq(uint64(i+1), uint64(nib))
			fp.CondMove(&t.x, &rows[w][i].x, move)
			fp.CondMove(&t.y, &rows[w][i].y, move)
			fp.CondMove(&t.z, &one, move)
		}
		c.ctAdd(r, r, &t)
	}
}

// ctEq returns 1 when a = b and 0 otherwise, without branching.
func ctEq(a, b uint64) uint64 {
	d := a ^ b
	return 1 ^ ((d | -d) >> 63)
}

// ctAffine sets (x, y) to the affine coordinates of p with one Fermat
// inversion, which is constant time. The identity maps to (0, 0).
func (c *Curve) ctAffine(x, y *fp.Element, p *ctPoint) {
	f := c.fpF
	var zinv fp.Element
	f.Inv(&zinv, &p.z)
	f.Mul(x, &p.x, &zinv)
	f.Mul(y, &p.y, &zinv)
}

// ctAdd sets r = p + q (RCB Algorithm 4, a = −3): 12M + 2m_b, complete.
// r may alias p or q.
func (c *Curve) ctAdd(r, p, q *ctPoint) {
	f := c.fpF
	var t0, t1, t2, t3, t4, x3, y3, z3 fp.Element
	f.Mul(&t0, &p.x, &q.x) // t0 = X1·X2
	f.Mul(&t1, &p.y, &q.y) // t1 = Y1·Y2
	f.Mul(&t2, &p.z, &q.z) // t2 = Z1·Z2
	f.Add(&t3, &p.x, &p.y) // t3 = X1+Y1
	f.Add(&t4, &q.x, &q.y) // t4 = X2+Y2
	f.Mul(&t3, &t3, &t4)   // t3 = t3·t4
	f.Add(&t4, &t0, &t1)   // t4 = t0+t1
	f.Sub(&t3, &t3, &t4)   // t3 = t3−t4
	f.Add(&t4, &p.y, &p.z) // t4 = Y1+Z1
	f.Add(&x3, &q.y, &q.z) // X3 = Y2+Z2
	f.Mul(&t4, &t4, &x3)   // t4 = t4·X3
	f.Add(&x3, &t1, &t2)   // X3 = t1+t2
	f.Sub(&t4, &t4, &x3)   // t4 = t4−X3
	f.Add(&x3, &p.x, &p.z) // X3 = X1+Z1
	f.Add(&y3, &q.x, &q.z) // Y3 = X2+Z2
	f.Mul(&x3, &x3, &y3)   // X3 = X3·Y3
	f.Add(&y3, &t0, &t2)   // Y3 = t0+t2
	f.Sub(&y3, &x3, &y3)   // Y3 = X3−Y3
	f.Mul(&z3, &c.fpB, &t2)
	f.Sub(&x3, &y3, &z3) // X3 = Y3−b·t2
	f.Add(&z3, &x3, &x3) // Z3 = X3+X3
	f.Add(&x3, &x3, &z3) // X3 = X3+Z3
	f.Sub(&z3, &t1, &x3) // Z3 = t1−X3
	f.Add(&x3, &t1, &x3) // X3 = t1+X3
	f.Mul(&y3, &c.fpB, &y3)
	f.Add(&t1, &t2, &t2) // t1 = t2+t2
	f.Add(&t2, &t1, &t2) // t2 = t1+t2
	f.Sub(&y3, &y3, &t2) // Y3 = Y3−t2
	f.Sub(&y3, &y3, &t0) // Y3 = Y3−t0
	f.Add(&t1, &y3, &y3) // t1 = Y3+Y3
	f.Add(&y3, &t1, &y3) // Y3 = t1+Y3
	f.Add(&t1, &t0, &t0) // t1 = t0+t0
	f.Add(&t0, &t1, &t0) // t0 = t1+t0
	f.Sub(&t0, &t0, &t2) // t0 = t0−t2
	f.Mul(&t1, &t4, &y3) // t1 = t4·Y3
	f.Mul(&t2, &t0, &y3) // t2 = t0·Y3
	f.Mul(&y3, &x3, &z3) // Y3 = X3·Z3
	f.Add(&y3, &y3, &t2) // Y3 = Y3+t2
	f.Mul(&x3, &t3, &x3) // X3 = t3·X3
	f.Sub(&x3, &x3, &t1) // X3 = X3−t1
	f.Mul(&z3, &t4, &z3) // Z3 = t4·Z3
	f.Mul(&t1, &t3, &t0) // t1 = t3·t0
	f.Add(&z3, &z3, &t1) // Z3 = Z3+t1
	r.x, r.y, r.z = x3, y3, z3
}

// ctDouble sets r = 2p (RCB Algorithm 6, a = −3): 8M + 3S + 2m_b,
// complete. r may alias p.
func (c *Curve) ctDouble(r, p *ctPoint) {
	f := c.fpF
	var t0, t1, t2, t3, x3, y3, z3 fp.Element
	f.Sqr(&t0, &p.x)       // t0 = X²
	f.Sqr(&t1, &p.y)       // t1 = Y²
	f.Sqr(&t2, &p.z)       // t2 = Z²
	f.Mul(&t3, &p.x, &p.y) // t3 = X·Y
	f.Add(&t3, &t3, &t3)   // t3 = t3+t3
	f.Mul(&z3, &p.x, &p.z) // Z3 = X·Z
	f.Add(&z3, &z3, &z3)   // Z3 = Z3+Z3
	f.Mul(&y3, &c.fpB, &t2)
	f.Sub(&y3, &y3, &z3) // Y3 = b·t2−Z3
	f.Add(&x3, &y3, &y3) // X3 = Y3+Y3
	f.Add(&y3, &x3, &y3) // Y3 = X3+Y3
	f.Sub(&x3, &t1, &y3) // X3 = t1−Y3
	f.Add(&y3, &t1, &y3) // Y3 = t1+Y3
	f.Mul(&y3, &x3, &y3) // Y3 = X3·Y3
	f.Mul(&x3, &x3, &t3) // X3 = X3·t3
	f.Add(&t3, &t2, &t2) // t3 = t2+t2
	f.Add(&t2, &t2, &t3) // t2 = t2+t3
	f.Mul(&z3, &c.fpB, &z3)
	f.Sub(&z3, &z3, &t2)   // Z3 = b·Z3−t2
	f.Sub(&z3, &z3, &t0)   // Z3 = Z3−t0
	f.Add(&t3, &z3, &z3)   // t3 = Z3+Z3
	f.Add(&z3, &z3, &t3)   // Z3 = Z3+t3
	f.Add(&t3, &t0, &t0)   // t3 = t0+t0
	f.Add(&t0, &t3, &t0)   // t0 = t3+t0
	f.Sub(&t0, &t0, &t2)   // t0 = t0−t2
	f.Mul(&t0, &t0, &z3)   // t0 = t0·Z3
	f.Add(&y3, &y3, &t0)   // Y3 = Y3+t0
	f.Mul(&t0, &p.y, &p.z) // t0 = Y·Z
	f.Add(&t0, &t0, &t0)   // t0 = t0+t0
	f.Mul(&z3, &t0, &z3)   // Z3 = t0·Z3
	f.Sub(&x3, &x3, &z3)   // X3 = X3−Z3
	f.Mul(&z3, &t0, &t1)   // Z3 = t0·t1
	f.Add(&z3, &z3, &z3)   // Z3 = Z3+Z3
	f.Add(&z3, &z3, &z3)   // Z3 = Z3+Z3
	r.x, r.y, r.z = x3, y3, z3
}
