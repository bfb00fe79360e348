package ec

import (
	"math/big"
	"math/rand"
	"testing"
)

// Differential tests of the public point arithmetic the standard
// library serves on P-256 (ScalarMult and Add; IsOnCurve runs on fp)
// against the fp internals they replaced and the math/big oracle. An
// input crypto/elliptic would reject — off the curve, a coordinate
// outside [0, p), the (0, 0) it reads as infinity — must never reach
// it: such inputs get exactly the fp result they got before routing.

// publicScalars returns the scalar corners of routed ScalarMult: 0, 1,
// n−1, n, n+1, 2^300 and negatives, which must all reduce mod n first.
func publicScalars(c *Curve) []*big.Int {
	one := big.NewInt(1)
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(c.N, one),
		new(big.Int).Set(c.N),
		new(big.Int).Add(c.N, one),
		new(big.Int).Lsh(one, 300),
		big.NewInt(-1),
		big.NewInt(-7),
		new(big.Int).Neg(c.N),
		new(big.Int).Neg(new(big.Int).Lsh(one, 300)),
	}
}

// invalidPoints returns finite points crypto/elliptic rejects on c: off
// the curve, a coordinate equal to p, negative or 2^256−1, (0, 0), and
// a point whose coordinates are congruent to G's but not reduced.
func invalidPoints(c *Curve) []Point {
	g := c.Generator()
	max256 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	return []Point{
		{X: g.X, Y: new(big.Int).Add(g.Y, big.NewInt(1))},
		{X: new(big.Int).Set(c.P), Y: g.Y},
		{X: g.X, Y: new(big.Int).Set(c.P)},
		{X: new(big.Int).Neg(g.X), Y: g.Y},
		{X: g.X, Y: new(big.Int).Neg(g.Y)},
		{X: max256, Y: g.Y},
		{X: g.X, Y: max256},
		{X: new(big.Int), Y: new(big.Int)},
		{X: new(big.Int).Add(g.X, c.P), Y: g.Y},
	}
}

// checkPublicOps runs routed ScalarMult, Add and IsOnCurve on one input
// and fails unless each equals the fp result, and, where every point
// is valid, the math/big result too.
func checkPublicOps(t *testing.T, c *Curve, p, q Point, k *big.Int) {
	t.Helper()
	valid := func(pts ...Point) bool {
		for _, pt := range pts {
			if !pt.IsInfinity() && !c.isOnCurveBig(pt) {
				return false
			}
		}
		return true
	}
	if got, fp := c.ScalarMult(p, k), fpScalarMult(c, p, k); !got.Equal(fp) {
		t.Fatalf("ScalarMult(%v, %v):\n got = %v\n fp  = %v", p, k, got, fp)
	} else if valid(p) && !got.Equal(c.scalarMultBig(p, k)) {
		t.Fatalf("ScalarMult(%v, %v) disagrees with math/big", p, k)
	}
	if got, fp := c.Add(p, q), c.addFP(p, q); !got.Equal(fp) {
		t.Fatalf("Add(%v, %v):\n got = %v\n fp  = %v", p, q, got, fp)
	} else if valid(p, q) && !got.Equal(c.addBig(p, q)) {
		t.Fatalf("Add(%v, %v) disagrees with math/big", p, q)
	}
	if !p.IsInfinity() && c.IsOnCurve(p) != c.isOnCurveBig(p) {
		t.Fatalf("IsOnCurve(%v) disagrees with math/big", p)
	}
}

func TestPublicOpsP256Differential(t *testing.T) {
	requireFP(t)
	c := P256()
	r := rand.New(rand.NewSource(107))
	g := c.Generator()
	q := c.scalarMultBig(g, new(big.Int).Rand(r, c.N))
	valid := []Point{{}, g, q, c.Neg(q), c.scalarMultBig(g, big.NewInt(2))}
	scalars := append(publicScalars(c), randScalars(c, r, 5)...)

	for _, p := range valid {
		for _, k := range scalars {
			checkPublicOps(t, c, p, q, k)
		}
		for _, p2 := range valid {
			checkPublicOps(t, c, p, p2, big.NewInt(3))
		}
	}
	// The group-law corners through Add: P + P doubles, P + (−P) is ∞.
	if got, want := c.Add(q, q), c.doubleBig(q); !got.Equal(want) {
		t.Fatalf("Add(Q, Q) = %v, want 2Q = %v", got, want)
	}
	if got := c.Add(q, c.Neg(q)); !got.IsInfinity() {
		t.Fatalf("Add(Q, −Q) = %v, want ∞", got)
	}
	for _, bad := range invalidPoints(c) {
		if c.IsOnCurve(bad) {
			t.Fatalf("IsOnCurve(%v) accepted an invalid point", bad)
		}
		for _, k := range scalars[:6] {
			checkPublicOps(t, c, bad, q, k)
			checkPublicOps(t, c, q, bad, k)
			checkPublicOps(t, c, bad, bad, k)
		}
	}
}

// FuzzPublicOpsP256 drives routed ScalarMult, Add and IsOnCurve on
// P-256 with arbitrary coordinates and scalars: none may panic, and
// each must equal the fp result (and the math/big oracle's on valid
// points). An empty x is the point at infinity; bit 0 of signs negates
// k, bits 1 to 4 negate px, py, qx, qy. The committed corpus under
// testdata/fuzz/FuzzPublicOpsP256 holds valid points and the invalid
// and edge cases of TestPublicOpsP256Differential.
func FuzzPublicOpsP256(f *testing.F) {
	if useBigBackend {
		f.Skip("built with -tags ec_purebig: nothing is routed to the standard library")
	}
	c := P256()
	g := c.Generator()
	two := c.scalarMultBig(g, big.NewInt(2))
	f.Add(g.X.Bytes(), g.Y.Bytes(), two.X.Bytes(), two.Y.Bytes(), c.N.Bytes(), uint8(0))
	f.Add(g.X.Bytes(), g.Y.Bytes(), g.X.Bytes(), g.Y.Bytes(), []byte{5}, uint8(1))
	f.Add([]byte{}, []byte{}, g.X.Bytes(), g.Y.Bytes(), []byte{1}, uint8(0))
	f.Add(c.P.Bytes(), g.Y.Bytes(), g.X.Bytes(), g.Y.Bytes(), []byte{3}, uint8(2))

	f.Fuzz(func(t *testing.T, px, py, qx, qy, k []byte, signs uint8) {
		coord := func(b []byte, bit uint8) *big.Int {
			v := new(big.Int).SetBytes(b)
			if signs&(1<<bit) != 0 {
				v.Neg(v)
			}
			return v
		}
		point := func(x, y []byte, bit uint8) Point {
			if len(x) == 0 {
				return Point{}
			}
			return Point{X: coord(x, bit), Y: coord(y, bit+1)}
		}
		checkPublicOps(t, c, point(px, py, 1), point(qx, qy, 3), coord(k, 0))
	})
}

// BenchmarkPublicOpsP256 times each routed operation on the standard
// library against the fp internals it replaced (IsOnCurve: fp against
// math/big), plus the whole of ECQV extraction's e·P + Q_CA.
func BenchmarkPublicOpsP256(b *testing.B) {
	c := P256()
	r := rand.New(rand.NewSource(108))
	g := c.Generator()
	p := c.scalarMultBig(g, new(big.Int).Rand(r, c.N))
	q := c.scalarMultBig(g, new(big.Int).Rand(r, c.N))
	k := new(big.Int).Rand(r, c.N)
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"ScalarMult/stdlib", func() { c.ScalarMult(p, k) }},
		{"ScalarMult/fp", func() { c.scalarMultFP(p, k) }},
		{"Add/stdlib", func() { c.Add(p, q) }},
		{"Add/fp", func() { c.addFP(p, q) }},
		{"IsOnCurve/fp", func() { c.IsOnCurve(p) }},
		{"IsOnCurve/big", func() { c.isOnCurveBig(p) }},
		{"MultAdd/stdlib", func() { c.Add(c.ScalarMult(p, k), q) }},
		{"MultAdd/fp", func() { c.addFP(c.scalarMultFP(p, k), q) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn()
			}
		})
	}
}
