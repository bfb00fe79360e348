package ec

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// Differential tests of the fixed-limb Montgomery backend against the
// retained math/big oracle, and of both against crypto/elliptic. These
// are the parity proofs for the backend swap: every public entry point
// must agree bit-exactly on all three curves, including edge scalars
// and non-canonical inputs. Where the standard library serves an entry
// point (ScalarMult and Add on P-256), the fp internals are checked
// too, so fp keeps its parity proof on every curve.

// edgeScalars returns boundary scalars for a curve of order n:
// 0 and n (→ infinity), 1, 2, small, n−1, n−2, (n−1)/2, a power of
// two, and values above n that must reduce.
func edgeScalars(c *Curve) []*big.Int {
	one := big.NewInt(1)
	return []*big.Int{
		big.NewInt(0),
		new(big.Int).Set(c.N),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(3),
		big.NewInt(31),
		new(big.Int).Sub(c.N, one),
		new(big.Int).Sub(c.N, big.NewInt(2)),
		new(big.Int).Rsh(new(big.Int).Sub(c.N, one), 1),
		new(big.Int).Lsh(one, uint(c.BitSize-1)),
		new(big.Int).Add(c.N, big.NewInt(5)),
		new(big.Int).Mul(c.N, big.NewInt(3)),
	}
}

func randScalars(c *Curve, r *rand.Rand, n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).Rand(r, c.N)
	}
	return out
}

func requireFP(t *testing.T) {
	t.Helper()
	if useBigBackend {
		t.Skip("built with -tags ec_purebig: fp backend disabled")
	}
}

func TestFPBackendEnabled(t *testing.T) {
	requireFP(t)
	for _, c := range Curves() {
		if !c.useFP() {
			t.Fatalf("%s: fp backend not initialised", c.Name)
		}
	}
}

// fpScalarMult is k·P as the fp backend computes it, before any
// routing to the standard library.
func fpScalarMult(c *Curve, p Point, k *big.Int) Point {
	kr := c.reduceScalar(k)
	if p.IsInfinity() || kr == nil {
		return Point{}
	}
	return c.scalarMultFP(p, kr)
}

// TestScalarMultDifferential proves k·P parity between the fp backend
// and the math/big oracle for edge and random scalars on all curves.
func TestScalarMultDifferential(t *testing.T) {
	requireFP(t)
	r := rand.New(rand.NewSource(101))
	for _, c := range Curves() {
		g := c.Generator()
		// A second, non-generator base point.
		q := c.scalarMultBig(g, big.NewInt(0xbeef))
		for _, p := range []Point{g, q} {
			for _, k := range append(edgeScalars(c), randScalars(c, r, 25)...) {
				got := c.ScalarMult(p, k)
				want := c.scalarMultBig(p, k)
				if !got.Equal(want) {
					t.Fatalf("%s: ScalarMult(%v) backend mismatch:\n got = %v\n big = %v",
						c.Name, k, got, want)
				}
				if fp := fpScalarMult(c, p, k); !fp.Equal(want) {
					t.Fatalf("%s: scalarMultFP(%v) backend mismatch:\n fp  = %v\n big = %v",
						c.Name, k, fp, want)
				}
				if !got.IsInfinity() && !c.IsOnCurve(got) {
					t.Fatalf("%s: ScalarMult(%v) left the curve", c.Name, k)
				}
			}
		}
		// Infinity in, infinity out.
		if !c.ScalarMult(Point{}, big.NewInt(7)).IsInfinity() {
			t.Fatalf("%s: ScalarMult(∞) not infinity", c.Name)
		}
		// The fp naive ladder (ablation baseline) must agree too.
		for _, k := range append(edgeScalars(c), randScalars(c, r, 5)...) {
			if got, want := c.ScalarMultNaive(g, k), c.scalarMultBig(g, k); !got.Equal(want) {
				t.Fatalf("%s: ScalarMultNaive(%v) backend mismatch", c.Name, k)
			}
		}
	}
}

// TestScalarBaseMultDifferential proves comb-table parity with the
// oracle's cached-affine path.
func TestScalarBaseMultDifferential(t *testing.T) {
	requireFP(t)
	r := rand.New(rand.NewSource(102))
	for _, c := range Curves() {
		for _, k := range append(edgeScalars(c), randScalars(c, r, 40)...) {
			got := c.ScalarBaseMult(k)
			want := c.scalarBaseMultBig(k)
			if !got.Equal(want) {
				t.Fatalf("%s: ScalarBaseMult(%v) backend mismatch:\n fp  = %v\n big = %v",
					c.Name, k, got, want)
			}
		}
	}
}

// TestCombinedMultDifferential proves u1·G + u2·Q parity, including
// the degenerate zero-scalar corners.
func TestCombinedMultDifferential(t *testing.T) {
	requireFP(t)
	r := rand.New(rand.NewSource(103))
	for _, c := range Curves() {
		q := c.scalarMultBig(c.Generator(), big.NewInt(0x5e55))
		scalars := append(edgeScalars(c), randScalars(c, r, 10)...)
		for _, u1 := range scalars {
			for _, u2 := range scalars {
				got := c.CombinedMult(q, u1, u2)
				want := c.combinedMultBig(q, u1, u2)
				if !got.Equal(want) {
					t.Fatalf("%s: CombinedMult(%v, %v) backend mismatch:\n fp  = %v\n big = %v",
						c.Name, u1, u2, got, want)
				}
			}
		}
		// Q at infinity degenerates to the base term.
		if got, want := c.CombinedMult(Point{}, big.NewInt(9), big.NewInt(4)), c.scalarBaseMultBig(big.NewInt(9)); !got.Equal(want) {
			t.Fatalf("%s: CombinedMult(∞) mismatch", c.Name)
		}
	}
}

// TestAddDoubleDifferential proves the group law entry points agree,
// including the identity, inverse and doubling corners.
func TestAddDoubleDifferential(t *testing.T) {
	requireFP(t)
	r := rand.New(rand.NewSource(104))
	for _, c := range Curves() {
		g := c.Generator()
		pts := []Point{{}, g, c.scalarMultBig(g, big.NewInt(2)), c.scalarMultBig(g, new(big.Int).Rand(r, c.N))}
		pts = append(pts, c.Neg(g)) // p + (−p) = ∞
		for _, p := range pts {
			for _, q := range pts {
				got := c.Add(p, q)
				want := c.addBig(p, q)
				if !got.Equal(want) {
					t.Fatalf("%s: Add mismatch:\n got = %v\n big = %v", c.Name, got, want)
				}
				if fp := c.addFP(p, q); !fp.Equal(want) {
					t.Fatalf("%s: addFP mismatch:\n fp  = %v\n big = %v", c.Name, fp, want)
				}
			}
			if got, want := c.Double(p), c.doubleBig(p); !got.Equal(want) {
				t.Fatalf("%s: Double mismatch:\n fp  = %v\n big = %v", c.Name, got, want)
			}
		}
	}
}

// TestAgainstCryptoElliptic cross-checks ScalarMult, ScalarBaseMult
// and CombinedMult against the standard library on the curves it
// ships (P-256, P-224). ScalarMult is checked through the fp internals:
// on P-256 the public entry point is the standard library itself.
func TestAgainstCryptoElliptic(t *testing.T) {
	cases := []struct {
		c   *Curve
		std elliptic.Curve
	}{
		{P256(), elliptic.P256()},
		{P224(), elliptic.P224()},
	}
	r := rand.New(rand.NewSource(105))
	for _, tc := range cases {
		scalars := append([]*big.Int{
			big.NewInt(1),
			big.NewInt(2),
			new(big.Int).Sub(tc.c.N, big.NewInt(1)),
		}, randScalars(tc.c, r, 15)...)
		for _, k := range scalars {
			kb := make([]byte, tc.c.ByteLen())
			k.FillBytes(kb)

			// Base-point multiplication.
			wx, wy := tc.std.ScalarBaseMult(kb)
			got := tc.c.ScalarBaseMult(k)
			if got.X.Cmp(wx) != 0 || got.Y.Cmp(wy) != 0 {
				t.Fatalf("%s: ScalarBaseMult(%v) disagrees with crypto/elliptic", tc.c.Name, k)
			}

			// Arbitrary-point multiplication against k·G.
			px, py := wx, wy
			for _, k2 := range scalars[:5] {
				k2b := make([]byte, tc.c.ByteLen())
				k2.FillBytes(k2b)
				wx2, wy2 := tc.std.ScalarMult(px, py, k2b)
				got2 := fpScalarMult(tc.c, Point{X: px, Y: py}, k2)
				if got2.X.Cmp(wx2) != 0 || got2.Y.Cmp(wy2) != 0 {
					t.Fatalf("%s: ScalarMult disagrees with crypto/elliptic", tc.c.Name)
				}

				// CombinedMult = u1·G + u2·Q via stdlib Add.
				bx, by := tc.std.ScalarBaseMult(k2b)
				sx, sy := tc.std.Add(bx, by, wx2, wy2)
				comb := tc.c.CombinedMult(Point{X: px, Y: py}, k2, k2)
				if comb.IsInfinity() {
					if sx.Sign() != 0 || sy.Sign() != 0 {
						t.Fatalf("%s: CombinedMult infinity mismatch", tc.c.Name)
					}
				} else if comb.X.Cmp(sx) != 0 || comb.Y.Cmp(sy) != 0 {
					t.Fatalf("%s: CombinedMult disagrees with crypto/elliptic", tc.c.Name)
				}
			}
		}
	}
}

// TestMultTableParity proves the cached-table paths return exactly
// what the direct entry points return.
func TestMultTableParity(t *testing.T) {
	r := rand.New(rand.NewSource(106))
	for _, c := range Curves() {
		q := c.ScalarBaseMult(big.NewInt(0xcafe))
		tab := c.NewMultTable(q)
		if !tab.Point().Equal(q) || tab.Curve() != c {
			t.Fatalf("%s: MultTable identity accessors wrong", c.Name)
		}
		for _, k := range append(edgeScalars(c), randScalars(c, r, 20)...) {
			if got, want := tab.ScalarMult(k), c.ScalarMult(q, k); !got.Equal(want) {
				t.Fatalf("%s: MultTable.ScalarMult(%v) mismatch", c.Name, k)
			}
		}
		scalars := append(edgeScalars(c), randScalars(c, r, 6)...)
		for _, u1 := range scalars {
			for _, u2 := range scalars {
				if got, want := tab.CombinedMult(u1, u2), c.CombinedMult(q, u1, u2); !got.Equal(want) {
					t.Fatalf("%s: MultTable.CombinedMult(%v, %v) mismatch", c.Name, u1, u2)
				}
			}
		}
	}
	// Infinity table degenerates cleanly.
	c := P256()
	tab := c.NewMultTable(Point{})
	if !tab.ScalarMult(big.NewInt(5)).IsInfinity() {
		t.Fatal("infinity MultTable.ScalarMult not infinity")
	}
	if got, want := tab.CombinedMult(big.NewInt(5), big.NewInt(7)), c.ScalarBaseMult(big.NewInt(5)); !got.Equal(want) {
		t.Fatal("infinity MultTable.CombinedMult did not degenerate to base term")
	}
}

// TestMultTableConcurrent exercises one shared table from many
// goroutines (the fleet steady state) under -race.
func TestMultTableConcurrent(t *testing.T) {
	c := P256()
	q := c.ScalarBaseMult(big.NewInt(777))
	tab := c.NewMultTable(q)
	want := c.ScalarMult(q, big.NewInt(1234))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !tab.ScalarMult(big.NewInt(1234)).Equal(want) {
					t.Error("concurrent MultTable.ScalarMult mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkMultTableScalarMult(b *testing.B) {
	c := P256()
	q := c.ScalarBaseMult(big.NewInt(0xabc))
	tab := c.NewMultTable(q)
	k, _ := c.RandomScalar(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.ScalarMult(k)
	}
}

func BenchmarkMultTableCombinedMult(b *testing.B) {
	c := P256()
	q := c.ScalarBaseMult(big.NewInt(0xabc))
	tab := c.NewMultTable(q)
	u1, _ := c.RandomScalar(nil)
	u2, _ := c.RandomScalar(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.CombinedMult(u1, u2)
	}
}

// BenchmarkMultTableBuild measures the cost the SharedTableCache
// amortizes away fleet-wide: one odd-multiples precomputation plus one
// shared-inversion affine conversion.
func BenchmarkMultTableBuild(b *testing.B) {
	c := P256()
	q := c.ScalarBaseMult(big.NewInt(0x5eed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.NewMultTable(q)
	}
}
