package ec

import (
	"crypto/elliptic"
	"math/big"
	"testing"
)

func TestCurveParameters(t *testing.T) {
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			if !c.P.ProbablyPrime(32) {
				t.Error("field modulus is not prime")
			}
			if !c.N.ProbablyPrime(32) {
				t.Error("group order is not prime")
			}
			if !c.IsOnCurve(c.Generator()) {
				t.Error("generator is not on the curve")
			}
			if got := c.ByteLen(); got != (c.BitSize+7)/8 {
				t.Errorf("ByteLen = %d, want %d", got, (c.BitSize+7)/8)
			}
			if !c.aIsMinus3 {
				t.Error("NIST prime curves must have a = -3")
			}
		})
	}
}

func TestCurveByName(t *testing.T) {
	cases := map[string]*Curve{
		"secp256r1": p256, "P-256": p256, "p256": p256,
		"secp224r1": p224, "P-224": p224,
		"secp192r1": p192, "P-192": p192,
	}
	for name, want := range cases {
		got, err := CurveByName(name)
		if err != nil {
			t.Fatalf("CurveByName(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("CurveByName(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := CurveByName("secp521r1"); err == nil {
		t.Error("expected error for unsupported curve")
	}
}

func TestGeneratorOrder(t *testing.T) {
	// n·G must be the point at infinity and (n−1)·G = −G.
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			if p := c.ScalarMult(c.Generator(), c.N); !p.IsInfinity() {
				t.Error("n·G is not the identity")
			}
			nm1 := new(big.Int).Sub(c.N, big.NewInt(1))
			p := c.ScalarBaseMult(nm1)
			if !p.Equal(c.Neg(c.Generator())) {
				t.Error("(n−1)·G != −G")
			}
		})
	}
}

func TestIsOnCurveRejects(t *testing.T) {
	c := P256()
	g := c.Generator()
	bad := Point{X: new(big.Int).Set(g.X), Y: new(big.Int).Add(g.Y, big.NewInt(1))}
	if c.IsOnCurve(bad) {
		t.Error("perturbed generator reported on curve")
	}
	if c.IsOnCurve(Infinity()) {
		t.Error("infinity must not satisfy IsOnCurve")
	}
	outOfRange := Point{X: new(big.Int).Add(c.P, big.NewInt(1)), Y: big.NewInt(1)}
	if c.IsOnCurve(outOfRange) {
		t.Error("x >= p accepted")
	}
	neg := Point{X: big.NewInt(-1), Y: big.NewInt(1)}
	if c.IsOnCurve(neg) {
		t.Error("negative coordinate accepted")
	}
}

// TestAgainstStdlib cross-checks scalar multiplication against
// crypto/elliptic for the curves the standard library ships. The
// arbitrary-point path is checked on the fp and math/big internals: on
// P-256 ScalarMult is the standard library itself.
func TestAgainstStdlib(t *testing.T) {
	pairs := []struct {
		ours *Curve
		std  elliptic.Curve
	}{
		{P256(), elliptic.P256()},
		{P224(), elliptic.P224()},
	}
	scalars := []*big.Int{
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(3),
		big.NewInt(112233445566778899),
	}
	for _, pair := range pairs {
		// Also test n−1 and a mid-size scalar per curve.
		extra := []*big.Int{
			new(big.Int).Sub(pair.ours.N, big.NewInt(1)),
			new(big.Int).Rsh(pair.ours.N, 1),
		}
		for _, k := range append(scalars, extra...) {
			wantX, wantY := pair.std.ScalarBaseMult(k.Bytes())
			got := pair.ours.ScalarBaseMult(k)
			if got.X.Cmp(wantX) != 0 || got.Y.Cmp(wantY) != 0 {
				t.Errorf("%s: ScalarBaseMult(%v) mismatch with stdlib", pair.ours.Name, k)
			}
			// Arbitrary-point path: multiply 7G by k both ways.
			sevenX, sevenY := pair.std.ScalarBaseMult(big.NewInt(7).Bytes())
			wantX2, wantY2 := pair.std.ScalarMult(sevenX, sevenY, k.Bytes())
			seven := Point{X: sevenX, Y: sevenY}
			for _, got2 := range []Point{fpScalarMult(pair.ours, seven, k), pair.ours.scalarMultBig(seven, k)} {
				if got2.X.Cmp(wantX2) != 0 || got2.Y.Cmp(wantY2) != 0 {
					t.Errorf("%s: ScalarMult(7G, %v) mismatch with stdlib", pair.ours.Name, k)
				}
			}
		}
	}
}

// TestP256KnownVectors checks published point-multiplication vectors
// for P-256 (k = 2, 3).
func TestP256KnownVectors(t *testing.T) {
	c := P256()
	vectors := []struct{ k, x, y string }{
		{
			"2",
			"7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978",
			"07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1",
		},
		{
			"3",
			"5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c",
			"8734640c4998ff7e374b06ce1a64a2ecd82ab036384fb83d9a79b127a27d5032",
		},
	}
	for _, v := range vectors {
		k, _ := new(big.Int).SetString(v.k, 10)
		p := c.ScalarBaseMult(k)
		if p.X.Cmp(mustInt(v.x)) != 0 || p.Y.Cmp(mustInt(v.y)) != 0 {
			t.Errorf("k=%s: got %v", v.k, p)
		}
	}
}
