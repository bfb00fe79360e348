package ec

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ec/fp"
)

// Differential and edge tests of the secret-scalar path. Every result
// is compared three ways: against the default ScalarMult /
// ScalarBaseMult (fp, or math/big under -tags ec_purebig), against the
// schoolbook ScalarMultNaive, and against the math/big oracle, which
// is compiled into both builds.

// secretEdgeScalars returns in-range edge scalars: 1, 2, n−1, n−2,
// the top bit alone, and alternating and high-bit patterns reduced
// below n.
func secretEdgeScalars(c *Curve) []*big.Int {
	one := big.NewInt(1)
	top := new(big.Int).Lsh(one, uint(c.N.BitLen()-1))
	pattern := func(b byte) *big.Int {
		v := new(big.Int).SetBytes(bytes.Repeat([]byte{b}, c.ByteLen()))
		return v.Mod(v, c.N)
	}
	return []*big.Int{
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(15),
		big.NewInt(16),
		new(big.Int).Sub(c.N, one),
		new(big.Int).Sub(c.N, big.NewInt(2)),
		top,
		new(big.Int).Sub(top, one),
		pattern(0xaa),
		pattern(0x55),
		pattern(0xf0),
		pattern(0x0f),
		pattern(0xff),
	}
}

func secretScalars(t *testing.T, c *Curve) []*big.Int {
	t.Helper()
	r := rand.New(rand.NewSource(int64(c.BitSize)))
	out := secretEdgeScalars(c)
	for i := 0; i < 12; i++ {
		k := new(big.Int).Rand(r, new(big.Int).Sub(c.N, big.NewInt(1)))
		out = append(out, k.Add(k, big.NewInt(1)))
	}
	return out
}

// secretEngines returns the curve's own engine plus, on P-256, the fp
// ladder, so the ladder is also checked against crypto/ecdh.
func secretEngines(c *Curve) map[string]secretMult {
	engines := map[string]secretMult{"default": c.secret}
	if _, std := c.secret.(stdlibMult); std {
		engines["ladder"] = ladderMult{c: c}
	}
	return engines
}

func newKeyWith(t *testing.T, m secretMult, c *Curve, k *big.Int) (secretKey, Point) {
	t.Helper()
	key, pub, err := m.newKey(c.ScalarToBytes(k))
	if err != nil {
		t.Fatalf("%s: newKey(%x): %v", c.Name, k, err)
	}
	return key, pub
}

func TestSecretBaseMultDifferential(t *testing.T) {
	for _, c := range Curves() {
		g := c.Generator()
		for name, m := range secretEngines(c) {
			for _, k := range secretScalars(t, c) {
				_, got := newKeyWith(t, m, c, k)
				for oracle, want := range map[string]Point{
					"ScalarBaseMult":    c.ScalarBaseMult(k),
					"ScalarMultNaive":   c.ScalarMultNaive(g, k),
					"scalarBaseMultBig": c.scalarBaseMultBig(k),
				} {
					if !got.Equal(want) {
						t.Fatalf("%s/%s: k=%x: secret k·G != %s", c.Name, name, k, oracle)
					}
				}
			}
		}
	}
}

func TestSecretECDHDifferential(t *testing.T) {
	for _, c := range Curves() {
		q := c.ScalarBaseMult(big.NewInt(0x1234567))
		for name, m := range secretEngines(c) {
			for _, k := range secretScalars(t, c) {
				key, _ := newKeyWith(t, m, c, k)
				got, err := key.ecdh(q)
				if err != nil {
					t.Fatalf("%s/%s: k=%x: ecdh: %v", c.Name, name, k, err)
				}
				for oracle, want := range map[string]Point{
					"ScalarMult":      c.ScalarMult(q, k),
					"ScalarMultNaive": c.ScalarMultNaive(q, k),
					"scalarMultBig":   c.scalarMultBig(q, k),
				} {
					if !bytes.Equal(got, want.X.FillBytes(make([]byte, c.ByteLen()))) {
						t.Fatalf("%s/%s: k=%x: ECDH != x(%s)", c.Name, name, k, oracle)
					}
				}
			}
		}
	}
}

func TestSecretKeyPublicAPI(t *testing.T) {
	for _, c := range Curves() {
		k := c.ScalarToBytes(big.NewInt(0xbeef))
		sk, err := c.NewSecretKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if !sk.Public().Equal(c.ScalarBaseMult(big.NewInt(0xbeef))) {
			t.Fatalf("%s: NewSecretKey public point wrong", c.Name)
		}
		pub, err := c.SecretBaseMult(k)
		if err != nil || !pub.Equal(sk.Public()) {
			t.Fatalf("%s: SecretBaseMult disagrees with NewSecretKey: %v", c.Name, err)
		}
		k[0] ^= 0x01 // the key keeps its own copy
		q := c.ScalarBaseMult(big.NewInt(77))
		x, err := sk.ECDH(q)
		if err != nil {
			t.Fatal(err)
		}
		want := c.ScalarMult(q, big.NewInt(0xbeef)).X.FillBytes(make([]byte, c.ByteLen()))
		if !bytes.Equal(x, want) {
			t.Fatalf("%s: ECDH after caller mutation of k: wrong premaster", c.Name)
		}
	}
}

func TestSecretScalarRangeRejected(t *testing.T) {
	for _, c := range Curves() {
		n := c.N.FillBytes(make([]byte, c.ByteLen()))
		above := new(big.Int).Add(c.N, big.NewInt(1)).FillBytes(make([]byte, c.ByteLen()))
		for name, k := range map[string][]byte{
			"zero":  make([]byte, c.ByteLen()),
			"n":     n,
			"n+1":   above,
			"max":   bytes.Repeat([]byte{0xff}, c.ByteLen()),
			"short": make([]byte, c.ByteLen()-1),
			"long":  append([]byte{0}, c.ScalarToBytes(big.NewInt(1))...),
			"nil":   nil,
		} {
			if _, err := c.NewSecretKey(k); !errors.Is(err, ErrSecretScalar) {
				t.Errorf("%s: NewSecretKey(%s) err = %v, want ErrSecretScalar", c.Name, name, err)
			}
			if _, err := c.SecretBaseMult(k); !errors.Is(err, ErrSecretScalar) {
				t.Errorf("%s: SecretBaseMult(%s) err = %v, want ErrSecretScalar", c.Name, name, err)
			}
		}
	}
}

func TestSecretECDHRejectsBadPeers(t *testing.T) {
	for _, c := range Curves() {
		sk, err := c.NewSecretKey(c.ScalarToBytes(big.NewInt(5)))
		if err != nil {
			t.Fatal(err)
		}
		g := c.Generator()
		offCurve := Point{X: new(big.Int).Set(g.X), Y: new(big.Int).Add(g.Y, big.NewInt(1))}
		outOfField := Point{X: new(big.Int).Add(g.X, c.P), Y: new(big.Int).Set(g.Y)}
		for name, q := range map[string]Point{
			"infinity":     Infinity(),
			"off-curve":    offCurve,
			"out-of-field": outOfField,
			"half-nil":     {X: new(big.Int).Set(g.X)},
		} {
			if _, err := sk.ECDH(q); !errors.Is(err, ErrDHPeer) {
				t.Errorf("%s: ECDH(%s) err = %v, want ErrDHPeer", c.Name, name, err)
			}
		}
	}
}

// TestLadderIdentityResult drives the ladder past the range check with
// k = n, so k·Q is the identity: the complete formulas must carry the
// identity through without a special case, and ecdh must report it.
func TestLadderIdentityResult(t *testing.T) {
	for _, c := range Curves() {
		key := ladderKey{c: c, k: c.N.FillBytes(make([]byte, c.ByteLen()))}
		if _, err := key.ecdh(c.Generator()); !errors.Is(err, ErrDHIdentity) {
			t.Errorf("%s: n·G err = %v, want ErrDHIdentity", c.Name, err)
		}
		var r ctPoint
		c.ctBaseMult(&r, key.k)
		if !c.fpF.IsZero(&r.z) {
			t.Errorf("%s: comb n·G is not the identity", c.Name)
		}
	}
}

// TestCtFormulasEdgeCases checks the complete formulas on the inputs
// the variable-time code special-cases: the identity on either side,
// P + P, and P + (−P).
func TestCtFormulasEdgeCases(t *testing.T) {
	for _, c := range Curves() {
		f := c.fpF
		var g, id, r ctPoint
		var j fpJac
		c.fpFromAffinePoint(&j, c.Generator())
		g = ctPoint{x: j.x, y: j.y, z: j.z}
		c.ctIdentity(&id)
		affine := func(p *ctPoint) Point {
			if f.IsZero(&p.z) {
				return Infinity()
			}
			var x, y fp.Element
			c.ctAffine(&x, &y, p)
			return c.fpAffineToPoint(&x, &y)
		}
		c.ctAdd(&r, &id, &g)
		if !affine(&r).Equal(c.Generator()) {
			t.Errorf("%s: ∞ + G != G", c.Name)
		}
		c.ctAdd(&r, &g, &id)
		if !affine(&r).Equal(c.Generator()) {
			t.Errorf("%s: G + ∞ != G", c.Name)
		}
		c.ctAdd(&r, &id, &id)
		if !affine(&r).IsInfinity() {
			t.Errorf("%s: ∞ + ∞ != ∞", c.Name)
		}
		c.ctDouble(&r, &id)
		if !affine(&r).IsInfinity() {
			t.Errorf("%s: 2∞ != ∞", c.Name)
		}
		c.ctAdd(&r, &g, &g)
		if !affine(&r).Equal(c.Double(c.Generator())) {
			t.Errorf("%s: G + G != 2G", c.Name)
		}
		neg := g
		f.Neg(&neg.y, &neg.y)
		c.ctAdd(&r, &g, &neg)
		if !affine(&r).IsInfinity() {
			t.Errorf("%s: G + (−G) != ∞", c.Name)
		}
	}
}

// secretAllocBudget is the ceiling on heap allocations of one secret
// base mult and one ECDH on P-256, the paths every handshake runs:
// crypto/ecdh's key objects, the peer's on-curve check and the big.Int
// boundary of the returned point. Both measure 13–16 today.
const secretAllocBudget = 20

func TestSecretAllocBudget(t *testing.T) {
	c := P256()
	k := c.ScalarToBytes(big.NewInt(0x1db75bb1))
	sk, err := c.NewSecretKey(k)
	if err != nil {
		t.Fatal(err)
	}
	q := c.ScalarBaseMult(big.NewInt(0xabc))
	cases := []struct {
		name string
		fn   func()
	}{
		{"SecretBaseMult", func() { _, _ = c.SecretBaseMult(k) }},
		{"SecretKey.ECDH", func() { _, _ = sk.ECDH(q) }},
	}
	for _, tc := range cases {
		tc.fn()
		if got := testing.AllocsPerRun(20, tc.fn); got > secretAllocBudget {
			t.Errorf("%s: %.0f allocs/op, budget %d", tc.name, got, secretAllocBudget)
		}
	}
}

func BenchmarkSecretBaseMult(b *testing.B) {
	for _, c := range Curves() {
		k := c.ScalarToBytes(big.NewInt(0x1db75bb1))
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.SecretBaseMult(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSecretECDH(b *testing.B) {
	for _, c := range Curves() {
		sk, err := c.NewSecretKey(c.ScalarToBytes(big.NewInt(0x1db75bb1)))
		if err != nil {
			b.Fatal(err)
		}
		q := c.ScalarBaseMult(big.NewInt(0xabc))
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sk.ECDH(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
