package ec

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// deterministicRand adapts math/rand for reproducible scalar draws in
// tests; it implements io.Reader.
type deterministicRand struct{ r *rand.Rand }

func newDetRand(seed int64) *deterministicRand {
	return &deterministicRand{r: rand.New(rand.NewSource(seed))}
}

func (d *deterministicRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

func randPoint(t *testing.T, c *Curve, rng *deterministicRand) Point {
	t.Helper()
	k, err := c.RandomScalar(rng)
	if err != nil {
		t.Fatalf("RandomScalar: %v", err)
	}
	return c.ScalarBaseMult(k)
}

func TestGroupLaws(t *testing.T) {
	rng := newDetRand(1)
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			p := randPoint(t, c, rng)
			q := randPoint(t, c, rng)
			r := randPoint(t, c, rng)

			// Commutativity.
			if !c.Add(p, q).Equal(c.Add(q, p)) {
				t.Error("P+Q != Q+P")
			}
			// Associativity.
			if !c.Add(c.Add(p, q), r).Equal(c.Add(p, c.Add(q, r))) {
				t.Error("(P+Q)+R != P+(Q+R)")
			}
			// Identity.
			if !c.Add(p, Infinity()).Equal(p) {
				t.Error("P+∞ != P")
			}
			if !c.Add(Infinity(), p).Equal(p) {
				t.Error("∞+P != P")
			}
			// Inverse.
			if !c.Add(p, c.Neg(p)).IsInfinity() {
				t.Error("P+(−P) != ∞")
			}
			// Doubling consistency.
			if !c.Double(p).Equal(c.Add(p, p)) {
				t.Error("2P != P+P")
			}
			// Subtraction.
			if !c.Sub(c.Add(p, q), q).Equal(p) {
				t.Error("(P+Q)−Q != P")
			}
			// Closure.
			if !c.IsOnCurve(c.Add(p, q)) {
				t.Error("P+Q left the curve")
			}
		})
	}
}

func TestDoubleInfinityAndTwoTorsion(t *testing.T) {
	c := P256()
	if !c.Double(Infinity()).IsInfinity() {
		t.Error("2·∞ != ∞")
	}
	// A point with y = 0 would be its own inverse; the NIST curves have
	// prime order so no such point exists, but the formula must still
	// return ∞ for the synthetic input.
	if !c.fromJacobian(c.jacDouble(&jacobianPoint{
		x: big.NewInt(5), y: new(big.Int), z: big.NewInt(1),
	})).IsInfinity() {
		t.Error("doubling a y=0 point must give ∞")
	}
}

func TestEncodingRoundTrip(t *testing.T) {
	rng := newDetRand(2)
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			for i := 0; i < 16; i++ {
				p := randPoint(t, c, rng)

				enc := c.EncodeUncompressed(p)
				if len(enc) != c.UncompressedPointSize() {
					t.Fatalf("uncompressed length %d, want %d", len(enc), c.UncompressedPointSize())
				}
				dec, err := c.DecodePoint(enc)
				if err != nil {
					t.Fatalf("decode uncompressed: %v", err)
				}
				if !dec.Equal(p) {
					t.Fatal("uncompressed round trip failed")
				}

				comp := c.EncodeCompressed(p)
				if len(comp) != c.CompressedPointSize() {
					t.Fatalf("compressed length %d, want %d", len(comp), c.CompressedPointSize())
				}
				dec2, err := c.DecodePoint(comp)
				if err != nil {
					t.Fatalf("decode compressed: %v", err)
				}
				if !dec2.Equal(p) {
					t.Fatal("compressed round trip failed")
				}
			}
		})
	}
}

func TestEncodingInfinity(t *testing.T) {
	c := P256()
	enc := c.EncodeUncompressed(Infinity())
	if !bytes.Equal(enc, []byte{0x00}) {
		t.Errorf("infinity encoding = %x, want 00", enc)
	}
	p, err := c.DecodePoint(enc)
	if err != nil || !p.IsInfinity() {
		t.Errorf("infinity decode: %v, %v", p, err)
	}
	if !bytes.Equal(c.EncodeCompressed(Infinity()), []byte{0x00}) {
		t.Error("compressed infinity encoding wrong")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	c := P256()
	g := c.Generator()
	valid := c.EncodeUncompressed(g)

	cases := map[string][]byte{
		"empty":             {},
		"bad prefix":        {0x05, 1, 2, 3},
		"short":             valid[:10],
		"long":              append(append([]byte{}, valid...), 0x00),
		"infinity trailing": {0x00, 0x01},
	}
	for name, data := range cases {
		if _, err := c.DecodePoint(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}

	// Off-curve uncompressed point.
	offCurve := append([]byte{}, valid...)
	offCurve[len(offCurve)-1] ^= 0x01
	if _, err := c.DecodePoint(offCurve); err == nil {
		t.Error("off-curve point accepted")
	}

	// Compressed x with no square root. x = 5 on P-256: check whether
	// it lifts; find an x that does not by scanning a few candidates.
	found := false
	for x := int64(1); x < 64 && !found; x++ {
		cand := make([]byte, c.CompressedPointSize())
		cand[0] = 0x02
		big.NewInt(x).FillBytes(cand[1:])
		if _, err := c.DecodePoint(cand); err != nil {
			found = true
		}
	}
	if !found {
		t.Error("expected at least one non-residue x in [1,64)")
	}

	// Compressed x >= p must be rejected.
	tooBig := make([]byte, c.CompressedPointSize())
	tooBig[0] = 0x02
	new(big.Int).Set(c.P).FillBytes(tooBig[1:])
	if _, err := c.DecodePoint(tooBig); err == nil {
		t.Error("compressed x >= p accepted")
	}
}

func TestCompressionParity(t *testing.T) {
	// Both lifts of the same x must decode to distinct points that are
	// negatives of each other.
	c := P256()
	g := c.Generator()
	enc := c.EncodeCompressed(g)
	encFlip := append([]byte{}, enc...)
	encFlip[0] ^= 0x01

	p1, err := c.DecodePoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.DecodePoint(encFlip)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Equal(c.Neg(p1)) {
		t.Error("flipped parity did not decode to the negated point")
	}
}

// TestQuickEncodeDecode is a property test: every k·G round-trips
// through both encodings.
func TestQuickEncodeDecode(t *testing.T) {
	c := P256()
	f := func(seed int64) bool {
		k := new(big.Int).Mod(big.NewInt(seed), c.N)
		if k.Sign() <= 0 {
			k.SetInt64(1)
		}
		p := c.ScalarBaseMult(k)
		u, err1 := c.DecodePoint(c.EncodeUncompressed(p))
		cp, err2 := c.DecodePoint(c.EncodeCompressed(p))
		return err1 == nil && err2 == nil && u.Equal(p) && cp.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 32}); err != nil {
		t.Error(err)
	}
}

func TestPointClone(t *testing.T) {
	c := P256()
	p := c.Generator()
	q := p.Clone()
	q.X.Add(q.X, big.NewInt(1))
	if p.X.Cmp(c.Gx) != 0 {
		t.Error("Clone aliased the original coordinates")
	}
	if !Infinity().Clone().IsInfinity() {
		t.Error("Clone of infinity must stay infinity")
	}
}

// liftOnly returns a copy of c that decompresses through liftX, never
// through crypto/elliptic.
func liftOnly(c *Curve) *Curve {
	h := func(v *big.Int) string { return v.Text(16) }
	l := newCurve(c.Name, h(c.P), h(c.A), h(c.B), h(c.Gx), h(c.Gy), h(c.N), c.H, c.BitSize)
	l.stdlib = nil
	return l
}

// TestDecodeCompressedStdlibMatchesLift: P-256 decompression through
// crypto/elliptic returns exactly what the liftX path returns — the
// same point, or an ErrInvalidPoint error from both.
func TestDecodeCompressedStdlibMatchesLift(t *testing.T) {
	c := P256()
	if c.stdlib == nil {
		t.Fatal("P-256 does not decompress through crypto/elliptic")
	}
	lift := liftOnly(c)
	size := c.CompressedPointSize()
	compressed := func(prefix byte, x *big.Int) []byte {
		out := make([]byte, size)
		out[0] = prefix
		x.FillBytes(out[1:])
		return out
	}

	var inputs [][]byte
	rng := newDetRand(44)
	for i := 0; i < 64; i++ {
		enc := c.EncodeCompressed(randPoint(t, c, rng))
		flip := append([]byte{}, enc...)
		flip[0] ^= 0x01 // the other parity: −P
		inputs = append(inputs, enc, flip)
	}
	for _, prefix := range []byte{0x02, 0x03} {
		// x ≥ p, including the largest x that still fits.
		inputs = append(inputs,
			compressed(prefix, c.P),
			compressed(prefix, new(big.Int).Add(c.P, big.NewInt(1))),
			compressed(prefix, new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))))
		// Small x, residues and non-residues alike, and x = 0.
		for x := int64(0); x < 16; x++ {
			inputs = append(inputs, compressed(prefix, big.NewInt(x)))
		}
		// Wrong lengths.
		g := compressed(prefix, c.Gx)
		inputs = append(inputs, g[:size-1], append(g, 0x00), []byte{prefix})
	}
	nonResidue := false
	for i, data := range inputs {
		got, gotErr := c.DecodePoint(data)
		want, wantErr := lift.DecodePoint(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("input %d (%x): stdlib err %v, lift err %v", i, data, gotErr, wantErr)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrInvalidPoint) {
				t.Fatalf("input %d (%x): %v does not wrap ErrInvalidPoint", i, data, gotErr)
			}
			if len(data) == size && new(big.Int).SetBytes(data[1:]).Cmp(c.P) < 0 {
				nonResidue = true
			}
			continue
		}
		if !got.Equal(want) || !c.IsOnCurve(got) {
			t.Fatalf("input %d (%x): stdlib %v, lift %v", i, data, got, want)
		}
	}
	if !nonResidue {
		t.Fatal("no non-residue x among the inputs")
	}
}

// BenchmarkDecodeCompressed times P-256 decompression, the first step
// of every ECQV certificate decode: crypto/elliptic against liftX.
func BenchmarkDecodeCompressed(b *testing.B) {
	c := P256()
	enc := c.EncodeCompressed(c.ScalarBaseMult(big.NewInt(0x5eed)))
	for _, bc := range []struct {
		name  string
		curve *Curve
	}{{"crypto-elliptic", c}, {"liftX", liftOnly(c)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.curve.DecodePoint(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
