package ecdsa

import (
	stdecdsa "crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"math/big"
	"testing"

	"repro/internal/ec"
)

// Differential tests of P-256 verification: the crypto/ecdsa engine
// that VerifyDigest runs must return the verdict of the in-repo
// CombinedMult engine, with and without a precomputed table, on every
// input. Under -tags ec_purebig the in-repo engine is the math/big
// oracle.

// combinedVerdicts returns the in-repo verdicts for sig over digest
// under q: fresh CombinedMult, then through a MultTable.
func combinedVerdicts(c *ec.Curve, q ec.Point, digest []byte, sig Signature) (plain, table bool) {
	p := &PublicKey{Curve: c, Q: q}
	if !p.accepts(sig) {
		return false, false
	}
	tabled := &PublicKey{Curve: c, Q: q, table: c.NewMultTable(q)}
	return p.verifyCombined(digest, sig), tabled.verifyCombined(digest, sig)
}

// checkVerdicts fails unless VerifyDigest, crypto/ecdsa on its own
// (without VerifyDigest's checks, where its API takes the input) and
// both in-repo engines agree on sig over digest under q. It returns
// the common verdict.
func checkVerdicts(t *testing.T, q ec.Point, digest []byte, sig Signature) bool {
	t.Helper()
	c := ec.P256()
	got := (&PublicKey{Curve: c, Q: q}).VerifyDigest(digest, sig)
	plain, table := combinedVerdicts(c, q, digest, sig)
	if got != plain || got != table {
		t.Fatalf("VerifyDigest %v, CombinedMult %v, MultTable %v (q %v, r %v, s %v, digest %x)",
			got, plain, table, q, sig.R, sig.S, digest)
	}
	if !q.IsInfinity() && sig.R != nil && sig.S != nil {
		raw := stdecdsa.Verify(&stdecdsa.PublicKey{Curve: elliptic.P256(), X: q.X, Y: q.Y}, digest, sig.R, sig.S)
		if raw != got {
			t.Fatalf("crypto/ecdsa alone %v, VerifyDigest %v (q %v, r %v, s %v, digest %x)",
				raw, got, q, sig.R, sig.S, digest)
		}
	}
	return got
}

func TestVerifyStdlibMatchesCombinedMult(t *testing.T) {
	c := ec.P256()
	rng := newDetRand(71)
	key, err := GenerateKey(c, rng)
	if err != nil {
		t.Fatal(err)
	}
	other, err := GenerateKey(c, rng)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("differential verify"))
	sig, err := key.SignDigest(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	n := c.N
	plus := func(v *big.Int, d int64) *big.Int { return new(big.Int).Add(v, big.NewInt(d)) }
	withR := func(r *big.Int) Signature { return Signature{R: r, S: sig.S} }
	withS := func(s *big.Int) Signature { return Signature{R: sig.R, S: s} }
	tampered := append([]byte{}, digest[:]...)
	tampered[7] ^= 0x10
	random := sha256.Sum256([]byte("some other message"))
	offCurve := ec.Point{X: key.Q.X, Y: plus(key.Q.Y, 1)}

	// Digests longer than n are truncated to its leftmost bits by both
	// signer and verifiers; shorter ones are used whole.
	long := make([]byte, 64)
	short := make([]byte, 16)
	rng.Read(long)
	rng.Read(short)
	longSig, err := key.SignDigest(long)
	if err != nil {
		t.Fatal(err)
	}
	shortSig, err := key.SignDigest(short)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		q      ec.Point
		digest []byte
		sig    Signature
		want   bool
	}{
		{"valid", key.Q, digest[:], sig, true},
		{"high-S", key.Q, digest[:], withS(new(big.Int).Sub(n, sig.S)), true},
		{"64-byte digest", key.Q, long, longSig, true},
		{"16-byte digest", key.Q, short, shortSig, true},
		{"64-byte digest, tail tampered", key.Q, append(append([]byte{}, long[:32]...), make([]byte, 32)...), longSig, true},
		{"random digest", key.Q, random[:], sig, false},
		{"tampered digest", key.Q, tampered, sig, false},
		{"empty digest", key.Q, nil, sig, false},
		{"r = 0", key.Q, digest[:], withR(big.NewInt(0)), false},
		{"r = 1", key.Q, digest[:], withR(big.NewInt(1)), false},
		{"r = n-1", key.Q, digest[:], withR(plus(n, -1)), false},
		{"r = n", key.Q, digest[:], withR(plus(n, 0)), false},
		{"r = n+1", key.Q, digest[:], withR(plus(n, 1)), false},
		{"r + n", key.Q, digest[:], withR(new(big.Int).Add(sig.R, n)), false},
		{"r < 0", key.Q, digest[:], withR(new(big.Int).Neg(sig.R)), false},
		{"s = 0", key.Q, digest[:], withS(big.NewInt(0)), false},
		{"s = 1", key.Q, digest[:], withS(big.NewInt(1)), false},
		{"s = n-1", key.Q, digest[:], withS(plus(n, -1)), false},
		{"s = n", key.Q, digest[:], withS(plus(n, 0)), false},
		{"s = n+1", key.Q, digest[:], withS(plus(n, 1)), false},
		{"s + n", key.Q, digest[:], withS(new(big.Int).Add(sig.S, n)), false},
		{"nil r", key.Q, digest[:], withR(nil), false},
		{"nil s", key.Q, digest[:], withS(nil), false},
		{"nil r and s", key.Q, digest[:], Signature{}, false},
		{"wrong key", other.Q, digest[:], sig, false},
		{"off-curve key", offCurve, digest[:], sig, false},
		{"x out of field", ec.Point{X: plus(c.P, 0), Y: key.Q.Y}, digest[:], sig, false},
		{"infinity key", ec.Infinity(), digest[:], sig, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkVerdicts(t, tc.q, tc.digest, tc.sig); got != tc.want {
				t.Fatalf("verdict %v, want %v", got, tc.want)
			}
		})
	}

	// Random keys, digests and signatures, each also tampered.
	for i := 0; i < 32; i++ {
		k, err := GenerateKey(c, rng)
		if err != nil {
			t.Fatal(err)
		}
		d := make([]byte, 32)
		rng.Read(d)
		s, err := k.SignDigest(d)
		if err != nil {
			t.Fatal(err)
		}
		if !checkVerdicts(t, k.Q, d, s) {
			t.Fatalf("random case %d: valid signature rejected", i)
		}
		d[i%32] ^= 1 << (i % 8)
		if checkVerdicts(t, k.Q, d, s) {
			t.Fatalf("random case %d: tampered digest accepted", i)
		}
	}
}

// FuzzVerifyDigest feeds arbitrary keys, digests and signatures to
// P-256 verification and requires the crypto/ecdsa verdict to equal the
// in-repo CombinedMult verdicts. An empty qx is the point at infinity;
// an empty r or s is nil. The committed corpus under
// testdata/fuzz/FuzzVerifyDigest holds valid signatures with their
// tampered and edge-case variants.
func FuzzVerifyDigest(f *testing.F) {
	c := ec.P256()
	key, err := GenerateKey(c, newDetRand(72))
	if err != nil {
		f.Fatal(err)
	}
	digest := sha256.Sum256([]byte("fuzz seed"))
	sig, err := key.SignDigest(digest[:])
	if err != nil {
		f.Fatal(err)
	}
	qx, qy := key.Q.X.Bytes(), key.Q.Y.Bytes()
	f.Add(digest[:], qx, qy, sig.R.Bytes(), sig.S.Bytes())
	f.Add(digest[:], qx, qy, sig.R.Bytes(), new(big.Int).Sub(c.N, sig.S).Bytes())
	f.Add(digest[:], []byte{}, []byte{}, sig.R.Bytes(), sig.S.Bytes())
	f.Add(digest[:], qx, qy, []byte{}, sig.S.Bytes())
	f.Add(digest[:], qx, qy, c.N.Bytes(), sig.S.Bytes())

	f.Fuzz(func(t *testing.T, digest, qx, qy, r, s []byte) {
		q := ec.Infinity()
		if len(qx) > 0 {
			q = ec.Point{X: new(big.Int).SetBytes(qx), Y: new(big.Int).SetBytes(qy)}
		}
		var sig Signature
		if len(r) > 0 {
			sig.R = new(big.Int).SetBytes(r)
		}
		if len(s) > 0 {
			sig.S = new(big.Int).SetBytes(s)
		}
		checkVerdicts(t, q, digest, sig)
	})
}

// BenchmarkVerifyDigest times one verification per engine, checks
// included: crypto/ecdsa on P-256, the in-repo CombinedMult through a
// MultTable on P-256 (the engine it replaced) and on P-224.
func BenchmarkVerifyDigest(b *testing.B) {
	digest := sha256.Sum256([]byte("bench verify"))
	for _, bc := range []struct {
		name     string
		curve    *ec.Curve
		replaced bool
	}{
		{"P-256/crypto-ecdsa", ec.P256(), false},
		{"P-256/table", ec.P256(), true},
		{"P-224/table", ec.P224(), false},
	} {
		key, err := GenerateKey(bc.curve, newDetRand(74))
		if err != nil {
			b.Fatal(err)
		}
		sig, err := key.SignDigest(digest[:])
		if err != nil {
			b.Fatal(err)
		}
		pub := key.Public().Precompute()
		verify := pub.VerifyDigest
		if bc.replaced {
			pub.table = bc.curve.NewMultTable(pub.Q)
			verify = func(d []byte, s Signature) bool { return pub.accepts(s) && pub.verifyCombined(d, s) }
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !verify(digest[:], sig) {
					b.Fatal("rejected")
				}
			}
		})
	}
}
