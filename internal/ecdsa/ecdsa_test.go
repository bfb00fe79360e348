package ecdsa

import (
	"bytes"
	stdecdsa "crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ec"
)

type detRand struct{ r *rand.Rand }

func newDetRand(seed int64) *detRand { return &detRand{r: rand.New(rand.NewSource(seed))} }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

func TestSignVerifyRoundTrip(t *testing.T) {
	rng := newDetRand(1)
	for _, c := range ec.Curves() {
		t.Run(c.Name, func(t *testing.T) {
			key, err := GenerateKey(c, rng)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("sts ecqv dynamic session establishment")
			sig, err := key.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if !key.Public().Verify(msg, sig) {
				t.Fatal("signature did not verify")
			}
			if key.Public().Verify(append(msg, 'x'), sig) {
				t.Fatal("signature verified for modified message")
			}
		})
	}
}

func TestDeterministicSignatures(t *testing.T) {
	rng := newDetRand(2)
	c := ec.P256()
	key, err := GenerateKey(c, rng)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("same message")
	s1, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if s1.R.Cmp(s2.R) != 0 || s1.S.Cmp(s2.S) != 0 {
		t.Error("RFC 6979 signing must be deterministic")
	}
	s3, err := key.Sign([]byte("different message"))
	if err != nil {
		t.Fatal(err)
	}
	if s1.R.Cmp(s3.R) == 0 {
		t.Error("different messages produced the same nonce")
	}
}

// TestRFC6979Vector checks the published P-256/SHA-256 test vector
// (RFC 6979 §A.2.5, message "sample"). The implementation normalises
// to low-S, so s may equal n − s_vector.
func TestRFC6979Vector(t *testing.T) {
	c := ec.P256()
	d, _ := new(big.Int).SetString("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721", 16)
	key, err := NewPrivateKey(c, d)
	if err != nil {
		t.Fatal(err)
	}
	// Public key check from the RFC.
	wantUx, _ := new(big.Int).SetString("60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6", 16)
	wantUy, _ := new(big.Int).SetString("7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299", 16)
	if key.Q.X.Cmp(wantUx) != 0 || key.Q.Y.Cmp(wantUy) != 0 {
		t.Fatal("public key mismatch with RFC 6979 vector")
	}

	sig, err := key.Sign([]byte("sample"))
	if err != nil {
		t.Fatal(err)
	}
	wantR, _ := new(big.Int).SetString("efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716", 16)
	wantS, _ := new(big.Int).SetString("f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8", 16)
	if sig.R.Cmp(wantR) != 0 {
		t.Errorf("r = %x, want %x", sig.R, wantR)
	}
	sNeg := new(big.Int).Sub(c.N, wantS)
	if sig.S.Cmp(wantS) != 0 && sig.S.Cmp(sNeg) != 0 {
		t.Errorf("s = %x, want %x or its negation", sig.S, wantS)
	}
}

// TestRFC6979VectorP224 checks the P-224/SHA-256 vector (RFC 6979
// §A.2.4, message "sample").
func TestRFC6979VectorP224(t *testing.T) {
	c := ec.P224()
	d, _ := new(big.Int).SetString("f220266e1105bfe3083e03ec7a3a654651f45e37167e88600bf257c1", 16)
	key, err := NewPrivateKey(c, d)
	if err != nil {
		t.Fatal(err)
	}
	wantUx, _ := new(big.Int).SetString("00cf08da5ad719e42707fa431292dea11244d64fc51610d94b130d6c", 16)
	wantUy, _ := new(big.Int).SetString("eeab6f3debe455e3dbf85416f7030cbd94f34f2d6f232c69f3c1385a", 16)
	if key.Q.X.Cmp(wantUx) != 0 || key.Q.Y.Cmp(wantUy) != 0 {
		t.Fatal("P-224 public key mismatch with RFC 6979 vector")
	}
	sig, err := key.Sign([]byte("sample"))
	if err != nil {
		t.Fatal(err)
	}
	wantR, _ := new(big.Int).SetString("61aa3da010e8e8406c656bc477a7a7189895e7e840cdfe8ff42307ba", 16)
	wantS, _ := new(big.Int).SetString("bc814050dab5d23770879494f9e0a680dc1af7161991bde692b10101", 16)
	if sig.R.Cmp(wantR) != 0 {
		t.Errorf("r = %x, want %x", sig.R, wantR)
	}
	sNeg := new(big.Int).Sub(c.N, wantS)
	if sig.S.Cmp(wantS) != 0 && sig.S.Cmp(sNeg) != 0 {
		t.Errorf("s = %x, want %x or its negation", sig.S, wantS)
	}
}

// TestCrossVerifyWithStdlib signs with this package and verifies with
// crypto/ecdsa, and vice versa.
func TestCrossVerifyWithStdlib(t *testing.T) {
	rng := newDetRand(3)
	c := ec.P256()
	key, err := GenerateKey(c, rng)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("cross verification message")
	digest := sha256.Sum256(msg)

	sig, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	stdPub := &stdecdsa.PublicKey{Curve: elliptic.P256(), X: key.Q.X, Y: key.Q.Y}
	if !stdecdsa.Verify(stdPub, digest[:], sig.R, sig.S) {
		t.Error("stdlib rejected our signature")
	}

	stdPriv := &stdecdsa.PrivateKey{PublicKey: *stdPub, D: key.D}
	r, s, err := stdecdsa.Sign(newDetRand(4), stdPriv, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !key.Public().VerifyDigest(digest[:], Signature{R: r, S: s}) {
		t.Error("we rejected a stdlib signature")
	}
}

func TestVerifyRejectsInvalid(t *testing.T) {
	rng := newDetRand(5)
	c := ec.P256()
	key, _ := GenerateKey(c, rng)
	msg := []byte("message")
	sig, _ := key.Sign(msg)
	pub := key.Public()

	bad := []Signature{
		{R: nil, S: nil},
		{R: new(big.Int), S: sig.S},                           // r = 0
		{R: sig.R, S: new(big.Int)},                           // s = 0
		{R: new(big.Int).Set(c.N), S: sig.S},                  // r = n
		{R: sig.R, S: new(big.Int).Set(c.N)},                  // s = n
		{R: new(big.Int).Neg(sig.R), S: sig.S},                // r < 0
		{R: new(big.Int).Add(sig.R, big.NewInt(1)), S: sig.S}, // wrong r
		{R: sig.R, S: new(big.Int).Add(sig.S, big.NewInt(1))}, // wrong s
	}
	for i, b := range bad {
		if pub.Verify(msg, b) {
			t.Errorf("case %d: invalid signature accepted", i)
		}
	}

	// Wrong key.
	other, _ := GenerateKey(c, rng)
	if other.Public().Verify(msg, sig) {
		t.Error("signature verified under the wrong key")
	}
	// Infinity public key.
	infPub := &PublicKey{Curve: c, Q: ec.Infinity()}
	if infPub.Verify(msg, sig) {
		t.Error("signature verified under infinity key")
	}
}

func TestLowSNormalisation(t *testing.T) {
	rng := newDetRand(6)
	c := ec.P256()
	halfN := new(big.Int).Rsh(c.N, 1)
	key, _ := GenerateKey(c, rng)
	for i := 0; i < 16; i++ {
		msg := []byte{byte(i)}
		sig, err := key.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if sig.S.Cmp(halfN) > 0 {
			t.Fatal("high-S signature emitted")
		}
	}
}

func TestRawEncoding(t *testing.T) {
	rng := newDetRand(7)
	for _, c := range ec.Curves() {
		key, _ := GenerateKey(c, rng)
		sig, _ := key.Sign([]byte("encode me"))

		raw := sig.EncodeRaw(c)
		if len(raw) != RawSize(c) {
			t.Fatalf("%s: raw size %d, want %d", c.Name, len(raw), RawSize(c))
		}
		dec, err := DecodeRaw(c, raw)
		if err != nil {
			t.Fatal(err)
		}
		if dec.R.Cmp(sig.R) != 0 || dec.S.Cmp(sig.S) != 0 {
			t.Fatal("raw round trip failed")
		}
	}
	// P-256 raw signatures are exactly the 64 bytes of Table II.
	if RawSize(ec.P256()) != 64 {
		t.Errorf("P-256 raw signature size = %d, want 64", RawSize(ec.P256()))
	}

	c := ec.P256()
	if _, err := DecodeRaw(c, make([]byte, 10)); err == nil {
		t.Error("short raw signature accepted")
	}
	if _, err := DecodeRaw(c, make([]byte, RawSize(c))); err == nil {
		t.Error("all-zero raw signature accepted")
	}
}

func TestNewPrivateKeyValidation(t *testing.T) {
	c := ec.P256()
	if _, err := NewPrivateKey(c, nil); err == nil {
		t.Error("nil scalar accepted")
	}
	if _, err := NewPrivateKey(c, new(big.Int)); err == nil {
		t.Error("zero scalar accepted")
	}
	if _, err := NewPrivateKey(c, c.N); err == nil {
		t.Error("scalar = n accepted")
	}
	k, err := NewPrivateKey(c, big.NewInt(12345))
	if err != nil {
		t.Fatal(err)
	}
	if !k.Q.Equal(c.ScalarBaseMult(big.NewInt(12345))) {
		t.Error("derived public key wrong")
	}
}

// TestQuickSignVerify property-tests the full sign/verify loop across
// random messages.
func TestQuickSignVerify(t *testing.T) {
	rng := newDetRand(8)
	c := ec.P256()
	key, _ := GenerateKey(c, rng)
	f := func(msg []byte) bool {
		sig, err := key.Sign(msg)
		if err != nil {
			return false
		}
		return key.Public().Verify(msg, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

func TestSignScalarMatchesPrivateKey(t *testing.T) {
	for _, c := range ec.Curves() {
		key, err := GenerateKey(c, newDetRand(21))
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("sign without deriving Q")
		want, err := key.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SignScalar(c, key.D, msg)
		if err != nil {
			t.Fatal(err)
		}
		if got.R.Cmp(want.R) != 0 || got.S.Cmp(want.S) != 0 {
			t.Fatalf("%s: SignScalar differs from PrivateKey.Sign", c.Name)
		}
		for _, d := range []*big.Int{nil, big.NewInt(0), big.NewInt(-1), new(big.Int).Set(c.N)} {
			if _, err := SignScalar(c, d, msg); err == nil {
				t.Errorf("%s: SignScalar accepted out-of-range d=%v", c.Name, d)
			}
		}
	}
}

// TestRFC6979RetrySequence pins the candidate stream against RFC 6979
// §3.2 step h written out eagerly, update after every candidate: the
// lazy generator must yield the same candidates when some are
// rejected.
func TestRFC6979RetrySequence(t *testing.T) {
	c := ec.P256()
	priv := big.NewInt(0xc0ffee)
	digest := sha256.Sum256([]byte("retry"))
	mac := func(key []byte, parts ...[]byte) []byte {
		m := hmac.New(sha256.New, key)
		for _, p := range parts {
			m.Write(p)
		}
		return m.Sum(nil)
	}
	x := c.ScalarToBytes(priv)
	h1 := c.ScalarToBytes(c.HashToInt(digest[:]))
	v := bytes.Repeat([]byte{0x01}, sha256.Size)
	k := make([]byte, sha256.Size)
	k = mac(k, v, []byte{0x00}, x, h1)
	v = mac(k, v)
	k = mac(k, v, []byte{0x01}, x, h1)
	v = mac(k, v)

	gen := newRFC6979(c, priv, digest[:])
	for i := 0; i < 4; i++ {
		v = mac(k, v)
		want := new(big.Int).SetBytes(v) // qlen = hlen = 256 on P-256
		if got := gen.next(); got.Cmp(want) != 0 {
			t.Fatalf("candidate %d: got %x, want %x", i, got, want)
		}
		k = mac(k, v, []byte{0x00})
		v = mac(k, v)
	}
}

// TestNonceBlind checks the inversion blinding factor: it lies in
// [1, n−1], depends on the key and the digest, leaves the RFC 6979
// candidate stream untouched, and never changes the signature.
func TestNonceBlind(t *testing.T) {
	c := ec.P256()
	priv := big.NewInt(0xc0ffee)
	digest := sha256.Sum256([]byte("blind"))
	other := sha256.Sum256([]byte("blind2"))

	g1 := newRFC6979(c, priv, digest[:])
	b := g1.blind()
	if b.Sign() <= 0 || b.Cmp(c.N) >= 0 {
		t.Fatalf("blind %x outside [1, n−1]", b)
	}
	if again := newRFC6979(c, priv, digest[:]).blind(); again.Cmp(b) != 0 {
		t.Fatal("blind is not deterministic")
	}
	if newRFC6979(c, priv, other[:]).blind().Cmp(b) == 0 ||
		newRFC6979(c, big.NewInt(0xc0ffef), digest[:]).blind().Cmp(b) == 0 {
		t.Fatal("blind ignores the digest or the key")
	}
	g2 := newRFC6979(c, priv, digest[:])
	for i := 0; i < 3; i++ {
		if x, y := g1.next(), g2.next(); x.Cmp(y) != 0 {
			t.Fatalf("candidate %d moved after blind: %x vs %x", i, x, y)
		}
	}

	key := &PrivateKey{Curve: c, D: priv}
	e := c.HashToInt(digest[:])
	nonce := newRFC6979(c, priv, digest[:]).next()
	want, err := key.signWithNonce(e, nonce, big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, blind := range []*big.Int{b, new(big.Int).Sub(c.N, big.NewInt(1)), big.NewInt(2)} {
		got, err := key.signWithNonce(e, nonce, blind)
		if err != nil {
			t.Fatal(err)
		}
		if got.R.Cmp(want.R) != 0 || got.S.Cmp(want.S) != 0 {
			t.Fatalf("blind %x changed the signature", blind)
		}
	}
}
