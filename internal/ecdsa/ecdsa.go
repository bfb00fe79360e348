// Package ecdsa implements the Elliptic Curve Digital Signature
// Algorithm over the internal/ec substrate, including RFC 6979
// deterministic nonce generation and low-S normalisation.
//
// Signing and the raw r‖s encoding stay in-repo: the ECQV scheme signs
// under reconstructed private scalars, and the protocol stack needs
// fixed-width raw signatures for the byte-exact wire-overhead
// reproduction of the paper's Table II. Verification takes keys held
// as raw curve points and picks its engine by curve: on P-256 it calls
// crypto/ecdsa, the standard library's assembly implementation; on
// P-224 and P-192 it runs CombinedMult on internal/ec, through a
// precomputed MultTable when the key has one. The in-repo path also
// serves as the differential oracle for the P-256 one.
package ecdsa

import (
	stdecdsa "crypto/ecdsa"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/big"

	"repro/internal/ec"
)

// PrivateKey is an ECDSA signing key.
type PrivateKey struct {
	Curve *ec.Curve
	D     *big.Int
	Q     ec.Point // public key D·G
}

// PublicKey is an ECDSA verification key. ECQV reconstructed keys are
// wrapped in this type for verification.
type PublicKey struct {
	Curve *ec.Curve
	Q     ec.Point

	// table is the optional precomputed odd-multiples table for Q,
	// installed by Precompute. It turns every verification's
	// CombinedMult into mixed additions against a shared cache —
	// worthwhile whenever the same key verifies more than once (fleet
	// rekeys, group key distribution).
	table *ec.MultTable
}

// Precompute builds and attaches the scalar-multiplication table for
// Q, returning the key for chaining. Call it once at construction
// time; a PublicKey must not be shared concurrently while Precompute
// runs. On P-256, which verifies on crypto/ecdsa and never reads a
// table, it builds nothing.
func (p *PublicKey) Precompute() *PublicKey {
	if p.table == nil && !p.Q.IsInfinity() && p.Curve.StdlibCurve() == nil {
		p.table = p.Curve.NewMultTable(p.Q)
	}
	return p
}

// Signature is a raw ECDSA signature pair.
type Signature struct {
	R, S *big.Int
}

// GenerateKey draws a fresh key pair on curve c. A nil rng selects
// crypto/rand.
func GenerateKey(c *ec.Curve, rng io.Reader) (*PrivateKey, error) {
	d, q, err := c.GenerateKeyPair(rng)
	if err != nil {
		return nil, fmt.Errorf("ecdsa: generate key: %w", err)
	}
	return &PrivateKey{Curve: c, D: d, Q: q}, nil
}

// errPrivRange rejects a private scalar outside [1, n−1].
var errPrivRange = errors.New("ecdsa: private scalar out of range")

// NewPrivateKey wraps an existing scalar (e.g. an ECQV-reconstructed
// private key) as a signing key, validating its range and deriving the
// public point on the constant-time secret path.
func NewPrivateKey(c *ec.Curve, d *big.Int) (*PrivateKey, error) {
	if d == nil || d.Sign() <= 0 || d.Cmp(c.N) >= 0 {
		return nil, errPrivRange
	}
	q, err := c.SecretBaseMult(c.ScalarToBytes(d))
	if err != nil {
		return nil, err
	}
	return &PrivateKey{Curve: c, D: new(big.Int).Set(d), Q: q}, nil
}

// SignScalar signs the SHA-256 digest of msg under the private scalar
// d, exactly as NewPrivateKey(c, d).Sign(msg) would, but without
// deriving the public point: signing never reads Q, so a signer that
// holds only d saves NewPrivateKey's base-point multiplication.
func SignScalar(c *ec.Curve, d *big.Int, msg []byte) (Signature, error) {
	if d == nil || d.Sign() <= 0 || d.Cmp(c.N) >= 0 {
		return Signature{}, errPrivRange
	}
	return (&PrivateKey{Curve: c, D: d}).Sign(msg)
}

// Public returns the verification key for k.
func (k *PrivateKey) Public() *PublicKey {
	return &PublicKey{Curve: k.Curve, Q: k.Q.Clone()}
}

// errZeroParam guards the (cryptographically negligible) degenerate
// nonce cases so signing retries instead of emitting r = 0 or s = 0.
var errZeroParam = errors.New("ecdsa: zero parameter, retry with new nonce")

// Sign produces a deterministic (RFC 6979) ECDSA signature over the
// SHA-256 digest of msg. Determinism removes the catastrophic
// nonce-reuse failure mode on embedded devices without entropy
// sources — the exact deployment environment of the paper.
func (k *PrivateKey) Sign(msg []byte) (Signature, error) {
	digest := sha256.Sum256(msg)
	return k.SignDigest(digest[:])
}

// SignDigest signs a precomputed digest.
func (k *PrivateKey) SignDigest(digest []byte) (Signature, error) {
	c := k.Curve
	e := c.HashToInt(digest)

	gen := newRFC6979(c, k.D, digest)
	blind := gen.blind()
	for i := 0; i < 128; i++ {
		nonce := gen.next()
		sig, err := k.signWithNonce(e, nonce, blind)
		if err == nil {
			return sig, nil
		}
		if !errors.Is(err, errZeroParam) {
			return Signature{}, err
		}
	}
	return Signature{}, errors.New("ecdsa: nonce generation did not converge")
}

// signWithNonce signs e with the secret nonce. blind ∈ [1, n−1] masks
// the nonce inversion: math/big's ModInverse is a variable-time GCD,
// so it inverts nonce·blind, which is independent of the nonce, and
// nonce⁻¹ = blind·(nonce·blind)⁻¹ mod n. The signature is the one an
// unblinded inversion gives.
func (k *PrivateKey) signWithNonce(e, nonce, blind *big.Int) (Signature, error) {
	c := k.Curve
	if nonce.Sign() == 0 || nonce.Cmp(c.N) >= 0 {
		return Signature{}, errZeroParam
	}
	// (x1, _) = nonce·G ; r = x1 mod n. The nonce is secret: it runs
	// on the constant-time path.
	p, err := c.SecretBaseMult(nonce.FillBytes(make([]byte, c.ByteLen())))
	if err != nil {
		return Signature{}, err
	}
	r := new(big.Int).Mod(p.X, c.N)
	if r.Sign() == 0 {
		return Signature{}, errZeroParam
	}
	// s = nonce⁻¹ (e + r·d) mod n
	kInv := new(big.Int).Mul(nonce, blind)
	kInv.Mod(kInv, c.N)
	kInv.ModInverse(kInv, c.N)
	kInv.Mul(kInv, blind)
	s := new(big.Int).Mul(r, k.D)
	s.Add(s, e)
	s.Mul(s, kInv)
	s.Mod(s, c.N)
	if s.Sign() == 0 {
		return Signature{}, errZeroParam
	}
	// Low-S normalisation: if s > n/2, use n − s. Removes signature
	// malleability, matching modern deployments.
	halfN := new(big.Int).Rsh(c.N, 1)
	if s.Cmp(halfN) > 0 {
		s.Sub(c.N, s)
	}
	return Signature{R: r, S: s}, nil
}

// Verify checks sig over the SHA-256 digest of msg.
func (p *PublicKey) Verify(msg []byte, sig Signature) bool {
	digest := sha256.Sum256(msg)
	return p.VerifyDigest(digest[:], sig)
}

// VerifyDigest checks sig over a precomputed digest. It rejects a nil
// or out-of-range r or s and a Q that is the identity or off the
// curve, then runs the curve's engine: crypto/ecdsa on P-256,
// CombinedMult elsewhere. Both truncate the digest as FIPS 186 does
// (HashToInt).
func (p *PublicKey) VerifyDigest(digest []byte, sig Signature) bool {
	if !p.accepts(sig) {
		return false
	}
	if std := p.Curve.StdlibCurve(); std != nil {
		return stdecdsa.Verify(&stdecdsa.PublicKey{Curve: std, X: p.Q.X, Y: p.Q.Y}, digest, sig.R, sig.S)
	}
	return p.verifyCombined(digest, sig)
}

// accepts runs VerifyDigest's checks on its inputs.
func (p *PublicKey) accepts(sig Signature) bool {
	c := p.Curve
	if sig.R == nil || sig.S == nil {
		return false
	}
	if sig.R.Sign() <= 0 || sig.R.Cmp(c.N) >= 0 ||
		sig.S.Sign() <= 0 || sig.S.Cmp(c.N) >= 0 {
		return false
	}
	return !p.Q.IsInfinity() && c.IsOnCurve(p.Q)
}

// verifyCombined is the in-repo engine: R' = u1·G + u2·Q through
// CombinedMult, on the precomputed table when attached. Its inputs
// have passed accepts.
func (p *PublicKey) verifyCombined(digest []byte, sig Signature) bool {
	c := p.Curve
	e := c.HashToInt(digest)
	w := new(big.Int).ModInverse(sig.S, c.N)
	if w == nil {
		return false
	}
	u1 := new(big.Int).Mul(e, w)
	u1.Mod(u1, c.N)
	u2 := new(big.Int).Mul(sig.R, w)
	u2.Mod(u2, c.N)

	var rp ec.Point
	if p.table != nil {
		rp = p.table.CombinedMult(u1, u2)
	} else {
		rp = c.CombinedMult(p.Q, u1, u2)
	}
	if rp.IsInfinity() {
		return false
	}
	v := new(big.Int).Mod(rp.X, c.N)
	return v.Cmp(sig.R) == 0
}

// Raw signature encoding: fixed-width big-endian r ‖ s, 2·ByteLen
// bytes (64 B on P-256). This is the "Sign(64)" / "Resp(64)" payload
// size accounted by Table II of the paper.

// RawSize returns the encoded signature size for curve c.
func RawSize(c *ec.Curve) int { return 2 * c.ByteLen() }

// EncodeRaw serializes sig as fixed-width r ‖ s.
func (s Signature) EncodeRaw(c *ec.Curve) []byte {
	out := make([]byte, 2*c.ByteLen())
	s.R.FillBytes(out[:c.ByteLen()])
	s.S.FillBytes(out[c.ByteLen():])
	return out
}

// DecodeRaw parses a fixed-width r ‖ s signature.
func DecodeRaw(c *ec.Curve, data []byte) (Signature, error) {
	if len(data) != 2*c.ByteLen() {
		return Signature{}, fmt.Errorf("ecdsa: raw signature length %d, want %d",
			len(data), 2*c.ByteLen())
	}
	r := new(big.Int).SetBytes(data[:c.ByteLen()])
	s := new(big.Int).SetBytes(data[c.ByteLen():])
	if r.Sign() <= 0 || r.Cmp(c.N) >= 0 || s.Sign() <= 0 || s.Cmp(c.N) >= 0 {
		return Signature{}, errors.New("ecdsa: raw signature component out of range")
	}
	return Signature{R: r, S: s}, nil
}

// rfc6979 produces the deterministic nonce stream of RFC 6979 §3.2
// with HMAC-SHA-256. mac is keyed with the current K and rekeyed only
// when K changes; between uses it is Reset.
type rfc6979 struct {
	c     *ec.Curve
	mac   hash.Hash // HMAC_K
	used  bool      // mac has absorbed input since it was keyed
	k, v  [sha256.Size]byte
	sep   [1]byte
	drawn bool // a candidate was returned; the next one needs the retry update
}

// begin readies mac for a new input. A freshly keyed HMAC needs no
// Reset, and skipping it saves hmac's one-off state snapshot on a key
// used only once.
func (g *rfc6979) begin() {
	if g.used {
		g.mac.Reset()
	}
	g.used = true
}

func newRFC6979(c *ec.Curve, priv *big.Int, digest []byte) *rfc6979 {
	g := &rfc6979{c: c}
	for i := range g.v {
		g.v[i] = 0x01
	}
	g.mac = hmac.New(sha256.New, g.k[:]) // K = 0x00…

	x := c.ScalarToBytes(priv)
	h1 := c.ScalarToBytes(c.HashToInt(digest)) // bits2octets(H(m))
	g.update(0x00, x, h1)
	g.update(0x01, x, h1)
	return g
}

// update runs K = HMAC_K(V ‖ sep ‖ extra…); V = HMAC_K(V), keying the
// HMAC once with the new K.
func (g *rfc6979) update(sep byte, extra ...[]byte) {
	g.sep[0] = sep
	g.begin()
	g.mac.Write(g.v[:])
	g.mac.Write(g.sep[:])
	for _, p := range extra {
		g.mac.Write(p)
	}
	g.mac.Sum(g.k[:0])
	g.mac, g.used = hmac.New(sha256.New, g.k[:]), false
	g.stepV()
}

// stepV runs V = HMAC_K(V).
func (g *rfc6979) stepV() {
	g.begin()
	g.mac.Write(g.v[:])
	g.mac.Sum(g.v[:0])
}

// blindLabel separates the blinding factor's HMAC input from every
// input the nonce generator feeds HMAC_K (V, and V ‖ one byte).
var blindLabel = []byte("ecdsa nonce-inversion blind")

// blind derives the nonce-inversion blinding factor
// b = HMAC_K(V ‖ blindLabel) mod (n−1) + 1 ∈ [1, n−1] from the state
// that the private scalar and the digest seeded, without advancing
// the generator: the nonce stream stays RFC 6979's.
func (g *rfc6979) blind() *big.Int {
	var sum [sha256.Size]byte
	g.begin()
	g.mac.Write(g.v[:])
	g.mac.Write(blindLabel)
	b := new(big.Int).SetBytes(g.mac.Sum(sum[:0]))
	nm1 := new(big.Int).Sub(g.c.N, big.NewInt(1))
	b.Mod(b, nm1)
	return b.Add(b, big.NewInt(1))
}

// next returns the next candidate nonce in [0, 2^qlen); the caller
// rejects values outside [1, n−1]. The retry update of the generator
// runs only when a candidate was rejected, i.e. before every candidate
// but the first, since the first is almost always accepted.
func (g *rfc6979) next() *big.Int {
	if g.drawn {
		// Per RFC 6979: K = HMAC_K(V ‖ 0x00); V = HMAC_K(V) before the
		// next candidate.
		g.update(0x00)
	}
	g.drawn = true
	n := g.c.ByteLen()
	t := make([]byte, 0, n+sha256.Size)
	for len(t) < n {
		g.stepV()
		t = append(t, g.v[:]...)
	}
	t = t[:n]
	k := new(big.Int).SetBytes(t)
	if excess := len(t)*8 - g.c.N.BitLen(); excess > 0 {
		k.Rsh(k, uint(excess))
	}
	return k
}
