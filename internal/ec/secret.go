package ec

import (
	"crypto/ecdh"
	"errors"
)

// Secret-scalar multiplication. Every multiplication whose scalar is
// secret goes through SecretKey or SecretBaseMult, never through
// ScalarMult or ScalarBaseMult, whose wNAF recoding and comb lookups
// branch and index on scalar bits. The secret scalars are ephemeral
// keys, DH premasters, ECDSA nonces, ECQV request and issuance nonces,
// and long-term private keys. The engine is chosen once per curve, by
// secretMultFor:
//
//   - P-256 runs on crypto/ecdh, the standard library's constant-time
//     implementation.
//   - P-224 and P-192 run a constant-time 4-bit fixed-window ladder on
//     fp (secret_ladder.go).
//
// Scalars cross this boundary as fixed-width ByteLen big-endian
// bytes, so math/big never touches them here. Public-scalar paths keep
// the faster variable-time code: ECQV extraction, MultTable, and ECDSA
// verification on P-224 and P-192. P-256 verifies on crypto/ecdsa, in
// internal/ecdsa, and runs decompression and ECQV extraction's
// ScalarMult, Add and IsOnCurve on crypto/elliptic.

// ErrSecretScalar is returned for a secret scalar that is not ByteLen
// bytes wide or lies outside [1, n−1].
var ErrSecretScalar = errors.New("ec: secret scalar out of range [1, n-1]")

// ErrDHPeer is returned when a DH peer point is the identity or is not
// on the curve.
var ErrDHPeer = errors.New("ec: DH peer point invalid")

// ErrDHIdentity is returned when a DH shared point is the identity.
var ErrDHIdentity = errors.New("ec: DH shared point is the identity")

// secretMult is a curve's constant-time engine for secret scalars.
// Scalars arrive as ByteLen bytes, already range-checked.
type secretMult interface {
	// baseMult returns k·G.
	baseMult(k []byte) (Point, error)
	// newKey prepares k for repeated use and returns the handle with
	// k·G.
	newKey(k []byte) (secretKey, Point, error)
}

// secretKey is an engine's handle on one secret scalar k.
type secretKey interface {
	// ecdh returns the x-coordinate of k·q as ByteLen bytes, or
	// ErrDHPeer when q, whose coordinates lie in [0, p), is not on the
	// curve.
	ecdh(q Point) ([]byte, error)
}

// secretMultFor chooses the constant-time engine of a curve. The
// ladder's complete formulas need a = −3, which holds for every
// bundled curve.
func secretMultFor(c *Curve) secretMult {
	if c.Name == "secp256r1" {
		return stdlibMult{c: c, curve: ecdh.P256()}
	}
	return ladderMult{c: c}
}

// SecretKey is a secret scalar k held for constant-time use, together
// with its public point k·G. Building one costs a base-point
// multiplication, so build one per key and reuse it: a long-term key
// gets its SecretKey once, an ephemeral key when it is drawn. A
// SecretKey is immutable and safe for concurrent use.
type SecretKey struct {
	curve *Curve
	pub   Point
	key   secretKey
}

// NewSecretKey prepares the secret scalar k, given as ByteLen
// big-endian bytes in [1, n−1], and computes k·G in constant time. The
// bytes are copied where the engine keeps them.
func (c *Curve) NewSecretKey(k []byte) (*SecretKey, error) {
	if len(k) != c.byteLen || !scalarInRange(k, c.nBytes) {
		return nil, ErrSecretScalar
	}
	key, pub, err := c.secret.newKey(k)
	if err != nil {
		return nil, err
	}
	return &SecretKey{curve: c, pub: pub, key: key}, nil
}

// SecretBaseMult returns k·G for a secret scalar k given as ByteLen
// big-endian bytes in [1, n−1]: the constant-time counterpart of
// ScalarBaseMult, for one-shot scalars such as nonces.
func (c *Curve) SecretBaseMult(k []byte) (Point, error) {
	if len(k) != c.byteLen || !scalarInRange(k, c.nBytes) {
		return Point{}, ErrSecretScalar
	}
	return c.secret.baseMult(k)
}

// Public returns k·G. The point shares storage with the key: do not
// modify it.
func (k *SecretKey) Public() Point { return k.pub }

// ECDH returns the x-coordinate of k·q as ByteLen big-endian bytes:
// the Diffie–Hellman premaster. q must be a finite point on the curve.
// An invalid q is ErrDHPeer and an identity result ErrDHIdentity;
// neither panics.
func (k *SecretKey) ECDH(q Point) ([]byte, error) {
	if q.IsInfinity() || !k.curve.inField(q.X) || !k.curve.inField(q.Y) {
		return nil, ErrDHPeer
	}
	return k.key.ecdh(q)
}

// scalarInRange reports whether the big-endian k lies in [1, n−1],
// where n has k's width. It runs one borrow chain over every byte.
func scalarInRange(k, n []byte) bool {
	var borrow, nonzero uint32
	for i := len(k) - 1; i >= 0; i-- {
		d := uint32(k[i]) - uint32(n[i]) - borrow
		borrow = d >> 31
		nonzero |= uint32(k[i])
	}
	return borrow == 1 && nonzero != 0
}

// stdlibMult is the P-256 engine: crypto/ecdh.
type stdlibMult struct {
	c     *Curve
	curve ecdh.Curve
}

func (m stdlibMult) baseMult(k []byte) (Point, error) {
	_, pub, err := m.newKey(k)
	return pub, err
}

func (m stdlibMult) newKey(k []byte) (secretKey, Point, error) {
	priv, err := m.curve.NewPrivateKey(k)
	if err != nil {
		return nil, Point{}, err
	}
	pub := priv.PublicKey().Bytes() // 0x04 ‖ X ‖ Y
	return stdlibKey{m: m, priv: priv}, pointFromRaw(pub[1:]), nil
}

// stdlibKey is a crypto/ecdh private key.
type stdlibKey struct {
	m    stdlibMult
	priv *ecdh.PrivateKey
}

func (k stdlibKey) ecdh(q Point) ([]byte, error) {
	pub, err := k.m.curve.NewPublicKey(k.m.c.EncodeUncompressed(q)) // checks the curve equation
	if err != nil {
		return nil, ErrDHPeer
	}
	x, err := k.priv.ECDH(pub)
	if err != nil {
		return nil, ErrDHIdentity
	}
	return x, nil
}
