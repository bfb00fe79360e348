package ec

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// RandomScalar draws a uniform scalar from [1, n−1] using rejection
// sampling. A nil reader selects crypto/rand.Reader; tests inject
// deterministic readers.
func (c *Curve) RandomScalar(rng io.Reader) (*big.Int, error) {
	k, err := c.RandomScalarBytes(rng)
	if err != nil {
		return nil, err
	}
	return new(big.Int).SetBytes(k), nil
}

// RandomScalarBytes is RandomScalar returning the scalar as ByteLen
// big-endian bytes, the form NewSecretKey takes. It consumes the same
// reader bytes as RandomScalar.
func (c *Curve) RandomScalarBytes(rng io.Reader) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	buf := make([]byte, c.byteLen)
	// Rejection sampling keeps the distribution exactly uniform; the
	// expected iteration count is < 2 for all bundled curves.
	for i := 0; i < 256; i++ {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, fmt.Errorf("ec: scalar randomness: %w", err)
		}
		// Mask excess top bits for non-byte-aligned orders.
		excess := 8*c.byteLen - c.N.BitLen()
		if excess > 0 {
			buf[0] &= 0xff >> excess
		}
		if scalarInRange(buf, c.nBytes) {
			return buf, nil
		}
	}
	return nil, errors.New("ec: random scalar rejection sampling did not terminate")
}

// GenerateKeyPair draws a private scalar d and returns (d, d·G), the
// public point computed on the constant-time secret path.
func (c *Curve) GenerateKeyPair(rng io.Reader) (*big.Int, Point, error) {
	k, err := c.RandomScalarBytes(rng)
	if err != nil {
		return nil, Point{}, err
	}
	q, err := c.SecretBaseMult(k)
	if err != nil {
		return nil, Point{}, err
	}
	return new(big.Int).SetBytes(k), q, nil
}

// HashToInt converts a hash digest to an integer reduced into [0, n),
// per SEC 1 §4.1.3 / FIPS 186: take the leftmost bits of the digest up
// to the bit length of n, then reduce mod n. Used by both ECDSA and the
// ECQV certificate hash.
func (c *Curve) HashToInt(digest []byte) *big.Int {
	orderBits := c.N.BitLen()
	orderBytes := (orderBits + 7) / 8
	if len(digest) > orderBytes {
		digest = digest[:orderBytes]
	}
	v := new(big.Int).SetBytes(digest)
	if excess := len(digest)*8 - orderBits; excess > 0 {
		v.Rsh(v, uint(excess))
	}
	return v.Mod(v, c.N)
}

// ScalarToBytes serializes k as a fixed-width big-endian integer of the
// curve's byte length.
func (c *Curve) ScalarToBytes(k *big.Int) []byte {
	out := make([]byte, c.byteLen)
	new(big.Int).Mod(k, c.N).FillBytes(out)
	return out
}

// ScalarFromBytes parses a fixed-width scalar, rejecting values outside
// [1, n−1].
func (c *Curve) ScalarFromBytes(data []byte) (*big.Int, error) {
	if len(data) != c.byteLen {
		return nil, fmt.Errorf("ec: scalar length %d, want %d", len(data), c.byteLen)
	}
	k := new(big.Int).SetBytes(data)
	if !c.checkScalarRange(k) {
		return nil, errors.New("ec: scalar out of range [1, n-1]")
	}
	return k, nil
}
