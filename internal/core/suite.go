package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/big"

	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
	"repro/internal/kdf"
)

// suite executes real cryptographic operations for one party while
// recording primitive events into the run trace. Every protocol
// implementation goes through the suite, so the trace is a faithful
// operation-level account of what the device computed — the input the
// hardware timing model replays.
type suite struct {
	curve *ec.Curve
	m     *meter
	rng   io.Reader
	// cache, when non-nil, memoizes peer key extraction and
	// verification tables across this party's handshakes. The trace is
	// unaffected: the meter records the primitives the modelled device
	// would execute, cache hit or not.
	cache *KeyCache
	// resp is the keyed Resp encryption of the last session keys
	// used, built on first use (see respKeys).
	resp *respCipher
}

func newSuite(curve *ec.Curve, m *meter, rng io.Reader, cache *KeyCache) *suite {
	if rng == nil {
		rng = rand.Reader
	}
	return &suite{curve: curve, m: m, rng: rng, cache: cache}
}

// enter switches the suite's trace phase.
func (s *suite) enter(p Phase) { s.m.enter(p) }

// ephemeral draws X ∈R [1, n−1] and computes XG = X·G — the request
// operation of equation (2). X stays inside the returned handle, which
// dh takes: building the handle already paid the base mult, so it is
// never rebuilt per use.
func (s *suite) ephemeral() (*ec.SecretKey, ec.Point, error) {
	s.m.record(PrimRandScalar, 1)
	k, err := s.curve.RandomScalarBytes(s.rng)
	if err != nil {
		return nil, ec.Point{}, err
	}
	s.m.record(PrimECBaseMult, 1)
	x, err := s.curve.NewSecretKey(k)
	if err != nil {
		return nil, ec.Point{}, err
	}
	return x, x.Public(), nil
}

// nonce draws n random bytes.
func (s *suite) nonce(n int) ([]byte, error) {
	s.m.record(PrimRandBytes, n)
	out := make([]byte, n)
	if _, err := io.ReadFull(s.rng, out); err != nil {
		return nil, fmt.Errorf("core: nonce: %w", err)
	}
	return out, nil
}

// extractPublicKey performs the paper's equation (1):
// Q_X = Hash(Cert_X)·Decode(Cert_X) + Q_CA.
func (s *suite) extractPublicKey(cert *ecqv.Certificate, caPub ec.Point) (ec.Point, error) {
	s.recordExtraction()
	if s.cache != nil {
		return s.cache.ExtractPublicKey(cert, caPub)
	}
	return ecqv.ExtractPublicKey(cert, caPub)
}

// recordExtraction records the device work of equation (1), whether
// or not the host-side cache serves it.
func (s *suite) recordExtraction() {
	s.m.record(PrimHashBytes, ecqv.EncodedSize(s.curve))
	s.m.record(PrimECPointDecode, 1) // Decode(Cert): decompress P_U
	s.m.record(PrimECPointMult, 1)
	s.m.record(PrimECPointAdd, 1)
}

// extractEncoded is extractPublicKey for a certificate as received on
// the wire, under the relying-party policy for subject (see
// KeyCache.ExtractEncoded). A cache hit on the exact bytes skips
// ecqv.Decode and re-checks only the policy's header bytes; a hit
// whose header fails the policy takes the decoding path, which
// reports the same error it always did. Trace events and cache
// counters are those of decode-then-extract.
func (s *suite) extractEncoded(certBytes []byte, subject ecqv.ID, caPub ec.Point) (q ec.Point, warm bool, err error) {
	if s.cache == nil {
		cert, err := decodePeerCertificate(certBytes, subject)
		if err != nil {
			return ec.Point{}, false, err
		}
		q, err := s.extractPublicKey(cert, caPub)
		return q, false, err
	}
	key := certKey(certBytes, s.curve, caPub)
	if q, ok := s.cache.lookup(key); ok {
		if id, usage, ok := ecqv.PeekHeader(certBytes); ok && checkPolicy(id, usage, subject) == nil {
			s.cache.hits.Add(1)
			s.recordExtraction()
			return q, true, nil
		}
	}
	cert, err := decodePeerCertificate(certBytes, subject)
	if err != nil {
		return ec.Point{}, false, err
	}
	s.recordExtraction()
	q, err = s.cache.extract(key, cert, caPub)
	return q, false, err
}

// dh computes a Diffie–Hellman shared point k·Q and returns its
// x-coordinate as the premaster secret (equation (3)).
func (s *suite) dh(k *ec.SecretKey, q ec.Point) ([]byte, error) {
	s.m.record(PrimECPointMult, 1)
	out, err := k.ECDH(q)
	if err != nil {
		return nil, errors.New("core: degenerate DH shared point")
	}
	return out, nil
}

// staticDH is dh under the party's long-term key, whose handle the
// party builds once.
func (s *suite) staticDH(self *Party, q ec.Point) ([]byte, error) {
	k, err := self.secretKey()
	if err != nil {
		return nil, err
	}
	return s.dh(k, q)
}

// cachedCombinedDH computes the SCIANC-style single-multiplication
// premaster: (k·e)·P + [cached k·Q_CA], where the k·Q_CA term is
// precomputed once per certificate epoch and therefore not charged to
// the session. This is why SCIANC's measured per-session cost in
// Table I is roughly one point multiplication per device.
//
// The meter records that device computation. The host evaluates the
// same point as k·Q_peer, since (k·e)·P + k·Q_CA = k·(e·P + Q_CA): a
// public extraction (cached per peer when the party has a KeyCache)
// and one constant-time DH, so no secret scalar meets the
// variable-time code and no per-epoch term needs holding.
func (s *suite) cachedCombinedDH(k *ec.SecretKey, cert *ecqv.Certificate, caPub ec.Point) ([]byte, error) {
	s.m.record(PrimHashBytes, ecqv.EncodedSize(s.curve))
	s.m.record(PrimECPointDecode, 1)
	s.m.record(PrimECPointMult, 1)
	s.m.record(PrimECPointAdd, 1)
	var q ec.Point
	var err error
	if s.cache != nil {
		q, err = s.cache.ExtractPublicKey(cert, caPub)
	} else {
		q, err = ecqv.ExtractPublicKey(cert, caPub)
	}
	if err != nil {
		return nil, err
	}
	out, err := k.ECDH(q)
	if err != nil {
		return nil, errors.New("core: degenerate combined DH point")
	}
	return out, nil
}

// deriveSessionKeys runs KS = KDF(KPM, salt) (equation (4)), returning
// the encryption and MAC halves.
func (s *suite) deriveSessionKeys(premaster, salt []byte) (encKey, macKey []byte, err error) {
	s.m.record(PrimKDF, 1)
	return kdf.SessionKeys(premaster, salt)
}

// sign produces the ECDSA authentication signature of Algorithm 1 line
// 2/4: dsign = sign(Prk, msg).
//
// It signs with the scalar alone: the public point, which signing never
// reads, is not derived.
func (s *suite) sign(priv *big.Int, msg []byte) (ecdsa.Signature, error) {
	sig, err := ecdsa.SignScalar(s.curve, priv, msg)
	if err != nil {
		return sig, err
	}
	s.m.record(PrimHashBytes, len(msg))
	s.m.record(PrimMACBytes, 4*sha256.Size) // RFC 6979 nonce derivation
	s.m.record(PrimECBaseMult, 1)
	s.m.record(PrimModInverse, 1)
	return sig, nil
}

// verify checks an ECDSA signature under a reconstructed public key
// (Algorithm 2 line 3), with the cached verification key when a cache
// is attached. The meter records the primitives the modelled device
// executes, whichever engine the host verifies on.
func (s *suite) verify(q ec.Point, msg []byte, sig ecdsa.Signature) bool {
	s.m.record(PrimHashBytes, len(msg))
	s.m.record(PrimModInverse, 1)
	s.m.record(PrimECCombinedMult, 1)
	if s.cache != nil {
		return s.cache.Verifier(s.curve, q).Verify(msg, sig)
	}
	return (&ecdsa.PublicKey{Curve: s.curve, Q: q}).Verify(msg, sig)
}

// mac computes HMAC-SHA-256 over msg.
func (s *suite) mac(key []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, key)
	n := 0
	for _, p := range parts {
		m.Write(p)
		n += len(p)
	}
	s.m.record(PrimMACBytes, n)
	return m.Sum(nil)
}

// macVerify recomputes and compares a tag.
func (s *suite) macVerify(key, tag []byte, parts ...[]byte) bool {
	want := s.mac(key, parts...)
	return hmac.Equal(want, tag)
}

// hash computes SHA-256.
func (s *suite) hash(parts ...[]byte) []byte {
	h := sha256.New()
	n := 0
	for _, p := range parts {
		h.Write(p)
		n += len(p)
	}
	s.m.record(PrimHashBytes, n)
	return h.Sum(nil)
}

// ctrEncrypt implements the size-preserving Resp = encrypt(KS, dsign)
// of Algorithm 1 line 6, and its own inverse (Algorithm 2 line 1: CTR
// is an involution); finish messages use it too. AES-128-CTR under
// encKey from the IV HMAC-SHA-256(macKey, "resp-iv|" ‖ label)[:16]
// keeps |Resp| = |dsign| = 64 bytes — exactly the "Resp(64)" that
// Table II charges. Integrity of the payload is provided by the
// signature inside, not by a tag. The IV is bound to the session (via
// the MAC key, which is fresh per session for DKD protocols) and to
// the label (the direction), so the two Resp messages of a session
// never share keystream.
func (s *suite) ctrEncrypt(encKey, macKey []byte, label string, data []byte) ([]byte, error) {
	s.m.record(PrimAESBytes, len(data))
	r, err := s.respKeys(encKey, macKey)
	if err != nil {
		return nil, err
	}
	r.label = append(append(r.label[:0], "resp-iv|"...), label...)
	if r.ivUsed {
		r.ivMAC.Reset()
	}
	r.ivUsed = true
	r.ivMAC.Write(r.label)
	copy(r.ctr[:], r.ivMAC.Sum(r.sum[:0]))
	out := make([]byte, len(data))
	xorCTR(r.block, &r.ctr, &r.ks, out, data)
	return out, nil
}

// respCipher is one session's keyed ctrEncrypt: the AES-128 block
// under the encryption key, the HMAC under the MAC key that derives
// each label's IV, and their scratch. A handshake engine derives one
// key pair, so it builds one respCipher and serves both Resp
// directions from it.
type respCipher struct {
	keys  []byte // encKey ‖ macKey it was built under
	nEnc  int    // len(encKey)
	block cipher.Block
	ivMAC hash.Hash
	// ivUsed is set once ivMAC has absorbed input: a fresh HMAC
	// needs no Reset, and skipping it skips hmac's one-off state
	// snapshot.
	ivUsed bool
	label  []byte              // "resp-iv|" ‖ label
	ctr    [aes.BlockSize]byte // CTR counter block
	ks     [aes.BlockSize]byte // one keystream block
	sum    [sha256.Size]byte   // untruncated IV
}

// respKeys returns the suite's respCipher for (encKey, macKey),
// building it when the keys differ from the last ones seen.
func (s *suite) respKeys(encKey, macKey []byte) (*respCipher, error) {
	if r := s.resp; r != nil && bytes.Equal(r.keys[:r.nEnc], encKey) && bytes.Equal(r.keys[r.nEnc:], macKey) {
		return r, nil
	}
	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	s.resp = &respCipher{
		keys:  append(append(make([]byte, 0, len(encKey)+len(macKey)), encKey...), macKey...),
		nEnc:  len(encKey),
		block: block,
		ivMAC: hmac.New(sha256.New, macKey),
	}
	return s.resp, nil
}

// xorCTR XORs src with the CTR keystream of block from counter block
// ctr into dst, incrementing ctr as one 128-bit big-endian counter:
// the keystream of cipher.NewCTR(block, ctr). ks is keystream scratch.
func xorCTR(block cipher.Block, ctr, ks *[aes.BlockSize]byte, dst, src []byte) {
	for len(src) > 0 {
		block.Encrypt(ks[:], ctr[:])
		n := subtle.XORBytes(dst, src, ks[:])
		dst, src = dst[n:], src[n:]
		for i := len(ctr) - 1; i >= 0; i-- {
			ctr[i]++
			if ctr[i] != 0 {
				break
			}
		}
	}
}
