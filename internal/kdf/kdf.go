// Package kdf implements the key-derivation functions used by the
// session-establishment protocols: HKDF (RFC 5869) and the NIST
// SP 800-108 counter-mode KDF, both over HMAC-SHA-256.
//
// The paper derives session keys as KS = KDF(KPM, salt) (equation (4));
// HKDF extract-then-expand is the concrete instantiation used by the
// STS engine, with the premaster x-coordinate as input keying material
// and the concatenated ephemeral points as salt.
package kdf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
)

// hmacSHA256 computes HMAC-SHA-256 over the concatenation of parts.
func hmacSHA256(key []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, key)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

// Extract implements HKDF-Extract: PRK = HMAC(salt, IKM). A nil or
// empty salt is replaced by a zero-filled hash-length string per
// RFC 5869 §2.2.
func Extract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	return hmacSHA256(salt, ikm)
}

// maxExpand is the RFC 5869 output bound: 255 · HashLen.
const maxExpand = 255 * sha256.Size

// Expand implements HKDF-Expand, producing length bytes of output
// keying material from a pseudorandom key and context info. One HMAC
// keyed with prk serves every output block.
func Expand(prk, info []byte, length int) ([]byte, error) {
	if length <= 0 {
		return nil, errors.New("kdf: non-positive output length")
	}
	if length > maxExpand {
		return nil, errors.New("kdf: output length exceeds 255*HashLen")
	}
	var (
		m   = hmac.New(sha256.New, prk)
		out = make([]byte, 0, length+sha256.Size)
		t   []byte
		ctr = make([]byte, 1)
	)
	for len(out) < length {
		if ctr[0]++; ctr[0] > 1 {
			m.Reset()
		}
		m.Write(t)
		m.Write(info)
		m.Write(ctr)
		out = m.Sum(out)
		t = out[len(out)-sha256.Size:]
	}
	return out[:length:length], nil
}

// HKDF runs extract-then-expand in one call.
func HKDF(ikm, salt, info []byte, length int) ([]byte, error) {
	return Expand(Extract(salt, ikm), info, length)
}

// CounterKDF implements the NIST SP 800-108 counter-mode KDF:
// K(i) = HMAC(key, [i]₃₂ ‖ label ‖ 0x00 ‖ context ‖ [L]₃₂). It is
// provided as the alternative KDF family used by several of the
// compared protocols (bear-ssl style) and by the CMAC-keyed schemes.
func CounterKDF(key, label, context []byte, length int) ([]byte, error) {
	if length <= 0 {
		return nil, errors.New("kdf: non-positive output length")
	}
	var (
		out     = make([]byte, 0, length)
		lBits   = uint32(length * 8)
		lBuf    [4]byte
		ctrBuf  [4]byte
		counter uint32
	)
	binary.BigEndian.PutUint32(lBuf[:], lBits)
	for len(out) < length {
		counter++
		binary.BigEndian.PutUint32(ctrBuf[:], counter)
		block := hmacSHA256(key, ctrBuf[:], label, []byte{0x00}, context, lBuf[:])
		out = append(out, block...)
	}
	return out[:length], nil
}

// SessionKeySize is the AES-128 session-key size used throughout the
// paper's evaluation (128-bit AES/CMAC level, §V-A).
const SessionKeySize = 16

// MACKeySize is the 256-bit HMAC key size of §V-A.
const MACKeySize = 32

// SessionKeys derives the encryption and MAC keys for one
// communication session from a premaster secret: the concrete
// KS = KDF(KPM, salt) of equation (4), split into an AES-128 key and a
// 256-bit MAC key.
func SessionKeys(premaster, salt []byte) (encKey, macKey []byte, err error) {
	okm, err := HKDF(premaster, salt, []byte("ecqv-sts session keys"), SessionKeySize+MACKeySize)
	if err != nil {
		return nil, nil, err
	}
	return okm[:SessionKeySize], okm[SessionKeySize:], nil
}
