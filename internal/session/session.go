// Package session implements the secure communication session that
// follows key derivation — the "Encrypted Session" stage of the
// paper's Figure 1 — as a record layer over an established session
// key:
//
//   - authenticated encryption of application records (AES-128-CTR +
//     HMAC-SHA-256 encrypt-then-MAC, the §V-A primitive stack), keyed
//     once per channel on its first record and reused for every record
//     after it;
//   - per-direction sequence numbers with strict replay rejection;
//   - a rekey policy that bounds how long one session key may live,
//     operationalizing the paper's core motivation: "implementation-
//     wise, either due to the limitations in the system's architecture,
//     constrained nature of the devices, or neglect from the
//     developers, [static keys] can lead to longer than the intended
//     use of the same session key" (§I).
//
// A Channel deliberately does not renew keys itself: when the policy
// trips it refuses further traffic with ErrRekeyRequired, forcing the
// caller back through a fresh KD run (a new STS handshake). That keeps
// the separation the paper draws between the communication session
// (this package) and the key-derivation protocol (internal/core).
package session

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"time"

	"repro/internal/kdf"
)

// Direction labels the two record flows of a session.
type Direction byte

const (
	// DirAtoB — initiator to responder.
	DirAtoB Direction = 0x01
	// DirBtoA — responder to initiator.
	DirBtoA Direction = 0x02
)

func (d Direction) other() Direction {
	if d == DirAtoB {
		return DirBtoA
	}
	return DirAtoB
}

// Policy bounds the lifetime of one session key.
type Policy struct {
	// MaxRecords is the maximum number of records either direction may
	// protect under one key (0 = unlimited).
	MaxRecords uint64
	// MaxAge is the maximum wall-clock key lifetime (0 = unlimited).
	MaxAge time.Duration
	// ReorderWindow selects the anti-replay strategy. 0 demands strict
	// in-order delivery (appropriate on CAN, a reliable ordered bus).
	// A positive value accepts records up to that many sequence
	// numbers behind the highest seen, each at most once — the
	// DTLS-style sliding window for lossy IoT links (§III's wireless
	// sensor setting). Maximum 64.
	ReorderWindow uint
}

// DefaultPolicy allows 2^20 records and a 24-hour key lifetime —
// conservative bounds for an in-vehicle communication session.
var DefaultPolicy = Policy{MaxRecords: 1 << 20, MaxAge: 24 * time.Hour}

// Errors of the record layer.
var (
	// ErrRekeyRequired is returned once the policy expires; establish a
	// new session (fresh KD run) to continue.
	ErrRekeyRequired = errors.New("session: key lifetime exhausted, rekey required")
	// ErrReplay is returned for records at or below the received
	// high-water mark.
	ErrReplay = errors.New("session: record replayed or reordered")
	// ErrAuth is returned when record authentication fails.
	ErrAuth = errors.New("session: record authentication failed")
	// ErrMalformed is returned for records too short to parse.
	ErrMalformed = errors.New("session: malformed record")
)

// recordHeader is seq(8) ‖ direction(1).
const recordHeader = 9

// tagSize is the truncated HMAC-SHA-256 record tag.
const tagSize = 16

// Overhead is the record expansion in bytes.
const Overhead = recordHeader + tagSize

// recordLabel prefixes every tagged record body.
var recordLabel = []byte("session-record")

// maxPayload bounds one record's plaintext: the 32-bit block counter
// of the CTR counter block must not wrap.
const maxPayload = uint64(1<<32) * aes.BlockSize

// Channel is one endpoint's view of an established communication
// session. A Channel is used by one goroutine at a time (fleet's
// per-peer lock provides that); it holds per-record scratch state.
type Channel struct {
	dir     Direction                                 // the direction this endpoint sends in
	key     [kdf.SessionKeySize + kdf.MACKeySize]byte // enc ‖ mac
	policy  Policy
	started time.Time
	now     func() time.Time

	// Built on the first Seal or Open (see keyed), so that a session
	// which never carries a record pays nothing for it, then reused
	// for every record.
	rk *recordKeys

	sendSeq uint64
	recvSeq uint64 // high-water mark of accepted records (strict mode)

	// Sliding-window state (ReorderWindow > 0): highest accepted
	// sequence number and a bitmask of the window behind it.
	winHigh   uint64
	winMask   uint64
	winPrimed bool
}

// NewPair derives both endpoints of a session from a KD key block
// (enc ‖ mac, as produced by the protocols in internal/core). Each
// channel keeps its own copy of the block; the AES-128 cipher and the
// keyed HMAC-SHA-256 are built on the channel's first Seal or Open,
// not here. The policy applies to both directions.
func NewPair(keyBlock []byte, policy Policy) (*Channel, *Channel, error) {
	if len(keyBlock) != kdf.SessionKeySize+kdf.MACKeySize {
		return nil, nil, fmt.Errorf("session: key block size %d, want %d",
			len(keyBlock), kdf.SessionKeySize+kdf.MACKeySize)
	}
	mk := func(dir Direction) *Channel {
		c := &Channel{
			dir:     dir,
			policy:  policy,
			started: time.Now(),
			now:     time.Now,
		}
		copy(c.key[:], keyBlock)
		return c
	}
	return mk(DirAtoB), mk(DirBtoA), nil
}

// SetClock injects a time source for tests.
func (c *Channel) SetClock(now func() time.Time) {
	c.now = now
	c.started = now()
}

// RecordsSent returns the number of records protected so far.
func (c *Channel) RecordsSent() uint64 { return c.sendSeq }

// expired checks the policy.
func (c *Channel) expired() bool {
	if c.policy.MaxRecords > 0 && (c.sendSeq >= c.policy.MaxRecords || c.recvSeq >= c.policy.MaxRecords) {
		return true
	}
	if c.policy.MaxAge > 0 && c.now().Sub(c.started) > c.policy.MaxAge {
		return true
	}
	return false
}

// NeedsRekey reports whether the policy has expired.
func (c *Channel) NeedsRekey() bool { return c.expired() }

// Seal protects one application record:
//
//	seq(8) ‖ dir(1) ‖ AES-128-CTR(encKey, ctr, plaintext) ‖ tag(16)
//	ctr = seq(8) ‖ dir(1) ‖ 0(3) ‖ blockctr(4), blockctr from 0
//	tag = HMAC-SHA-256(macKey, "session-record" ‖ seq ‖ dir ‖ ciphertext)[:16]
//
// The sequence number and direction are bound into both the counter
// block and the tag, so records cannot be reordered, truncated,
// reflected or replayed, and the two directions never share a
// keystream. A payload holds at most 2^32 AES blocks (64 GiB), so
// blockctr never wraps. The first Seal or Open keys the channel.
func (c *Channel) Seal(plaintext []byte) ([]byte, error) {
	if c.expired() {
		return nil, ErrRekeyRequired
	}
	if uint64(len(plaintext)) > maxPayload {
		return nil, fmt.Errorf("session: record payload %d bytes, max %d", len(plaintext), maxPayload)
	}
	rk, err := c.keyed()
	if err != nil {
		return nil, err
	}
	seq := c.sendSeq
	out := make([]byte, recordHeader+len(plaintext)+tagSize)
	binary.BigEndian.PutUint64(out[:8], seq)
	out[8] = byte(c.dir)

	rk.xorKeyStream(out[recordHeader:recordHeader+len(plaintext)], plaintext, seq, c.dir)
	copy(out[recordHeader+len(plaintext):], rk.tag(out[:recordHeader+len(plaintext)]))

	c.sendSeq++
	return out, nil
}

// Open verifies and decrypts a record produced by the peer channel.
// Records must arrive strictly in order; anything at or below the
// high-water mark is rejected as a replay. A rejected record leaves
// the channel's state unchanged.
func (c *Channel) Open(record []byte) ([]byte, error) {
	if c.expired() {
		return nil, ErrRekeyRequired
	}
	if len(record) < Overhead {
		return nil, ErrMalformed
	}
	seq := binary.BigEndian.Uint64(record[:8])
	dir := Direction(record[8])
	if dir != c.dir.other() {
		return nil, fmt.Errorf("%w: direction %#x", ErrMalformed, byte(dir))
	}
	rk, err := c.keyed()
	if err != nil {
		return nil, err
	}

	body := record[:len(record)-tagSize]
	tag := record[len(record)-tagSize:]
	if !hmac.Equal(rk.tag(body), tag) {
		return nil, ErrAuth
	}
	// Authenticate BEFORE the replay check so an attacker cannot probe
	// the window with forged headers; but reject replays before
	// decrypting.
	if err := c.checkReplay(seq); err != nil {
		return nil, err
	}

	ct := record[recordHeader : len(record)-tagSize]
	pt := make([]byte, len(ct))
	rk.xorKeyStream(pt, ct, seq, dir)
	c.acceptSeq(seq)
	return pt, nil
}

// checkReplay applies the configured anti-replay strategy to an
// authenticated sequence number.
func (c *Channel) checkReplay(seq uint64) error {
	if c.policy.ReorderWindow == 0 {
		// Strict in-order delivery (CAN is a reliable ordered bus);
		// gaps indicate loss or reordering upstream.
		if seq < c.recvSeq {
			return ErrReplay
		}
		if seq > c.recvSeq {
			return fmt.Errorf("%w: got seq %d, want %d", ErrReplay, seq, c.recvSeq)
		}
		return nil
	}
	w := c.policy.ReorderWindow
	if w > 64 {
		w = 64
	}
	if !c.winPrimed {
		return nil // first record always accepted
	}
	switch {
	case seq > c.winHigh:
		return nil // advances the window
	case c.winHigh-seq >= uint64(w):
		return fmt.Errorf("%w: seq %d below window [%d, %d]", ErrReplay, seq, c.winHigh-uint64(w)+1, c.winHigh)
	default:
		if c.winMask&(1<<(c.winHigh-seq)) != 0 {
			return ErrReplay
		}
		return nil
	}
}

// acceptSeq records an accepted sequence number.
func (c *Channel) acceptSeq(seq uint64) {
	if c.policy.ReorderWindow == 0 {
		c.recvSeq = seq + 1
		return
	}
	if !c.winPrimed {
		c.winPrimed = true
		c.winHigh = seq
		c.winMask = 1
		c.recvSeq = seq + 1
		return
	}
	if seq > c.winHigh {
		shift := seq - c.winHigh
		if shift >= 64 {
			c.winMask = 0
		} else {
			c.winMask <<= shift
		}
		c.winMask |= 1
		c.winHigh = seq
	} else {
		c.winMask |= 1 << (c.winHigh - seq)
	}
	if c.winHigh >= c.recvSeq {
		c.recvSeq = c.winHigh + 1
	}
}

// recordKeys is a channel's keyed record primitives and the scratch
// one record needs.
type recordKeys struct {
	block cipher.Block
	mac   hash.Hash
	ctr   [aes.BlockSize]byte // CTR counter block
	ks    [aes.BlockSize]byte // one keystream block
	sum   [sha256.Size]byte   // untruncated tag
}

// keyed returns the channel's record keys, building the AES-128
// cipher and the keyed HMAC on first use.
func (c *Channel) keyed() (*recordKeys, error) {
	if c.rk != nil {
		return c.rk, nil
	}
	block, err := aes.NewCipher(c.key[:kdf.SessionKeySize])
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	c.rk = &recordKeys{block: block, mac: hmac.New(sha256.New, c.key[kdf.SessionKeySize:])}
	return c.rk, nil
}

// xorKeyStream XORs src with the AES-128-CTR keystream of record
// (seq, dir) into dst, one counter block at a time. seq never repeats
// within a key's lifetime in one direction, so no two records share a
// counter block.
func (k *recordKeys) xorKeyStream(dst, src []byte, seq uint64, dir Direction) {
	binary.BigEndian.PutUint64(k.ctr[:8], seq)
	k.ctr[8] = byte(dir)
	for i := 0; len(src) > 0; i++ {
		binary.BigEndian.PutUint32(k.ctr[12:], uint32(i))
		k.block.Encrypt(k.ks[:], k.ctr[:])
		n := subtle.XORBytes(dst, src, k.ks[:])
		dst, src = dst[n:], src[n:]
	}
}

// tag computes the truncated record MAC. The result aliases the
// scratch and is valid until the next record.
func (k *recordKeys) tag(body []byte) []byte {
	k.mac.Reset()
	k.mac.Write(recordLabel)
	k.mac.Write(body)
	return k.mac.Sum(k.sum[:0])[:tagSize]
}
