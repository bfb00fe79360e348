// Package group implements authenticated group keys for in-vehicle
// networks on top of the STS-ECQV pairwise substrate — the extension
// direction of Püllen et al. [8] that the paper's related work
// surveys.
//
// Model: a leader (the gateway ECU) establishes a pairwise dynamic
// session with every member via the STS engine, then distributes an
// epoch group key to each member sealed under the pairwise session
// keys. Every membership change bumps the epoch and redistributes a
// fresh key, so departed members cannot read later traffic and new
// members cannot read earlier traffic (group-level forward/backward
// secrecy, inherited from the pairwise DKD).
package group

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"

	"repro/internal/aead"
	"repro/internal/core"
	"repro/internal/ecqv"
	"repro/internal/kdf"
)

// GroupKeySize is the distributed group secret size; encryption and
// MAC keys are derived from it per epoch.
const GroupKeySize = 32

// Keys is one epoch's group keying material: the AES-128 cipher and
// the keyed HMAC-SHA-256 that protect its datagrams, built once when
// the epoch is keyed. Seal and Open are safe for concurrent use; they
// serialize on the keyed MAC and the scratch.
type Keys struct {
	Epoch uint32

	mu    sync.Mutex
	block cipher.Block
	mac   hash.Hash
	ctr   [aes.BlockSize]byte // CTR counter block
	ks    [aes.BlockSize]byte // one keystream block
	sum   [sha256.Size]byte   // untruncated tag
}

// deriveKeys expands a group secret into the epoch keys.
func deriveKeys(secret []byte, epoch uint32) (*Keys, error) {
	var info [8]byte
	binary.BigEndian.PutUint32(info[:4], epoch)
	okm, err := kdf.HKDF(secret, info[:4], []byte("group-epoch-keys"), kdf.SessionKeySize+kdf.MACKeySize)
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(okm[:kdf.SessionKeySize])
	if err != nil {
		return nil, fmt.Errorf("group: %w", err)
	}
	return &Keys{
		Epoch: epoch,
		block: block,
		mac:   hmac.New(sha256.New, okm[kdf.SessionKeySize:]),
	}, nil
}

// memberState is the leader's view of one member.
type memberState struct {
	party    *core.Party
	pairwise []byte // STS session key block with this member
}

// Leader manages a keyed group.
type Leader struct {
	self    *core.Party
	opt     core.STSOptimization
	rand    io.Reader
	members map[ecqv.ID]*memberState
	epoch   uint32
	keys    *Keys
	scheme  aead.Scheme
}

// NewLeader creates a group with no members.
func NewLeader(self *core.Party, opt core.STSOptimization) (*Leader, error) {
	if self == nil || self.Cert == nil {
		return nil, errors.New("group: leader not provisioned")
	}
	rng := self.Rand
	if rng == nil {
		rng = rand.Reader
	}
	return &Leader{
		self: self, opt: opt, rand: rng,
		members: map[ecqv.ID]*memberState{},
		scheme:  aead.Default,
	}, nil
}

// Epoch returns the current key epoch (0 = no key yet).
func (l *Leader) Epoch() uint32 { return l.epoch }

// Keys returns the leader's current group keys.
func (l *Leader) Keys() (*Keys, error) {
	if l.keys == nil {
		return nil, errors.New("group: no epoch established")
	}
	return l.keys, nil
}

// Size returns the member count (leader excluded).
func (l *Leader) Size() int { return len(l.members) }

// Add runs a pairwise STS handshake with the member, bumps the epoch
// and returns the key-distribution messages for every member (the new
// one included). Each message is addressed and must be delivered to
// its member's Member.Install.
func (l *Leader) Add(member *core.Party) (map[ecqv.ID][]byte, error) {
	if member == nil || member.Cert == nil {
		return nil, errors.New("group: member not provisioned")
	}
	if _, dup := l.members[member.ID]; dup {
		return nil, fmt.Errorf("group: member %s already present", member.ID)
	}
	pairwise, err := pairwiseHandshake(l.self, member, l.opt)
	if err != nil {
		return nil, fmt.Errorf("group: pairwise handshake with %s: %w", member.ID, err)
	}
	l.members[member.ID] = &memberState{party: member, pairwise: pairwise}
	return l.rekey()
}

// Remove drops a member, bumps the epoch and returns distribution
// messages for the remaining members. The removed member never sees
// the new key.
func (l *Leader) Remove(id ecqv.ID) (map[ecqv.ID][]byte, error) {
	if _, ok := l.members[id]; !ok {
		return nil, fmt.Errorf("group: no member %s", id)
	}
	delete(l.members, id)
	return l.rekey()
}

// rekey draws a fresh group secret and seals it for every member.
func (l *Leader) rekey() (map[ecqv.ID][]byte, error) {
	secret := make([]byte, GroupKeySize)
	if _, err := io.ReadFull(l.rand, secret); err != nil {
		return nil, fmt.Errorf("group: secret: %w", err)
	}
	l.epoch++
	keys, err := deriveKeys(secret, l.epoch)
	if err != nil {
		return nil, err
	}
	l.keys = keys

	out := map[ecqv.ID][]byte{}
	for id, ms := range l.members {
		msg, err := l.sealKeyMessage(ms, secret)
		if err != nil {
			return nil, err
		}
		out[id] = msg
	}
	return out, nil
}

// sealKeyMessage builds epoch(4) ‖ sealed(pairwise, secret, aad=epoch‖ids).
func (l *Leader) sealKeyMessage(ms *memberState, secret []byte) ([]byte, error) {
	enc := ms.pairwise[:kdf.SessionKeySize]
	mac := ms.pairwise[kdf.SessionKeySize:]
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], l.epoch)
	aad := append(hdr[:], l.self.ID[:]...)
	aad = append(aad, ms.party.ID[:]...)
	sealed, err := l.scheme.Seal(enc, mac, secret, aad)
	if err != nil {
		return nil, err
	}
	return append(hdr[:], sealed...), nil
}

// Member is the non-leader side.
type Member struct {
	self     *core.Party
	leaderID ecqv.ID
	pairwise []byte
	keys     *Keys
	scheme   aead.Scheme
}

// Join runs the member side of admission: the pairwise handshake was
// already driven by Leader.Add (in-process engine pair), so Join
// captures the resulting key block. Deployments would drive the same
// engines over their link.
func Join(self *core.Party, leaderID ecqv.ID, pairwise []byte) (*Member, error) {
	if len(pairwise) != kdf.SessionKeySize+kdf.MACKeySize {
		return nil, errors.New("group: bad pairwise key block")
	}
	return &Member{
		self: self, leaderID: leaderID,
		pairwise: append([]byte(nil), pairwise...),
		scheme:   aead.Default,
	}, nil
}

// Install consumes a key-distribution message.
func (m *Member) Install(data []byte) error {
	if len(data) < 4 {
		return errors.New("group: short key message")
	}
	epoch := binary.BigEndian.Uint32(data[:4])
	enc := m.pairwise[:kdf.SessionKeySize]
	mac := m.pairwise[kdf.SessionKeySize:]
	aad := append(append([]byte(nil), data[:4]...), m.leaderID[:]...)
	aad = append(aad, m.self.ID[:]...)
	secret, err := m.scheme.Open(enc, mac, data[4:], aad)
	if err != nil {
		return fmt.Errorf("group: key message: %w", err)
	}
	if m.keys != nil && epoch <= m.keys.Epoch {
		return fmt.Errorf("group: stale epoch %d (have %d)", epoch, m.keys.Epoch)
	}
	keys, err := deriveKeys(secret, epoch)
	if err != nil {
		return err
	}
	m.keys = keys
	return nil
}

// Keys returns the member's current group keys.
func (m *Member) Keys() (*Keys, error) {
	if m.keys == nil {
		return nil, errors.New("group: no epoch installed")
	}
	return m.keys, nil
}

// Group datagram format:
//
//	epoch(4) ‖ sender(16) ‖ seq(8) ‖ AES-128-CTR(encKey, ctr, payload) ‖ tag(16)
//	ctr = SHA-256(sender ‖ seq)[:12] ‖ blockctr(4), blockctr from 0
//	tag = HMAC-SHA-256(macKey, "group-record" ‖ epoch ‖ sender ‖ seq ‖ ciphertext)[:16]
//
// The keys are the epoch's, so a counter block needs to be unique only
// within the epoch. Sender and sequence number do not fit one AES
// block beside a block counter, so their SHA-256 digest stands in:
// two datagrams share keystream only if those 96 bits collide. A
// payload holds at most 2^32 AES blocks, so blockctr never wraps.

const groupHeader = 4 + ecqv.IDSize + 8

// maxPayload is the largest datagram payload: 2^32 AES blocks.
const maxPayload = 1 << 32 * aes.BlockSize

// groupRecordLabel prefixes every datagram's MAC input.
var groupRecordLabel = []byte("group-record")

// Seal protects a group datagram under the epoch keys.
func (k *Keys) Seal(sender ecqv.ID, seq uint64, payload []byte) ([]byte, error) {
	if uint64(len(payload)) > maxPayload {
		return nil, fmt.Errorf("group: datagram payload %d bytes, max %d", len(payload), uint64(maxPayload))
	}
	out := make([]byte, groupHeader+len(payload)+16)
	binary.BigEndian.PutUint32(out[:4], k.Epoch)
	copy(out[4:20], sender[:])
	binary.BigEndian.PutUint64(out[20:groupHeader], seq)

	k.mu.Lock()
	defer k.mu.Unlock()
	k.xorKeyStream(out[groupHeader:groupHeader+len(payload)], payload, out[4:groupHeader])
	copy(out[groupHeader+len(payload):], k.tag(out[:groupHeader+len(payload)]))
	return out, nil
}

// ErrGroupAuth is returned for datagrams that fail authentication or
// target another epoch.
var ErrGroupAuth = errors.New("group: datagram rejected")

// Open verifies and decrypts a group datagram, returning the sender
// and payload.
func (k *Keys) Open(data []byte) (ecqv.ID, []byte, error) {
	if len(data) < groupHeader+16 {
		return ecqv.ID{}, nil, fmt.Errorf("%w: short", ErrGroupAuth)
	}
	epoch := binary.BigEndian.Uint32(data[:4])
	if epoch != k.Epoch {
		return ecqv.ID{}, nil, fmt.Errorf("%w: epoch %d, have %d", ErrGroupAuth, epoch, k.Epoch)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	body := data[:len(data)-16]
	if !hmac.Equal(k.tag(body), data[len(data)-16:]) {
		return ecqv.ID{}, nil, ErrGroupAuth
	}
	var sender ecqv.ID
	copy(sender[:], data[4:20])
	ct := data[groupHeader : len(data)-16]
	pt := make([]byte, len(ct))
	k.xorKeyStream(pt, ct, data[4:groupHeader])
	return sender, pt, nil
}

// xorKeyStream XORs src with the AES-128-CTR keystream of the datagram
// whose sender ‖ seq header bytes are id into dst. k.mu is held.
func (k *Keys) xorKeyStream(dst, src, id []byte) {
	if len(src) == 0 {
		return
	}
	nonce := sha256.Sum256(id)
	copy(k.ctr[:12], nonce[:12])
	for i := 0; len(src) > 0; i++ {
		binary.BigEndian.PutUint32(k.ctr[12:], uint32(i))
		k.block.Encrypt(k.ks[:], k.ctr[:])
		n := subtle.XORBytes(dst, src, k.ks[:])
		dst, src = dst[n:], src[n:]
	}
}

// tag computes the truncated datagram MAC. The result aliases the
// scratch and is valid while k.mu is held.
func (k *Keys) tag(body []byte) []byte {
	k.mac.Reset()
	k.mac.Write(groupRecordLabel)
	k.mac.Write(body)
	return k.mac.Sum(k.sum[:0])[:16]
}

// pairwiseHandshake drives the STS engine pair to completion.
func pairwiseHandshake(leader, member *core.Party, opt core.STSOptimization) ([]byte, error) {
	init, err := core.NewInitiator(leader, opt)
	if err != nil {
		return nil, err
	}
	resp, err := core.NewResponder(member, opt)
	if err != nil {
		return nil, err
	}
	msg, err := init.Start()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		reply, _, err := resp.Handle(msg)
		if err != nil {
			return nil, err
		}
		if reply == nil {
			break
		}
		next, done, err := init.Handle(reply)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		msg = next
	}
	return init.SessionKey()
}

// PairwiseKey exposes the leader's pairwise key block for a member so
// the in-process simulation can construct the matching Member (see
// Join). Deployments derive it on the member's own engine instead.
func (l *Leader) PairwiseKey(id ecqv.ID) ([]byte, error) {
	ms, ok := l.members[id]
	if !ok {
		return nil, fmt.Errorf("group: no member %s", id)
	}
	return append([]byte(nil), ms.pairwise...), nil
}
