package session

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// expectedRecord rebuilds a record from the standard library's
// AES-CTR and HMAC alone, independently of the Channel code.
func expectedRecord(t *testing.T, keyBlock []byte, seq uint64, dir Direction, pt []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(keyBlock[:16])
	if err != nil {
		t.Fatal(err)
	}
	iv := make([]byte, aes.BlockSize) // seq(8) ‖ dir(1) ‖ 0(3) ‖ blockctr(4) = 0
	binary.BigEndian.PutUint64(iv, seq)
	iv[8] = byte(dir)
	rec := binary.BigEndian.AppendUint64(nil, seq)
	rec = append(rec, byte(dir))
	ct := make([]byte, len(pt))
	cipher.NewCTR(block, iv).XORKeyStream(ct, pt)
	rec = append(rec, ct...)
	m := hmac.New(sha256.New, keyBlock[16:])
	m.Write([]byte("session-record"))
	m.Write(rec)
	return append(rec, m.Sum(nil)[:16]...)
}

// TestRecordKnownAnswer pins the record format: for both directions,
// a low and a high sequence number and payloads around the AES block
// size, Seal matches the independently built record byte for byte and
// the peer's Open inverts it.
func TestRecordKnownAnswer(t *testing.T) {
	kb := testKeyBlock()
	for _, seq := range []uint64{0, 1<<40 + 7} {
		for _, dir := range []Direction{DirAtoB, DirBtoA} {
			for _, n := range []int{0, 1, 15, 16, 17, 64, 512} {
				t.Run(fmt.Sprintf("seq%d/dir%d/len%d", seq, dir, n), func(t *testing.T) {
					a, b := newPair(t, Policy{ReorderWindow: 8})
					tx, rx := a, b
					if dir == DirBtoA {
						tx, rx = b, a
					}
					tx.sendSeq = seq
					pt := make([]byte, n)
					for i := range pt {
						pt[i] = byte(3*i + 1)
					}
					rec, err := tx.Seal(pt)
					if err != nil {
						t.Fatal(err)
					}
					if want := expectedRecord(t, kb, seq, dir, pt); !bytes.Equal(rec, want) {
						t.Fatalf("record\n got % x\nwant % x", rec, want)
					}
					got, err := rx.Open(rec)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, pt) {
						t.Fatalf("Open = % x, want % x", got, pt)
					}
				})
			}
		}
	}
}

// TestRecordAllocBudget is the host-independent gate on the record
// layer: a keyed channel pair seals and opens a 64 B record with the
// record and the plaintext as its only allocations, and a pair that
// never carries a record builds no cipher or MAC.
func TestRecordAllocBudget(t *testing.T) {
	const recordBudget, pairBudget = 2, 2
	a, b := newPair(t, Policy{})
	payload := make([]byte, 64)
	avg := testing.AllocsPerRun(100, func() {
		rec, err := a.Seal(payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Open(rec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("64 B Seal+Open: %.0f allocs/op (budget %d)", avg, recordBudget)
	if avg > recordBudget {
		t.Errorf("64 B Seal+Open allocates %.0f/op, budget %d", avg, recordBudget)
	}

	kb := testKeyBlock()
	var x, y *Channel
	avg = testing.AllocsPerRun(100, func() {
		var err error
		if x, y, err = NewPair(kb, DefaultPolicy); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewPair: %.0f allocs/op (budget %d)", avg, pairBudget)
	if avg > pairBudget {
		t.Errorf("NewPair allocates %.0f/op, budget %d", avg, pairBudget)
	}
	for _, c := range []*Channel{x, y} {
		if c.rk != nil {
			t.Errorf("NewPair keyed channel %#x before its first record", byte(c.dir))
		}
	}
}
