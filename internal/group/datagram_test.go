package group

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/conc"
	"repro/internal/ecqv"
	"repro/internal/kdf"
)

// testEpoch keys epoch 7 from a fixed secret and returns the keys
// with the encryption and MAC keys the HKDF derives for them.
func testEpoch(t *testing.T) (k *Keys, encKey, macKey []byte) {
	t.Helper()
	secret := bytes.Repeat([]byte{0x5a}, GroupKeySize)
	k, err := deriveKeys(secret, 7)
	if err != nil {
		t.Fatal(err)
	}
	okm, err := kdf.HKDF(secret, []byte{0, 0, 0, 7}, []byte("group-epoch-keys"), kdf.SessionKeySize+kdf.MACKeySize)
	if err != nil {
		t.Fatal(err)
	}
	return k, okm[:kdf.SessionKeySize], okm[kdf.SessionKeySize:]
}

// expectedDatagram builds a datagram from crypto/aes, cipher.NewCTR
// and crypto/hmac per the documented format.
func expectedDatagram(t *testing.T, encKey, macKey []byte, epoch uint32, sender ecqv.ID, seq uint64, pt []byte) []byte {
	t.Helper()
	hdr := make([]byte, groupHeader)
	binary.BigEndian.PutUint32(hdr[:4], epoch)
	copy(hdr[4:20], sender[:])
	binary.BigEndian.PutUint64(hdr[20:], seq)
	nonce := sha256.Sum256(hdr[4:])
	iv := make([]byte, aes.BlockSize)
	copy(iv, nonce[:12])
	block, err := aes.NewCipher(encKey)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, len(pt))
	cipher.NewCTR(block, iv).XORKeyStream(ct, pt)
	m := hmac.New(sha256.New, macKey)
	m.Write([]byte("group-record"))
	m.Write(hdr)
	m.Write(ct)
	out := append(hdr, ct...)
	return append(out, m.Sum(nil)[:16]...)
}

// TestDatagramKnownAnswer pins Seal to the documented format and Open
// to its inverse.
func TestDatagramKnownAnswer(t *testing.T) {
	k, encKey, macKey := testEpoch(t)
	for _, sender := range []ecqv.ID{ecqv.NewID("gateway"), ecqv.NewID("ecu-3")} {
		for _, seq := range []uint64{0, 1<<40 + 7} {
			for _, n := range []int{0, 1, 15, 16, 17, 64, 512} {
				t.Run(fmt.Sprintf("%s/seq%d/len%d", sender, seq, n), func(t *testing.T) {
					pt := make([]byte, n)
					for i := range pt {
						pt[i] = byte(5*i + 2)
					}
					dg, err := k.Seal(sender, seq, pt)
					if err != nil {
						t.Fatal(err)
					}
					if want := expectedDatagram(t, encKey, macKey, k.Epoch, sender, seq, pt); !bytes.Equal(dg, want) {
						t.Fatalf("datagram\n got % x\nwant % x", dg, want)
					}
					from, got, err := k.Open(dg)
					if err != nil {
						t.Fatal(err)
					}
					if from != sender || !bytes.Equal(got, pt) {
						t.Fatalf("Open = %s % x, want %s % x", from, got, sender, pt)
					}
				})
			}
		}
	}
}

// TestDatagramAllocBudget is the host-independent gate on group
// datagrams: a 64 B Seal+Open allocates the datagram and the
// plaintext, and nothing else.
func TestDatagramAllocBudget(t *testing.T) {
	const budget = 2
	k, _, _ := testEpoch(t)
	sender := ecqv.NewID("gateway")
	payload := make([]byte, 64)
	if _, err := k.Seal(sender, 0, payload); err != nil { // first Reset snapshots the MAC state
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		dg, err := k.Seal(sender, 1, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.Open(dg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("64 B group Seal+Open: %.0f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("64 B group Seal+Open allocates %.0f/op, budget %d", avg, budget)
	}
}

// TestDatagramConcurrent seals and opens on one epoch's keys from
// several goroutines (run it under -race).
func TestDatagramConcurrent(t *testing.T) {
	k, _, _ := testEpoch(t)
	conc.ForEach(4, 4, func(g int) {
		sender := ecqv.NewID(fmt.Sprint("ecu-", g))
		for seq := uint64(0); seq < 50; seq++ {
			pt := []byte(fmt.Sprint(sender, seq))
			dg, err := k.Seal(sender, seq, pt)
			if err != nil {
				t.Error(err)
				return
			}
			if from, got, err := k.Open(dg); err != nil || from != sender || !bytes.Equal(got, pt) {
				t.Errorf("round trip failed: %v", err)
				return
			}
		}
	})
}
