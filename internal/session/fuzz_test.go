package session

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzPrimed is how many honest records the receiver has accepted
// before a fuzz input arrives: seq fuzzPrimed is the next one due.
const fuzzPrimed = 2

// fuzzPair returns a channel pair under policy whose receiver has
// accepted the sender's records 0 … fuzzPrimed-1.
func fuzzPair(t *testing.T, policy Policy) (*Channel, *Channel) {
	t.Helper()
	a, b := newPair(t, policy)
	for i := 0; i < fuzzPrimed; i++ {
		rec, err := a.Seal([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Open(rec); err != nil {
			t.Fatal(err)
		}
	}
	return a, b
}

// recvState is the part of a Channel that Open may change.
type recvState struct {
	recvSeq, winHigh, winMask uint64
	winPrimed                 bool
}

func (c *Channel) recvState() recvState {
	return recvState{c.recvSeq, c.winHigh, c.winMask, c.winPrimed}
}

// FuzzChannelOpen targets the record decoder the wire reaches through
// fleet.Open. The committed corpus holds honest records (payloads of
// 0, 1, 64 and 512 bytes at the next sequence number due) and
// rejected variants: truncated below Overhead, a flipped tag bit, the
// wrong direction byte, a replayed and a future sequence number.
// Properties, in strict mode and with ReorderWindow 8: nothing
// panics; Open's allocations do not grow with the input; an accepted
// input is exactly the record an honest sender seals for its sequence
// number and plaintext; and a rejected input leaves the receiver's
// state unchanged, so the next honest record still opens to its
// plaintext.
func FuzzChannelOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, record []byte) {
		for _, policy := range []Policy{{}, {ReorderWindow: 8}} {
			a, b := fuzzPair(t, policy)
			before := b.recvState()

			// Open copies of the receiver: AllocsPerRun calls the
			// function twice, and each call must see the same state.
			allocs := testing.AllocsPerRun(1, func() {
				probe := *b
				_, _ = probe.Open(record)
			})
			if allocs > 8 {
				t.Fatalf("window %d: Open of %d bytes made %.0f allocations",
					policy.ReorderWindow, len(record), allocs)
			}

			pt, err := b.Open(record)
			if err != nil {
				if pt != nil {
					t.Fatalf("window %d: rejected record returned plaintext", policy.ReorderWindow)
				}
				if got := b.recvState(); got != before {
					t.Fatalf("window %d: rejected record %v changed receiver state %+v → %+v",
						policy.ReorderWindow, err, before, got)
				}
			} else {
				// Only an honest record authenticates: resealing its
				// plaintext at its sequence number reproduces it.
				seq := binary.BigEndian.Uint64(record[:8])
				ref, _ := newPair(t, policy)
				ref.sendSeq = seq
				resealed, err := ref.Seal(pt)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resealed, record) {
					t.Fatalf("window %d: accepted record is not the honest record for seq %d",
						policy.ReorderWindow, seq)
				}
				if seq >= a.sendSeq {
					a.sendSeq = seq + 1
				}
			}

			next := []byte("next honest record")
			rec, err := a.Seal(next)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Open(rec)
			if err != nil {
				t.Fatalf("window %d: honest record after %d-byte input: %v",
					policy.ReorderWindow, len(record), err)
			}
			if !bytes.Equal(got, next) {
				t.Fatalf("window %d: honest record opened to % x", policy.ReorderWindow, got)
			}
		}
	})
}
