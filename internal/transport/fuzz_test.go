package transport

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/canbus"
	"repro/internal/cantp"
)

// FuzzMessageTrailer targets the optional CRC-32 message trailer and
// the application-layer codec under it. Properties: nothing panics on
// arbitrary bytes; append→verify round-trips any payload; a verifying
// input is exactly reproduced by re-appending its own checksum; and a
// decodable message re-encodes byte-exactly.
func FuzzMessageTrailer(f *testing.F) {
	// A well-formed message with a valid trailer.
	f.Add(appendChecksum(Message{CommCode: 1, SessionID: 7, OpCode: 2, Payload: []byte("hello")}.Encode()))
	// Truncated trailer, empty input, trailer-only input.
	f.Add([]byte{0x01, 0x02})
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	// Valid header, corrupted checksum.
	bad := appendChecksum(Message{CommCode: 9, SessionID: 1, OpCode: 4, Payload: []byte("x")}.Encode())
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Round trip: any bytes survive append→verify unchanged.
		sealed := appendChecksum(data)
		body, ok := verifyChecksum(sealed)
		if !ok || !bytes.Equal(body, data) {
			t.Fatalf("checksum round trip failed for %d bytes", len(data))
		}

		// Arbitrary bytes through the verifier: no panic, and success
		// implies self-consistency.
		if stripped, ok := verifyChecksum(data); ok {
			if !bytes.Equal(appendChecksum(stripped), data) {
				t.Fatal("verified input not reproduced by its own checksum")
			}
			if msg, err := DecodeMessage(stripped); err == nil {
				if !bytes.Equal(msg.Encode(), stripped) {
					t.Fatal("decoded message did not re-encode byte-exactly")
				}
			}
		}

		// The raw codec path (Checksum off: no trailer).
		if msg, err := DecodeMessage(data); err == nil {
			if !bytes.Equal(msg.Encode(), data) {
				t.Fatal("raw decode/encode round trip diverged")
			}
		}
	})
}

// FuzzEndpointService targets an endpoint's receive path. The input
// encodes a frame sequence, each frame a length byte (mod 65) followed
// by that many payload bytes; a third node injects every frame under
// the victim's acceptance ID and the world pumps it through the
// victim's Service. Properties: nothing panics, and whatever state the
// injected frames leave behind, an honest Link.Deliver still arrives
// byte-exact. The honest payload starts with the SHA-256 of the input,
// so injected bytes cannot pre-empt it through duplicate suppression;
// a hash bit also toggles the CRC-32 trailer.
func FuzzEndpointService(f *testing.F) {
	// Table II A1 (ID + XG) and B1 (ID + Cert + XG + Resp) transfers:
	// whole, tail lost, and with a repeated ConsecutiveFrame.
	for _, n := range []int{80, 245} {
		frames, err := cantp.Segment(Message{CommCode: 1, SessionID: 1, OpCode: 1, Payload: testPayload(n)}.Encode())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(joinFrames(frames))
		f.Add(joinFrames(frames[:len(frames)-1]))
		f.Add(joinFrames(append(frames[:2:2], frames[1:]...)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sum := sha256.Sum256(data)
		cfg := DefaultConfig()
		cfg.Checksum = sum[0]&1 == 1
		w := NewWorld(nil)
		bus := canbus.NewBus(canbus.PrototypeRates)
		bus.SetClock(w.Clock)
		acfg, bcfg := cfg, cfg
		acfg.AcceptID, bcfg.AcceptID = 0x102, 0x101
		honest := NewEndpoint(w, bus.Attach("honest"), 0x101, acfg)
		victim := NewEndpoint(w, bus.Attach("victim"), 0x102, bcfg)
		attacker := bus.Attach("attacker")

		for len(data) > 0 {
			n := min(int(data[0]%65), len(data)-1)
			frame := canbus.Frame{ID: 0x101, BRS: true, Data: append([]byte(nil), data[1:1+n]...)}
			data = data[1+n:]
			if _, err := attacker.Send(frame); err != nil {
				t.Fatalf("inject %d-byte frame: %v", len(frame.Data), err)
			}
			w.Run()
		}
		// Injected frames that happen to form a well-formed message
		// are the attacker's to deliver; drain them.
		for {
			if _, err := victim.Poll(); err != nil {
				break
			}
		}

		payload := sum[:]
		for len(payload) < sha256.Size+int(sum[1])+int(sum[2]&1)<<8 {
			payload = append(payload, byte(len(payload))^sum[len(payload)%sha256.Size])
		}
		m := Message{CommCode: 1, SessionID: 1, OpCode: 1, Payload: payload}
		got, err := (&Link{World: w}).Deliver(honest, victim, m)
		if err != nil {
			t.Fatalf("honest %d-byte message after injection: %v", len(payload), err)
		}
		if !bytes.Equal(got.Encode(), m.Encode()) {
			t.Fatalf("honest message altered: got %+v", got)
		}
	})
}

// joinFrames encodes frames in FuzzEndpointService's input format.
func joinFrames(frames [][]byte) []byte {
	var out []byte
	for _, fr := range frames {
		out = append(out, byte(len(fr)))
		out = append(out, fr...)
	}
	return out
}
