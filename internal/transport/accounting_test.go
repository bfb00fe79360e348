package transport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/canbus"
)

func TestAccountingAttributesCostsToOpcodes(t *testing.T) {
	cfg := DefaultConfig()
	acc := NewAccounting()
	cfg.Accounting = acc
	a, b, w, _ := reliablePair(t, nil, cfg)
	link := &Link{World: w, MaxResend: 3}

	// Two opcodes: a multi-frame step and a single-frame step.
	big := Message{CommCode: 1, SessionID: 1, OpCode: 0x01, Payload: testPayload(300)}
	small := Message{CommCode: 1, SessionID: 1, OpCode: 0x04, Payload: testPayload(5)}
	if _, err := link.Deliver(a, b, big); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Deliver(b, a, small); err != nil {
		t.Fatal(err)
	}

	steps := acc.Snapshot()
	bc, ok := steps[0x01]
	if !ok || bc.Messages != 1 || bc.PayloadBytes != 300 {
		t.Fatalf("opcode 0x01 row wrong: %+v", bc)
	}
	// 300 B + header + CRC crosses several CAN-FD frames.
	if bc.Frames < 5 || bc.WireTime == 0 {
		t.Errorf("opcode 0x01 frame accounting implausible: %+v", bc)
	}
	sc, ok := steps[0x04]
	if !ok || sc.Messages != 1 || sc.Frames != 1 {
		t.Fatalf("opcode 0x04 row wrong: %+v", sc)
	}
	if bc.Retransmits != 0 || bc.Resends != 0 || sc.Retransmits != 0 || sc.Resends != 0 {
		t.Errorf("lossless run charged recovery: %+v %+v", bc, sc)
	}
	if bc.QueueTime != 0 || sc.QueueTime != 0 {
		t.Errorf("uncongested single-segment run charged queueing delay: %+v %+v", bc, sc)
	}
}

func TestAccountingCountsRecoveryPerStep(t *testing.T) {
	imp := &canbus.Impairment{Seed: 31, Drop: 0.2}
	cfg := DefaultConfig()
	acc := NewAccounting()
	cfg.Accounting = acc
	a, b, w, _ := reliablePair(t, imp, cfg)
	link := &Link{World: w, MaxResend: 10}

	for i := 0; i < 6; i++ {
		m := Message{CommCode: 1, SessionID: 2, OpCode: 0x01 + byte(i%2), Payload: testPayload(250)}
		if _, err := link.Deliver(a, b, m); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	total := 0
	for op, c := range acc.Snapshot() {
		if op != 0x01 && op != 0x02 {
			t.Errorf("unexpected opcode %#x in accounting", op)
		}
		total += c.Retransmits + c.Resends
	}
	if total == 0 {
		t.Error("20% loss produced no per-step recovery accounting")
	}
	// Per-step rows must agree with the endpoint aggregate.
	agg := 0
	for _, c := range acc.Snapshot() {
		agg += c.Retransmits
	}
	if agg != a.Stats().Retransmits {
		t.Errorf("per-step retransmits %d != endpoint aggregate %d", agg, a.Stats().Retransmits)
	}
}

// TestReliableAcrossRateLimitedGateway drives a whole message through
// a congested gateway port: the egress queue gates frames on the
// simulated clock, the world's timer loop advances to the release
// times, and the message still completes.
func TestReliableAcrossRateLimitedGateway(t *testing.T) {
	w := NewWorld(nil)
	busA := canbus.NewBus(canbus.PrototypeRates)
	busB := canbus.NewBus(canbus.PrototypeRates)
	busA.SetClock(w.Clock)
	busB.SetClock(w.Clock)
	gw := canbus.NewGateway("gw", w.Clock)
	if err := gw.Route(busA, busB, canbus.IDRange(0x100, 0x1FF), 0); err != nil {
		t.Fatal(err)
	}
	if err := gw.Route(busB, busA, canbus.IDRange(0x200, 0x2FF), 0); err != nil {
		t.Fatal(err)
	}
	// 2000 frames/s toward B: a 500 µs serialization gap per frame,
	// roughly 10× the frame wire time — a visibly congested port.
	if err := gw.SetEgress(busB, canbus.EgressPolicy{Rate: 2000}); err != nil {
		t.Fatal(err)
	}
	w.AddGateway(gw)

	acc := NewAccounting()
	acfg, bcfg := DefaultConfig(), DefaultConfig()
	acfg.Accounting = acc
	acfg.AcceptID, bcfg.AcceptID = 0x200, 0x100
	a := NewEndpoint(w, busA.Attach("a"), 0x100, acfg)
	b := NewEndpoint(w, busB.Attach("b"), 0x200, bcfg)
	link := &Link{World: w, MaxResend: 4}

	m := Message{CommCode: 1, SessionID: 3, OpCode: 7, Payload: testPayload(400)}
	start := w.Clock.Now()
	got, err := link.Deliver(a, b, m)
	if err != nil {
		t.Fatalf("delivery across congested gateway: %v", err)
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("payload corrupted")
	}
	// 400 B ≈ 8 frames; at 500 µs per release the congestion alone
	// costs ≥ 3 ms of simulated time. The upper bound pins Deliver's
	// step-and-poll behaviour: a merely-congested message completes
	// when its last frame is released, never by burning the full 2 s
	// response timeout.
	elapsed := w.Clock.Now() - start
	if elapsed < 3*time.Millisecond {
		t.Errorf("congested delivery took %v of simulated time — rate limit not applied", elapsed)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("congested delivery took %v — Deliver waited for the response timeout instead of the egress release", elapsed)
	}
	if a.Stats().AbortedSends != 0 {
		t.Errorf("congestion aborted the send: %+v", a.Stats())
	}
	// The per-step accounting must attribute the congestion: the
	// message's opcode pays queueing delay on top of its wire time —
	// the tail of the transfer waited for egress releases after the
	// sender's last frame.
	c := acc.Snapshot()[7]
	if c.QueueTime <= 0 {
		t.Errorf("congested delivery charged no queueing delay: %+v", c)
	}
	if c.QueueTime >= elapsed {
		t.Errorf("queueing delay %v exceeds the whole delivery %v", c.QueueTime, elapsed)
	}
}
