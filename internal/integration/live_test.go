// Package integration runs full-stack tests: the STS handshake state
// machines exchanging real bytes over the complete automotive network
// substrate (CAN-FD frames → ISO-TP fragmentation → Fig. 6 session
// transport), followed by protected application records over the same
// link — the complete system of the paper's Figure 5 test suite, in
// software.
package integration

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/enroll"
	"repro/internal/session"
	"repro/internal/transport"
)

type detRand struct{ r *rand.Rand }

func newDetRand(seed int64) *detRand { return &detRand{r: rand.New(rand.NewSource(seed))} }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

// node bundles one ECU: its credentials and its network endpoint.
type node struct {
	party *core.Party
	ep    *transport.Endpoint
}

// sendSTS ships handshake bytes as one transport message.
func (n *node) sendSTS(t *testing.T, payload []byte) {
	t.Helper()
	if _, err := n.ep.Send(transport.Message{
		CommCode: 0x10, SessionID: 0x0001, OpCode: payload[0], Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
}

// recvSTS polls one handshake message off the bus.
func (n *node) recvSTS(t *testing.T) []byte {
	t.Helper()
	msg, err := n.ep.Poll()
	if err != nil {
		t.Fatal(err)
	}
	return msg.Payload
}

// newBus builds the Fig. 7 prototype's fabric: one lossless CAN-FD
// segment on a world's clock, for endpoints with the zero Config.
func newBus() (*transport.World, *canbus.Bus) {
	w := transport.NewWorld(nil)
	bus := canbus.NewBus(canbus.PrototypeRates)
	bus.SetClock(w.Clock)
	return w, bus
}

func timeNow() time.Time { return time.Unix(1700000000, 0) }

const timeHour = time.Hour

func setup(t *testing.T, seed int64) (*node, *node, *canbus.Bus) {
	t.Helper()
	net, err := core.NewNetwork(ec.P256(), newDetRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, err := net.Pair("evcc", "bms")
	if err != nil {
		t.Fatal(err)
	}
	w, bus := newBus()
	return &node{party: pa, ep: transport.NewEndpoint(w, bus.Attach("evcc"), 0x101, transport.Config{})},
		&node{party: pb, ep: transport.NewEndpoint(w, bus.Attach("bms"), 0x102, transport.Config{})},
		bus
}

// runLiveHandshake drives a complete STS handshake over the bus and
// returns both key blocks.
func runLiveHandshake(t *testing.T, a, b *node, opt core.STSOptimization) ([]byte, []byte) {
	t.Helper()
	init, err := core.NewInitiator(a.party, opt)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := core.NewResponder(b.party, opt)
	if err != nil {
		t.Fatal(err)
	}

	// A1 over the wire.
	a1, err := init.Start()
	if err != nil {
		t.Fatal(err)
	}
	a.sendSTS(t, a1)

	// B processes A1, answers B1.
	b1, _, err := resp.Handle(b.recvSTS(t))
	if err != nil {
		t.Fatal(err)
	}
	b.sendSTS(t, b1)

	// A processes B1, answers A2.
	a2, _, err := init.Handle(a.recvSTS(t))
	if err != nil {
		t.Fatal(err)
	}
	a.sendSTS(t, a2)

	// B processes A2, ACKs, done.
	b2, doneB, err := resp.Handle(b.recvSTS(t))
	if err != nil {
		t.Fatal(err)
	}
	if !doneB {
		t.Fatal("responder not done after A2")
	}
	b.sendSTS(t, b2)

	// A consumes the ACK.
	if _, doneA, err := init.Handle(a.recvSTS(t)); err != nil || !doneA {
		t.Fatalf("initiator completion: done=%v err=%v", doneA, err)
	}

	keyA, err := init.SessionKey()
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := resp.SessionKey()
	if err != nil {
		t.Fatal(err)
	}
	return keyA, keyB
}

func TestLiveHandshakeOverCANFD(t *testing.T) {
	for _, opt := range []core.STSOptimization{core.OptNone, core.OptI, core.OptII} {
		t.Run(opt.String(), func(t *testing.T) {
			a, b, bus := setup(t, 31)
			keyA, keyB := runLiveHandshake(t, a, b, opt)
			if !bytes.Equal(keyA, keyB) {
				t.Fatal("live handshake keys disagree")
			}
			stats := bus.Stats()
			// 4 handshake messages; the big ones fragment. At least
			// 4 data frames + flow control traffic; all byte counts
			// positive.
			if stats.Frames < 8 {
				t.Errorf("only %d frames on the bus", stats.Frames)
			}
			if stats.WireTime <= 0 || stats.WireTime > 10*time.Millisecond {
				t.Errorf("implausible wire time %v", stats.WireTime)
			}
		})
	}
}

func TestLiveSessionRecordsOverCANFD(t *testing.T) {
	// Handshake, then protected telemetry records over the same bus.
	a, b, _ := setup(t, 32)
	keyA, keyB := runLiveHandshake(t, a, b, core.OptNone)

	chA, _, err := session.NewPair(keyA, session.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	_, chB, err := session.NewPair(keyB, session.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}

	send := func(rec []byte) {
		t.Helper()
		if _, err := a.ep.Send(transport.Message{
			CommCode: 0x20, SessionID: 0x0001, OpCode: 0x01, Payload: rec,
		}); err != nil {
			t.Fatal(err)
		}
	}
	seal := func(plain []byte) []byte {
		t.Helper()
		rec, err := chA.Seal(plain)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	recv := func() []byte {
		t.Helper()
		msg, err := b.ep.Poll()
		if err != nil {
			t.Fatal(err)
		}
		return msg.Payload
	}
	openFresh := func(plain []byte) {
		t.Helper()
		got, err := chB.Open(recv())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("record %x corrupted", plain)
		}
	}

	for i := 0; i < 5; i++ {
		telemetry := []byte{0xCA, byte(i), 0xFE}
		send(seal(telemetry))
		openFresh(telemetry)
	}

	// Replay at the bus level. A back-to-back copy of a record is a
	// consecutive duplicate, which the transport suppresses and counts.
	last := seal([]byte("final"))
	send(last)
	send(last)
	openFresh([]byte("final"))
	if _, err := b.ep.Poll(); !errors.Is(err, transport.ErrNoMessage) {
		t.Fatalf("back-to-back copy surfaced: %v", err)
	}
	if n := b.ep.Stats().DuplicateMessages; n != 1 {
		t.Fatalf("DuplicateMessages = %d, want 1", n)
	}

	// After a fresh record the same copy is no longer a duplicate: the
	// transport delivers it and the session layer must reject it.
	send(seal([]byte("fresh")))
	openFresh([]byte("fresh"))
	send(last)
	if _, err := chB.Open(recv()); !errors.Is(err, session.ErrReplay) {
		t.Fatalf("bus-level replay: got %v, want session.ErrReplay", err)
	}
}

func TestLiveHandshakeTamperedOnWire(t *testing.T) {
	// A man-in-the-middle flips a certificate byte inside B1 while it
	// crosses the bus; the initiator must abort.
	a, b, _ := setup(t, 33)
	init, _ := core.NewInitiator(a.party, core.OptNone)
	resp, _ := core.NewResponder(b.party, core.OptNone)

	a1, _ := init.Start()
	a.sendSTS(t, a1)
	b1, _, err := resp.Handle(b.recvSTS(t))
	if err != nil {
		t.Fatal(err)
	}
	// MitM: flip a certificate byte before it reaches A.
	b1[30] ^= 0x01
	b.sendSTS(t, b1)
	if _, _, err := init.Handle(a.recvSTS(t)); err == nil {
		t.Fatal("tampered B1 accepted over the wire")
	}
}

func TestEnrollmentOverCANFD(t *testing.T) {
	// The complete Figure 1 pipeline over the bus: a factory-fresh
	// device enrolls with the CA gateway over CAN-FD (stages 1–2),
	// then immediately establishes an STS session with an already-
	// provisioned peer (stage 3).
	rng := newDetRand(35)
	ca, err := ecqv.NewCA(ec.P256(), ecqv.NewID("gateway-ca"), rng)
	if err != nil {
		t.Fatal(err)
	}
	gw := &enroll.Gateway{CA: ca}

	w, bus := newBus()
	epDev := transport.NewEndpoint(w, bus.Attach("new-ecu"), 0x201, transport.Config{})
	epGw := transport.NewEndpoint(w, bus.Attach("gateway"), 0x202, transport.Config{})

	dev := &enroll.Device{
		Curve: ec.P256(),
		ID:    ecqv.NewID("new-ecu"),
		CAPub: ca.PublicKey(),
		Rand:  rng,
	}
	reqBytes, err := dev.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := epDev.Send(transport.Message{CommCode: 0x30, OpCode: reqBytes[0], Payload: reqBytes}); err != nil {
		t.Fatal(err)
	}
	reqMsg, err := epGw.Poll()
	if err != nil {
		t.Fatal(err)
	}
	respBytes := gw.Handle(reqMsg.Payload)
	if _, err := epGw.Send(transport.Message{CommCode: 0x30, OpCode: respBytes[0], Payload: respBytes}); err != nil {
		t.Fatal(err)
	}
	respMsg, err := epDev.Poll()
	if err != nil {
		t.Fatal(err)
	}
	cert, priv, err := dev.Finish(respMsg.Payload)
	if err != nil {
		t.Fatal(err)
	}

	// Stage 3: the freshly enrolled device runs STS with a peer that
	// enrolled directly against the CA.
	peerReq, peerSec, err := ecqv.NewRequest(ec.P256(), ecqv.NewID("old-ecu"), rng)
	if err != nil {
		t.Fatal(err)
	}
	peerResp, err := ca.Issue(peerReq, ecqv.IssueParams{
		ValidFrom: timeNow(), ValidTo: timeNow().Add(24 * timeHour),
		KeyUsage: ecqv.UsageKeyAgreement | ecqv.UsageSignature,
	})
	if err != nil {
		t.Fatal(err)
	}
	peerPriv, _, err := ecqv.ReconstructPrivateKey(peerSec, peerResp, ca.PublicKey())
	if err != nil {
		t.Fatal(err)
	}

	newParty := &core.Party{
		ID: dev.ID, Curve: ec.P256(), Cert: cert, Priv: priv,
		CAPub: ca.PublicKey(), Rand: rng,
	}
	oldParty := &core.Party{
		ID: ecqv.NewID("old-ecu"), Curve: ec.P256(), Cert: peerResp.Cert,
		Priv: peerPriv, CAPub: ca.PublicKey(), Rand: rng,
	}
	res, err := core.NewSTS(core.OptNone).Run(newParty, oldParty)
	if err != nil {
		t.Fatalf("enrolled device failed STS: %v", err)
	}
	if _, err := res.SessionKey(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveBusByteAccounting(t *testing.T) {
	// The handshake's application bytes on the bus must equal the
	// Table II total plus framing: 491 protocol bytes + 4 step codes +
	// 4×4 transport headers.
	a, b, bus := setup(t, 34)
	runLiveHandshake(t, a, b, core.OptNone)
	want := 491 + 4 + 4*transport.HeaderSize
	// Bus payload bytes include ISO-TP PCI bytes and flow-control
	// frames; the protocol share is want. Check bounds: the bus must
	// carry at least want and no more than want + framing slack.
	stats := bus.Stats()
	if stats.Bytes < want {
		t.Errorf("bus carried %d payload bytes, protocol needs %d", stats.Bytes, want)
	}
	if stats.Bytes > want+100 {
		t.Errorf("bus carried %d payload bytes, excessive framing over %d", stats.Bytes, want)
	}
}
