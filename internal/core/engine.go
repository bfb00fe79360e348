package core

import (
	"errors"
	"fmt"

	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
)

// Message-driven STS engine. Unlike STS.Run (which executes both
// parties in-process for experiments), the Initiator and Responder
// here are incremental state machines that consume and produce wire
// bytes — the form a deployment embeds behind a real network stack.
// The live CAN-FD integration tests drive these over the full
// canbus/cantp/transport substrate.

// HandshakeError wraps protocol violations detected by the engine.
var (
	// ErrHandshakeState is returned when a message arrives in the
	// wrong state.
	ErrHandshakeState = errors.New("core: unexpected handshake state")
	// ErrHandshakeAuth is returned when peer authentication fails;
	// the handshake must be abandoned.
	ErrHandshakeAuth = errors.New("core: handshake authentication failed")
)

// engineCommon holds the state shared by both roles.
type engineCommon struct {
	party *Party
	opt   STSOptimization
	trace *Trace
	suite *suite

	x      *ec.SecretKey // own ephemeral scalar
	xg     ec.Point      // own ephemeral point
	peerXG ec.Point
	peerID ecqv.ID
	encKey []byte
	macKey []byte
	done   bool
}

// SessionKey returns the derived key block (enc ‖ mac) once the
// handshake has completed.
func (e *engineCommon) SessionKey() ([]byte, error) {
	if !e.done {
		return nil, errors.New("core: handshake not complete")
	}
	return append(append([]byte(nil), e.encKey...), e.macKey...), nil
}

// Trace returns the primitive-level execution record (own side only).
func (e *engineCommon) Trace() *Trace { return e.trace }

func newEngineCommon(party *Party, role PartyRole, opt STSOptimization) (*engineCommon, error) {
	if party == nil || party.Cert == nil || party.Priv == nil {
		return nil, errors.New("core: engine party not provisioned")
	}
	trace := newTrace(stsSideEvents)
	return &engineCommon{
		party: party,
		opt:   opt,
		trace: trace,
		suite: newSuite(party.Curve, trace.meterFor(role), party.Rand, party.KeyCache()),
	}, nil
}

// deriveKeys computes the session keys from the premaster and the two
// ephemeral points in initiator-first salt order.
func (e *engineCommon) deriveKeys(pm []byte, xgA, xgB ec.Point) error {
	curve := e.party.Curve
	salt := append(encodePointRaw(curve, xgA), encodePointRaw(curve, xgB)...)
	enc, mac, err := e.suite.deriveSessionKeys(pm, salt)
	if err != nil {
		return err
	}
	e.encKey, e.macKey = enc, mac
	return nil
}

// signResp builds Resp = encrypt(KS, sign(Prk, first ‖ second)).
func (e *engineCommon) signResp(direction string, first, second ec.Point) ([]byte, error) {
	curve := e.party.Curve
	auth := append(encodePointRaw(curve, first), encodePointRaw(curve, second)...)
	dsign, err := e.suite.sign(e.party.Priv, auth)
	if err != nil {
		return nil, err
	}
	return e.suite.ctrEncrypt(e.encKey, e.macKey, direction, dsign.EncodeRaw(curve))
}

// verifyResp checks a peer Resp under an extracted public key.
func (e *engineCommon) verifyResp(direction string, resp []byte, q ec.Point, first, second ec.Point) error {
	curve := e.party.Curve
	e.suite.m.record(PrimAESBytes, len(resp))
	raw, err := e.suite.ctrEncrypt(e.encKey, e.macKey, direction, resp)
	if err != nil {
		return err
	}
	sig, err := ecdsa.DecodeRaw(curve, raw)
	if err != nil {
		return fmt.Errorf("%w: response garbled", ErrHandshakeAuth)
	}
	auth := append(encodePointRaw(curve, first), encodePointRaw(curve, second)...)
	if !e.suite.verify(q, auth, sig) {
		return ErrHandshakeAuth
	}
	return nil
}

// extractPeer validates a peer certificate and reconstructs its key.
// A certificate this party's KeyCache has seen before is not decoded
// again (suite.extractEncoded).
func (e *engineCommon) extractPeer(certBytes []byte, claimedID ecqv.ID) (ec.Point, error) {
	q, _, err := e.suite.extractEncoded(certBytes, claimedID, e.party.CAPub)
	if err != nil {
		return ec.Point{}, fmt.Errorf("%w: %v", ErrHandshakeAuth, err)
	}
	return q, nil
}

// Initiator is the A side of a live STS handshake.
type Initiator struct {
	engineCommon
	state int // 0 = new, 1 = sent A1, 2 = sent A2 (awaiting ACK), 3 = done
}

// NewInitiator builds the A-side state machine.
func NewInitiator(party *Party, opt STSOptimization) (*Initiator, error) {
	c, err := newEngineCommon(party, RoleA, opt)
	if err != nil {
		return nil, err
	}
	return &Initiator{engineCommon: *c}, nil
}

// Start emits A1.
func (i *Initiator) Start() ([]byte, error) {
	if i.state != 0 {
		return nil, ErrHandshakeState
	}
	i.suite.enter(PhaseOp1)
	x, xg, err := i.suite.ephemeral()
	if err != nil {
		return nil, err
	}
	i.x, i.xg = x, xg

	msg := WireMessage{From: RoleA, Label: "A1"}
	if i.opt == OptNone {
		msg.Field = []Field{
			{"ID", i.party.ID[:]},
			{"XG", encodePointRaw(i.party.Curve, xg)},
		}
	} else {
		msg.Field = []Field{
			{"ID", i.party.ID[:]},
			{"Cert", i.party.Cert.Encode()},
			{"XG", encodePointRaw(i.party.Curve, xg)},
		}
	}
	i.state = 1
	return EncodeSTSMessage(msg)
}

// Handle consumes a peer message and returns the reply (nil when no
// reply is due). done reports handshake completion.
func (i *Initiator) Handle(data []byte) (reply []byte, done bool, err error) {
	curve := i.party.Curve
	msg, err := DecodeSTSMessage(curve, i.opt, data)
	if err != nil {
		return nil, false, err
	}
	switch {
	case i.state == 1 && msg.Label == "B1":
		peerXG, err := decodePointRaw(curve, msg.Get("XG"))
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", ErrHandshakeAuth, err)
		}
		i.peerXG = peerXG
		copy(i.peerID[:], msg.Get("ID"))

		i.suite.enter(PhaseOp2PubKey)
		qB, err := i.extractPeer(msg.Get("Cert"), i.peerID)
		if err != nil {
			return nil, false, err
		}
		i.suite.enter(PhaseOp2Premaster)
		pm, err := i.suite.dh(i.x, peerXG)
		if err != nil {
			return nil, false, err
		}
		if err := i.deriveKeys(pm, i.xg, peerXG); err != nil {
			return nil, false, err
		}

		i.suite.enter(PhaseOp4)
		if err := i.verifyResp("B->A", msg.Get("Resp"), qB, peerXG, i.xg); err != nil {
			return nil, false, err
		}

		i.suite.enter(PhaseOp3)
		resp, err := i.signResp("A->B", i.xg, peerXG)
		if err != nil {
			return nil, false, err
		}
		out := WireMessage{From: RoleA, Label: "A2"}
		if i.opt == OptNone {
			out.Field = []Field{{"Cert", i.party.Cert.Encode()}, {"Resp", resp}}
		} else {
			out.Field = []Field{{"Resp", resp}}
		}
		i.state = 2
		enc, err := EncodeSTSMessage(out)
		return enc, false, err

	case i.state == 2 && msg.Label == "B2":
		i.state = 3
		i.done = true
		return nil, true, nil
	}
	return nil, false, fmt.Errorf("%w: %s in state %d", ErrHandshakeState, msg.Label, i.state)
}

// Responder is the B side of a live STS handshake.
type Responder struct {
	engineCommon
	state int // 0 = new, 1 = sent B1 (awaiting A2), 2 = done
	qA    ecPointHolder
}

// NewResponder builds the B-side state machine.
func NewResponder(party *Party, opt STSOptimization) (*Responder, error) {
	c, err := newEngineCommon(party, RoleB, opt)
	if err != nil {
		return nil, err
	}
	return &Responder{engineCommon: *c}, nil
}

// Handle consumes a peer message and returns the reply. done reports
// handshake completion (after emitting the ACK).
func (r *Responder) Handle(data []byte) (reply []byte, done bool, err error) {
	curve := r.party.Curve
	msg, err := DecodeSTSMessage(curve, r.opt, data)
	if err != nil {
		return nil, false, err
	}
	switch {
	case r.state == 0 && msg.Label == "A1":
		peerXG, err := decodePointRaw(curve, msg.Get("XG"))
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", ErrHandshakeAuth, err)
		}
		r.peerXG = peerXG
		copy(r.peerID[:], msg.Get("ID"))

		r.suite.enter(PhaseOp1)
		x, xg, err := r.suite.ephemeral()
		if err != nil {
			return nil, false, err
		}
		r.x, r.xg = x, xg

		r.suite.enter(PhaseOp2Premaster)
		pm, err := r.suite.dh(x, peerXG)
		if err != nil {
			return nil, false, err
		}
		if err := r.deriveKeys(pm, peerXG, xg); err != nil {
			return nil, false, err
		}
		if r.opt != OptNone {
			r.suite.enter(PhaseOp2PubKey)
			q, err := r.extractPeer(msg.Get("Cert"), r.peerID)
			if err != nil {
				return nil, false, err
			}
			r.qA.set(q)
		}

		r.suite.enter(PhaseOp3)
		resp, err := r.signResp("B->A", xg, peerXG)
		if err != nil {
			return nil, false, err
		}
		out := WireMessage{From: RoleB, Label: "B1", Field: []Field{
			{"ID", r.party.ID[:]},
			{"Cert", r.party.Cert.Encode()},
			{"XG", encodePointRaw(curve, xg)},
			{"Resp", resp},
		}}
		r.state = 1
		enc, err := EncodeSTSMessage(out)
		return enc, false, err

	case r.state == 1 && msg.Label == "A2":
		if !r.qA.ok {
			r.suite.enter(PhaseOp2PubKey)
			q, err := r.extractPeer(msg.Get("Cert"), r.peerID)
			if err != nil {
				return nil, false, err
			}
			r.qA.set(q)
		}
		r.suite.enter(PhaseOp4)
		if err := r.verifyResp("A->B", msg.Get("Resp"), r.qA.point, r.peerXG, r.xg); err != nil {
			return nil, false, err
		}
		out := WireMessage{From: RoleB, Label: "B2", Field: []Field{{"ACK", []byte{0x06}}}}
		r.state = 2
		r.done = true
		enc, err := EncodeSTSMessage(out)
		return enc, true, err
	}
	return nil, false, fmt.Errorf("%w: %s in state %d", ErrHandshakeState, msg.Label, r.state)
}
