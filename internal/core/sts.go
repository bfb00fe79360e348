package core

import (
	"errors"
	"fmt"

	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
)

// STSOptimization selects the pipelining variant of §IV-C.
type STSOptimization int

const (
	// OptNone is the conventional sequential STS execution
	// (equation (5)).
	OptNone STSOptimization = iota
	// OptI ships the certificate in the initial request so the two
	// parties' Op2 stages (public key + premaster) overlap
	// (equation (7)).
	OptI
	// OptII additionally overlaps the Op3 authentication-response
	// derivation (equation (8)). Failed authentications are then
	// detected only after the overlapped work has been spent — the
	// flexibility trade-off discussed in the paper.
	OptII
)

func (o STSOptimization) String() string {
	switch o {
	case OptI:
		return "opt. I"
	case OptII:
		return "opt. II"
	default:
		return "none"
	}
}

// stsSideEvents is the number of trace events one party records in a
// complete STS handshake, at every optimization level.
const stsSideEvents = 18

// STS is the paper's dynamic key-derivation protocol: Station-to-
// Station ephemeral ECDH, authenticated by ECDSA signatures that are
// verified against ECQV-reconstructed public keys and transported
// encrypted under the freshly derived session key (Fig. 2,
// Algorithms 1 and 2).
type STS struct {
	opt STSOptimization
}

// NewSTS returns the STS protocol with the given optimization level.
// All levels exchange identical data ("the sent data is identical to
// the original protocol, but the message and content order vary
// slightly"); the optimization changes which message carries the
// initiator certificate and how the hardware model schedules phases.
func NewSTS(opt STSOptimization) *STS { return &STS{opt: opt} }

// Name implements Protocol.
func (p *STS) Name() string {
	switch p.opt {
	case OptI:
		return "STS (opt. I)"
	case OptII:
		return "STS (opt. II)"
	default:
		return "STS"
	}
}

// Optimization returns the configured pipelining variant.
func (p *STS) Optimization() STSOptimization { return p.opt }

// Dynamic implements Protocol: STS is the only true DKD in the
// comparison.
func (p *STS) Dynamic() bool { return true }

// Spec implements Protocol with the Table II wire layout.
func (p *STS) Spec() []StepSpec {
	if p.opt == OptNone {
		return []StepSpec{
			{Label: "A1", Fields: []FieldSpec{{"ID", ecqv.IDSize}, {"XG", pointSize}}},
			{Label: "B1", Fields: []FieldSpec{{"ID", ecqv.IDSize}, {"Cert", 101}, {"XG", pointSize}, {"Resp", sigSize}}},
			{Label: "A2", Fields: []FieldSpec{{"Cert", 101}, {"Resp", sigSize}}},
			{Label: "B2", Fields: []FieldSpec{{"ACK", ackSize}}},
		}
	}
	// Optimized variants front-load the certificate; totals unchanged.
	return []StepSpec{
		{Label: "A1", Fields: []FieldSpec{{"ID", ecqv.IDSize}, {"Cert", 101}, {"XG", pointSize}}},
		{Label: "B1", Fields: []FieldSpec{{"ID", ecqv.IDSize}, {"Cert", 101}, {"XG", pointSize}, {"Resp", sigSize}}},
		{Label: "A2", Fields: []FieldSpec{{"Resp", sigSize}}},
		{Label: "B2", Fields: []FieldSpec{{"ACK", ackSize}}},
	}
}

// Run implements Protocol. Message flow (Fig. 2):
//
//	A → B : ID_A, XG_A                    (plus Cert_A when optimized)
//	B → A : ID_B, Cert_B, XG_B, Resp_B
//	A → B : Cert_A, Resp_A                (Resp_A only when optimized)
//	B → A : ACK
//
// with Resp_X = encrypt(KS, sign(Prk_X, XG_X ‖ XG_Y)) per Algorithm 1
// and verification per Algorithm 2.
func (p *STS) Run(a, b *Party) (*Result, error) {
	if err := checkParties(a, b, true, false); err != nil {
		return nil, err
	}
	curve := a.Curve
	trace := newTrace(2 * stsSideEvents)
	sa := newSuite(curve, trace.meterFor(RoleA), a.Rand, a.KeyCache())
	sb := newSuite(curve, trace.meterFor(RoleB), b.Rand, b.KeyCache())
	res := &Result{Protocol: p.Name(), Trace: trace}

	// --- A, Op1: ephemeral request point (equation (2)).
	sa.enter(PhaseOp1)
	xA, xgA, err := sa.ephemeral()
	if err != nil {
		return nil, fmt.Errorf("sts: A ephemeral: %w", err)
	}
	a1 := WireMessage{From: RoleA, Label: "A1"}
	if p.opt == OptNone {
		a1.Field = []Field{
			{"ID", a.ID[:]},
			{"XG", encodePointRaw(curve, xgA)},
		}
	} else {
		// Optimized request: certificate front-loaded (§IV-C).
		a1.Field = []Field{
			{"ID", a.ID[:]},
			{"Cert", a.Cert.Encode()},
			{"XG", encodePointRaw(curve, xgA)},
		}
	}
	res.Transcript = append(res.Transcript, a1)

	// --- B processes A1.
	rxXGA, err := decodePointRaw(curve, a1.Get("XG"))
	if err != nil {
		return nil, fmt.Errorf("sts: B: request point: %w", err)
	}
	sb.enter(PhaseOp1)
	xB, xgB, err := sb.ephemeral()
	if err != nil {
		return nil, fmt.Errorf("sts: B ephemeral: %w", err)
	}

	sb.enter(PhaseOp2Premaster)
	// Premaster KPM = X_B · XG_A (equation (3)); KS = KDF(KPM, salt)
	// (equation (4)) with the session's ephemeral points as salt.
	pmB, err := sb.dh(xB, rxXGA)
	if err != nil {
		return nil, fmt.Errorf("sts: B premaster: %w", err)
	}
	salt := append(encodePointRaw(curve, rxXGA), encodePointRaw(curve, xgB)...)
	encB, macB, err := sb.deriveSessionKeys(pmB, salt)
	if err != nil {
		return nil, err
	}
	// Under the optimized variants B already has Cert_A and completes
	// its full Op2 (public-key derivation) here, overlapping A's Op2.
	var qA ecPointHolder
	if p.opt != OptNone {
		certA, err := ecqv.Decode(a1.Get("Cert"))
		if err != nil {
			return nil, fmt.Errorf("sts: B: peer certificate: %w", err)
		}
		if err := checkCertificate(certA, a.ID); err != nil {
			return nil, fmt.Errorf("sts: B: %w", err)
		}
		sb.enter(PhaseOp2PubKey)
		q, err := sb.extractPublicKey(certA, b.CAPub)
		if err != nil {
			return nil, fmt.Errorf("sts: B: extract Q_A: %w", err)
		}
		qA.set(q)
	}

	// B, Op3: authentication response (Algorithm 1, responder branch:
	// dsign ← sign(Prk_B, XG_B ‖ XG_A)).
	sb.enter(PhaseOp3)
	authB := append(encodePointRaw(curve, xgB), encodePointRaw(curve, rxXGA)...)
	dsignB, err := sb.sign(b.Priv, authB)
	if err != nil {
		return nil, fmt.Errorf("sts: B sign: %w", err)
	}
	respB, err := sb.ctrEncrypt(encB, macB, "B->A", dsignB.EncodeRaw(curve))
	if err != nil {
		return nil, err
	}
	b1 := WireMessage{From: RoleB, Label: "B1", Field: []Field{
		{"ID", b.ID[:]},
		{"Cert", b.Cert.Encode()},
		{"XG", encodePointRaw(curve, xgB)},
		{"Resp", respB},
	}}
	res.Transcript = append(res.Transcript, b1)

	// --- A processes B1: Op2 (derive Q_B, premaster, KS) then Op4
	// (decrypt + verify Resp_B per Algorithm 2).
	rxXGB, err := decodePointRaw(curve, b1.Get("XG"))
	if err != nil {
		return nil, fmt.Errorf("sts: A: response point: %w", err)
	}
	certB, err := ecqv.Decode(b1.Get("Cert"))
	if err != nil {
		return nil, fmt.Errorf("sts: A: peer certificate: %w", err)
	}
	if err := checkCertificate(certB, b.ID); err != nil {
		return nil, fmt.Errorf("sts: A: %w", err)
	}
	sa.enter(PhaseOp2PubKey)
	qB, err := sa.extractPublicKey(certB, a.CAPub)
	if err != nil {
		return nil, fmt.Errorf("sts: A: extract Q_B: %w", err)
	}
	sa.enter(PhaseOp2Premaster)
	pmA, err := sa.dh(xA, rxXGB)
	if err != nil {
		return nil, fmt.Errorf("sts: A premaster: %w", err)
	}
	saltA := append(encodePointRaw(curve, xgA), encodePointRaw(curve, rxXGB)...)
	encA, macA, err := sa.deriveSessionKeys(pmA, saltA)
	if err != nil {
		return nil, err
	}

	sa.enter(PhaseOp4)
	sa.m.record(PrimAESBytes, len(b1.Get("Resp")))
	dsignBraw, err := sa.ctrEncrypt(encA, macA, "B->A", b1.Get("Resp"))
	if err != nil {
		return nil, err
	}
	sigB, err := ecdsa.DecodeRaw(curve, dsignBraw)
	if err != nil {
		return nil, fmt.Errorf("sts: A: responder signature garbled (wrong session key?): %w", err)
	}
	wantAuthB := append(encodePointRaw(curve, rxXGB), encodePointRaw(curve, xgA)...)
	if !sa.verify(qB, wantAuthB, sigB) {
		return nil, errors.New("sts: A: responder authentication failed")
	}

	// A, Op3: initiator authentication response
	// (dsign ← sign(Prk_A, XG_A ‖ XG_B)).
	sa.enter(PhaseOp3)
	authA := append(encodePointRaw(curve, xgA), encodePointRaw(curve, rxXGB)...)
	dsignA, err := sa.sign(a.Priv, authA)
	if err != nil {
		return nil, fmt.Errorf("sts: A sign: %w", err)
	}
	respA, err := sa.ctrEncrypt(encA, macA, "A->B", dsignA.EncodeRaw(curve))
	if err != nil {
		return nil, err
	}
	a2 := WireMessage{From: RoleA, Label: "A2"}
	if p.opt == OptNone {
		a2.Field = []Field{{"Cert", a.Cert.Encode()}, {"Resp", respA}}
	} else {
		a2.Field = []Field{{"Resp", respA}}
	}
	res.Transcript = append(res.Transcript, a2)

	// --- B processes A2: complete Op2 if not yet done, then Op4.
	if p.opt == OptNone {
		certA, err := ecqv.Decode(a2.Get("Cert"))
		if err != nil {
			return nil, fmt.Errorf("sts: B: peer certificate: %w", err)
		}
		if err := checkCertificate(certA, a.ID); err != nil {
			return nil, fmt.Errorf("sts: B: %w", err)
		}
		sb.enter(PhaseOp2PubKey)
		q, err := sb.extractPublicKey(certA, b.CAPub)
		if err != nil {
			return nil, fmt.Errorf("sts: B: extract Q_A: %w", err)
		}
		qA.set(q)
	}
	sb.enter(PhaseOp4)
	sb.m.record(PrimAESBytes, len(a2.Get("Resp")))
	dsignAraw, err := sb.ctrEncrypt(encB, macB, "A->B", a2.Get("Resp"))
	if err != nil {
		return nil, err
	}
	sigA, err := ecdsa.DecodeRaw(curve, dsignAraw)
	if err != nil {
		return nil, fmt.Errorf("sts: B: initiator signature garbled (wrong session key?): %w", err)
	}
	wantAuthA := append(encodePointRaw(curve, rxXGA), encodePointRaw(curve, xgB)...)
	if !sb.verify(qA.point, wantAuthA, sigA) {
		return nil, errors.New("sts: B: initiator authentication failed")
	}

	b2 := WireMessage{From: RoleB, Label: "B2", Field: []Field{{"ACK", []byte{0x06}}}}
	res.Transcript = append(res.Transcript, b2)

	res.KeyA = append(append([]byte(nil), encA...), macA...)
	res.KeyB = append(append([]byte(nil), encB...), macB...)
	return res, nil
}

// ecPointHolder defers the availability of a reconstructed key between
// protocol variants.
type ecPointHolder struct {
	point ec.Point
	ok    bool
}

func (h *ecPointHolder) set(p ec.Point) {
	h.point = p
	h.ok = true
}

// checkCertificate applies the relying-party certificate policy: the
// claimed wire identity must match the certificate subject and the
// certificate must permit signing.
func checkCertificate(cert *ecqv.Certificate, wantSubject ecqv.ID) error {
	return checkPolicy(cert.SubjectID, cert.KeyUsage, wantSubject)
}

// checkPolicy is checkCertificate on the two fields it reads.
func checkPolicy(subject ecqv.ID, usage ecqv.KeyUsage, wantSubject ecqv.ID) error {
	if subject != wantSubject {
		return fmt.Errorf("certificate subject %s does not match peer identity %s",
			subject, wantSubject)
	}
	if usage&ecqv.UsageSignature != ecqv.UsageSignature {
		return errors.New("certificate does not permit signatures")
	}
	return nil
}

// decodePeerCertificate decodes a received certificate and applies
// the relying-party policy to it.
func decodePeerCertificate(certBytes []byte, wantSubject ecqv.ID) (*ecqv.Certificate, error) {
	cert, err := ecqv.Decode(certBytes)
	if err != nil {
		return nil, err
	}
	if err := checkCertificate(cert, wantSubject); err != nil {
		return nil, err
	}
	return cert, nil
}
