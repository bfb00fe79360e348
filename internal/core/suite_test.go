package core

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/ec"
)

// newTestSuite builds a suite with a fresh trace for white-box tests.
func newTestSuite(seed int64) (*suite, *Trace) {
	trace := &Trace{}
	return newSuite(ec.P256(), trace.meterFor(RoleA), newDetRand(seed), nil), trace
}

func TestSealRespInvolution(t *testing.T) {
	s, _ := newTestSuite(1)
	enc := make([]byte, 16)
	mac := make([]byte, 32)
	for i := range mac {
		mac[i] = byte(i)
	}
	dsign := make([]byte, 64)
	for i := range dsign {
		dsign[i] = byte(i * 3)
	}
	sealed, err := s.ctrEncrypt(enc, mac, "B->A", dsign)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != len(dsign) {
		t.Fatalf("Resp grew: %d -> %d (Table II charges 64 B)", len(dsign), len(sealed))
	}
	if bytes.Equal(sealed, dsign) {
		t.Fatal("Resp encryption is the identity")
	}
	opened, err := s.ctrEncrypt(enc, mac, "B->A", sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened, dsign) {
		t.Fatal("Resp encryption is not an involution")
	}
}

func TestSealRespDirectionSeparation(t *testing.T) {
	// The two Resp messages of one session must use different
	// keystream (A→B vs B→A), or XORing them would leak the signature
	// XOR.
	s, _ := newTestSuite(2)
	enc := make([]byte, 16)
	mac := make([]byte, 32)
	zero := make([]byte, 64)
	ab, _ := s.ctrEncrypt(enc, mac, "A->B", zero)
	ba, _ := s.ctrEncrypt(enc, mac, "B->A", zero)
	if bytes.Equal(ab, ba) {
		t.Fatal("directions share keystream")
	}
}

func TestSealRespKeySeparation(t *testing.T) {
	// Different MAC keys (i.e. different sessions) must give different
	// keystream even with the same enc key.
	s, _ := newTestSuite(3)
	enc := make([]byte, 16)
	mac1 := make([]byte, 32)
	mac2 := make([]byte, 32)
	mac2[0] = 1
	zero := make([]byte, 64)
	c1, _ := s.ctrEncrypt(enc, mac1, "A->B", zero)
	c2, _ := s.ctrEncrypt(enc, mac2, "A->B", zero)
	if bytes.Equal(c1, c2) {
		t.Fatal("sessions share keystream")
	}
}

func TestCachedCombinedDHEqualsStaticDH(t *testing.T) {
	// SCIANC's single-multiplication agreement must equal the plain
	// static DH: (d_A·e_B)·P_B + d_A·Q_CA = d_A·Q_B.
	net, err := NewNetwork(ec.P256(), newDetRand(4))
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := net.Pair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestSuite(5)
	curve := ec.P256()
	key, err := a.secretKey()
	if err != nil {
		t.Fatal(err)
	}

	got, err := s.cachedCombinedDH(key, b.Cert, a.CAPub)
	if err != nil {
		t.Fatal(err)
	}

	// The device's combined formula, evaluated on the variable-time
	// public path (test only).
	ke := new(big.Int).Mul(a.Priv, b.Cert.HashToScalar())
	combined := curve.Add(curve.ScalarMult(b.Cert.PubRecon, ke), curve.ScalarMult(a.CAPub, a.Priv))
	if !bytes.Equal(got, combined.X.FillBytes(make([]byte, curve.ByteLen()))) {
		t.Fatal("combined DH disagrees with (d·e)·P + d·Q_CA")
	}

	// Plain path: extract Q_B then multiply.
	qB, err := s.extractPublicKey(b.Cert, a.CAPub)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.dh(key, qB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("combined DH disagrees with extract-then-multiply")
	}
}

func TestSuiteMeterCounts(t *testing.T) {
	// The trace must record exactly what ran.
	s, trace := newTestSuite(6)
	if _, _, err := s.ephemeral(); err != nil {
		t.Fatal(err)
	}
	s.mac(make([]byte, 32), []byte("abc"), []byte("de"))
	s.hash([]byte("12345678"))

	agg := trace.Aggregate()
	counts := agg.PhaseCounts(RoleA, PhaseOp1)
	if counts[PrimECBaseMult] != 1 {
		t.Errorf("base mults = %d", counts[PrimECBaseMult])
	}
	if counts[PrimRandScalar] != 1 {
		t.Errorf("rand scalars = %d", counts[PrimRandScalar])
	}
	if counts[PrimMACBytes] != 5 {
		t.Errorf("mac bytes = %d, want 5", counts[PrimMACBytes])
	}
	if counts[PrimHashBytes] != 8 {
		t.Errorf("hash bytes = %d, want 8", counts[PrimHashBytes])
	}
}

func TestPhaseBaseFolding(t *testing.T) {
	if PhaseOp2Premaster.Base() != PhaseOp2 || PhaseOp2PubKey.Base() != PhaseOp2 {
		t.Error("sub-phases do not fold to Op2")
	}
	for _, ph := range []Phase{PhaseOp1, PhaseOp2, PhaseOp3, PhaseOp4} {
		if ph.Base() != ph {
			t.Errorf("%s folds to %s", ph, ph.Base())
		}
	}
	if len(RawPhases()) != 6 {
		t.Errorf("raw phases = %d", len(RawPhases()))
	}
}

func TestPrimitiveStrings(t *testing.T) {
	for p := PrimECBaseMult; p <= PrimRandBytes; p++ {
		if s := p.String(); s == "" || s[0] == 'p' && len(s) > 9 && s[:9] == "primitive" {
			t.Errorf("primitive %d has no name", int(p))
		}
	}
	if Primitive(999).String() != "primitive(999)" {
		t.Error("unknown primitive string")
	}
}
