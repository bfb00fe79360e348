package ecqv_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecqv"
)

// goldenParty provisions ecu-00 exactly as the scenario engine does
// for the golden trace's point (seed 42, drop 0.05): its certificate
// seeds the committed corpus under testdata/fuzz/FuzzCertificateDecode.
func goldenParty(tb testing.TB) *core.Party {
	tb.Helper()
	seed := detrand.DeriveSeed(42, []byte("provision"), math.Float64bits(0.05))
	net, err := core.NewNetwork(ec.P256(), detrand.NewReader(seed))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := net.Provision("scenario-manager"); err != nil {
		tb.Fatal(err)
	}
	p, err := net.Provision("ecu-00")
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// coldExtract is the relying party's decode-then-extract path, built
// from ecqv alone: decode, require the subject and signature usage,
// extract.
func coldExtract(b []byte, subject ecqv.ID, caPub ec.Point) (ec.Point, error) {
	cert, err := ecqv.Decode(b)
	if err != nil {
		return ec.Point{}, err
	}
	if cert.SubjectID != subject || !cert.PermitsUsage(ecqv.UsageSignature) {
		return ec.Point{}, ecqv.ErrBadCertificate
	}
	return ecqv.ExtractPublicKey(cert, caPub)
}

// FuzzCertificateDecode feeds arbitrary bytes to the certificate
// decoder and to a handshake's certificate lookup. It checks that
// Decode never panics, that every accepted input round-trips
// (Encode(Decode(b)) == b, so the bytes a KeyCache is keyed on are
// the canonical encoding), and that with the honest certificate
// cached, an input is served warm, without decoding, only when the
// cold path accepts it with the same key. Any accepted input must
// also extract the cold path's key.
func FuzzCertificateDecode(f *testing.F) {
	p := goldenParty(f)
	honest := p.Cert.Encode()
	f.Add(honest)
	f.Fuzz(func(t *testing.T, b []byte) {
		if cert, err := ecqv.Decode(b); err == nil {
			if enc := cert.Encode(); !bytes.Equal(enc, b) {
				t.Fatalf("accepted input does not round-trip:\n  in % x\n out % x", b, enc)
			}
		}

		kc := core.NewKeyCache()
		if _, warm, err := kc.ExtractEncoded(honest, p.ID, p.Curve, p.CAPub); err != nil || warm {
			t.Fatalf("honest certificate: warm=%v err=%v", warm, err)
		}
		q, warm, err := kc.ExtractEncoded(b, p.ID, p.Curve, p.CAPub)
		coldQ, coldErr := coldExtract(b, p.ID, p.CAPub)
		if warm && coldErr != nil {
			t.Fatalf("served warm, but the cold path rejects it: %v", coldErr)
		}
		if (err == nil) != (coldErr == nil) {
			t.Fatalf("cache path err=%v, cold path err=%v", err, coldErr)
		}
		if err == nil && !q.Equal(coldQ) {
			t.Fatalf("cache path (warm=%v) extracted another key than the cold path", warm)
		}
	})
}
