package ecqv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/ec"
)

// Certificate is a minimal ECQV implicit certificate. The encoding is
// the fixed-layout "minimal certificate encoding" of SEC 4 §C, sized so
// that a P-256 certificate is exactly 101 bytes — the value the paper's
// Table II charges per transmitted certificate.
//
// Layout (big-endian):
//
//	offset  size  field
//	0       1     version
//	1       1     curve code (1 = P-256, 2 = P-224, 3 = P-192)
//	2       1     key usage flags
//	3       1     reserved (zero)
//	4       8     serial number
//	12      16    subject ID
//	28      16    issuer ID
//	44      8     validFrom (unix seconds)
//	52      8     validTo (unix seconds)
//	60      8     extensions (profile-defined, zero here)
//	68      33    public-key reconstruction point (compressed)  [P-256]
//
// Total: 68 + (ByteLen+1) bytes = 101 on P-256.
type Certificate struct {
	Curve     *ec.Curve
	Version   byte
	KeyUsage  KeyUsage
	Serial    uint64
	SubjectID ID
	IssuerID  ID
	ValidFrom int64 // unix seconds
	ValidTo   int64 // unix seconds
	Ext       [8]byte
	PubRecon  ec.Point
}

// CertVersion is the current certificate format version.
const CertVersion = 1

// certHeaderSize is the fixed portion before the reconstruction point.
const certHeaderSize = 68

// EncodedSize returns the certificate wire size for a curve:
// 101 bytes on P-256.
func EncodedSize(curve *ec.Curve) int {
	return certHeaderSize + curve.CompressedPointSize()
}

func curveCode(c *ec.Curve) (byte, error) {
	switch c.Name {
	case "secp256r1":
		return 1, nil
	case "secp224r1":
		return 2, nil
	case "secp192r1":
		return 3, nil
	}
	return 0, fmt.Errorf("ecqv: no curve code for %s", c.Name)
}

func curveFromCode(code byte) (*ec.Curve, error) {
	switch code {
	case 1:
		return ec.P256(), nil
	case 2:
		return ec.P224(), nil
	case 3:
		return ec.P192(), nil
	}
	return nil, fmt.Errorf("ecqv: unknown curve code %d", code)
}

// Encode serializes the certificate into its canonical minimal form.
// The result of Encode is also the exact input of HashToScalar, so any
// bit flip changes the reconstructed keys.
func (cert *Certificate) Encode() []byte {
	code, err := curveCode(cert.Curve)
	if err != nil {
		panic(err) // programming error: certificate built on unknown curve
	}
	out := make([]byte, EncodedSize(cert.Curve))
	out[0] = cert.Version
	out[1] = code
	out[2] = byte(cert.KeyUsage)
	out[3] = 0
	binary.BigEndian.PutUint64(out[4:12], cert.Serial)
	copy(out[12:28], cert.SubjectID[:])
	copy(out[28:44], cert.IssuerID[:])
	binary.BigEndian.PutUint64(out[44:52], uint64(cert.ValidFrom))
	binary.BigEndian.PutUint64(out[52:60], uint64(cert.ValidTo))
	copy(out[60:68], cert.Ext[:])
	copy(out[certHeaderSize:], cert.Curve.EncodeCompressed(cert.PubRecon))
	return out
}

// ErrBadCertificate is wrapped by all decode failures.
var ErrBadCertificate = errors.New("ecqv: malformed certificate")

// Decode parses a canonical certificate encoding. The expected curve is
// taken from the embedded curve code; decode fails on unknown codes,
// length mismatch, version mismatch or an invalid reconstruction point.
func Decode(data []byte) (*Certificate, error) {
	if len(data) < certHeaderSize+1 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadCertificate, len(data))
	}
	if data[0] != CertVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadCertificate, data[0])
	}
	curve, err := curveFromCode(data[1])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	if len(data) != EncodedSize(curve) {
		return nil, fmt.Errorf("%w: length %d, want %d for %s",
			ErrBadCertificate, len(data), EncodedSize(curve), curve.Name)
	}
	if data[3] != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved byte", ErrBadCertificate)
	}
	cert := &Certificate{
		Curve:    curve,
		Version:  data[0],
		KeyUsage: KeyUsage(data[2]),
		Serial:   binary.BigEndian.Uint64(data[4:12]),
	}
	copy(cert.SubjectID[:], data[12:28])
	copy(cert.IssuerID[:], data[28:44])
	cert.ValidFrom = int64(binary.BigEndian.Uint64(data[44:52]))
	cert.ValidTo = int64(binary.BigEndian.Uint64(data[52:60]))
	copy(cert.Ext[:], data[60:68])

	p, err := curve.DecodePoint(data[certHeaderSize:])
	if err != nil {
		return nil, fmt.Errorf("%w: reconstruction point: %v", ErrBadCertificate, err)
	}
	if p.IsInfinity() {
		return nil, fmt.Errorf("%w: infinity reconstruction point", ErrBadCertificate)
	}
	cert.PubRecon = p
	return cert, nil
}

// PeekHeader reads the subject ID and key-usage flags straight from a
// certificate encoding, without decoding the reconstruction point. ok
// is false when data is shorter than a header or carries another
// version. It checks nothing else, so it is meaningful only for bytes
// that Decode has accepted before: a relying party's cache keyed on
// those exact bytes re-applies its policy this way.
func PeekHeader(data []byte) (subject ID, usage KeyUsage, ok bool) {
	if len(data) < certHeaderSize || data[0] != CertVersion {
		return ID{}, 0, false
	}
	copy(subject[:], data[12:28])
	return subject, KeyUsage(data[2]), true
}

// ValidAt reports whether the certificate's validity window covers t.
func (cert *Certificate) ValidAt(t time.Time) bool {
	u := t.Unix()
	return u >= cert.ValidFrom && u <= cert.ValidTo
}

// PermitsUsage reports whether all requested usage flags are granted.
func (cert *Certificate) PermitsUsage(u KeyUsage) bool {
	return cert.KeyUsage&u == u
}

// Equal reports byte-level certificate equality.
func (cert *Certificate) Equal(other *Certificate) bool {
	if cert == nil || other == nil {
		return cert == other
	}
	if cert.Curve != other.Curve {
		return false
	}
	a := cert.Encode()
	b := other.Encode()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (cert *Certificate) String() string {
	return fmt.Sprintf("ECQV{%s serial=%d subject=%s issuer=%s}",
		cert.Curve.Name, cert.Serial, cert.SubjectID, cert.IssuerID)
}
