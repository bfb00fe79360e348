package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ec"
	"repro/internal/ecqv"
)

// TestExtractEncodedWarm checks the byte-keyed extraction entry: the
// first sight of a certificate decodes and misses, every later one is
// served warm with the same key, and ExtractPublicKey on the decoded
// certificate shares the entry.
func TestExtractEncodedWarm(t *testing.T) {
	_, a, b := newTestPair(t, 410)
	want, err := ecqv.ExtractPublicKey(b.Cert, a.CAPub)
	if err != nil {
		t.Fatal(err)
	}
	raw := b.Cert.Encode()
	kc := NewKeyCache()
	for i, wantWarm := range []bool{false, true, true} {
		q, warm, err := kc.ExtractEncoded(raw, b.ID, a.Curve, a.CAPub)
		if err != nil {
			t.Fatal(err)
		}
		if warm != wantWarm || !q.Equal(want) {
			t.Fatalf("call %d: warm=%v (want %v), key match %v", i, warm, wantWarm, q.Equal(want))
		}
	}
	if _, err := kc.ExtractPublicKey(b.Cert, a.CAPub); err != nil {
		t.Fatal(err)
	}
	if st := kc.Stats(); st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("stats = %+v, want 1 miss / 3 hits", st)
	}
}

// TestExtractEncodedRejectsLikeCold feeds a warm cache bytes it holds
// under a policy they fail, and bytes it holds that never decoded: each
// is rejected with the cold path's exact error and counts nothing.
func TestExtractEncodedRejectsLikeCold(t *testing.T) {
	_, a, b := newTestPair(t, 411)
	raw := b.Cert.Encode()

	// A certificate object of another version encodes to bytes that
	// Decode rejects; ExtractPublicKey still caches them.
	v2 := *b.Cert
	v2.Version = ecqv.CertVersion + 1
	noSign := *b.Cert
	noSign.KeyUsage = ecqv.UsageKeyAgreement

	cases := []struct {
		name    string
		cert    *ecqv.Certificate
		subject ecqv.ID
	}{
		{"wrong subject", b.Cert, a.ID},
		{"no signature usage", &noSign, b.ID},
		{"undecodable version", &v2, b.ID},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := tc.cert.Encode()
			_, _, coldErr := NewKeyCache().ExtractEncoded(enc, tc.subject, a.Curve, a.CAPub)
			if coldErr == nil {
				t.Fatal("cold path accepted the certificate")
			}
			kc := NewKeyCache()
			if _, err := kc.ExtractPublicKey(tc.cert, a.CAPub); err != nil {
				t.Fatal(err)
			}
			before := kc.Stats()
			_, warm, err := kc.ExtractEncoded(enc, tc.subject, a.Curve, a.CAPub)
			if warm || err == nil || err.Error() != coldErr.Error() {
				t.Fatalf("warm=%v err=%v, want the cold error %v", warm, err, coldErr)
			}
			if after := kc.Stats(); after != before {
				t.Fatalf("rejection counted: %+v → %+v", before, after)
			}
		})
	}
	if !bytes.Equal(raw, b.Cert.Encode()) {
		t.Fatal("test mutated the party certificate")
	}
}

// TestExtractEncodedForeignCurve sends a P-192 certificate to a P-256
// relying party, as received and decoded: it is rejected with an
// error, never a panic.
func TestExtractEncodedForeignCurve(t *testing.T) {
	_, a, _ := newTestPair(t, 412)
	net, err := NewNetwork(ec.P192(), newDetRand(413))
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Provision("carol")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := a.KeyCache().ExtractEncoded(c.Cert.Encode(), c.ID, a.Curve, a.CAPub); err == nil {
			t.Fatal("P-256 party accepted a P-192 certificate")
		}
		if _, err := a.KeyCache().ExtractPublicKey(c.Cert, a.CAPub); err == nil {
			t.Fatal("a P-256 CA key extracted a P-192 certificate")
		}
	}
}

// TestEngineWarmTraceMatchesCold runs the live engine twice between
// the same parties: the warm handshake records the same trace events
// as the cold one, and the second run only hits the key caches.
func TestEngineWarmTraceMatchesCold(t *testing.T) {
	for _, opt := range []STSOptimization{OptNone, OptII} {
		t.Run(opt.String(), func(t *testing.T) {
			a, b := newPair(t, 414)
			var traces [2][2][]Event
			for run := range traces {
				init, err := NewInitiator(a, opt)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := NewResponder(b, opt)
				if err != nil {
					t.Fatal(err)
				}
				before := [2]CacheStats{a.KeyCache().Stats(), b.KeyCache().Stats()}
				driveHandshake(t, init, resp)
				traces[run] = [2][]Event{init.Trace().Events, resp.Trace().Events}
				if run == 1 {
					for i, kc := range []*KeyCache{a.KeyCache(), b.KeyCache()} {
						if st := kc.Stats(); st.Misses != before[i].Misses || st.Hits <= before[i].Hits {
							t.Fatalf("party %d warm handshake: %+v → %+v", i, before[i], st)
						}
					}
				}
			}
			if !reflect.DeepEqual(traces[0], traces[1]) {
				t.Fatal("warm handshake trace differs from the cold one")
			}
		})
	}
}

// TestRespKnownAnswer pins ctrEncrypt to an independent construction
// from crypto/aes, cipher.NewCTR and crypto/hmac, for both Resp
// directions and a finish label, with one suite alternating between
// two sessions' keys.
func TestRespKnownAnswer(t *testing.T) {
	s, _ := newTestSuite(415)
	keys := [2][2][]byte{}
	for i := range keys {
		enc, mac := make([]byte, 16), make([]byte, 32)
		for j := range enc {
			enc[j] = byte(17*i + j)
		}
		for j := range mac {
			mac[j] = byte(101*i + 3*j)
		}
		keys[i] = [2][]byte{enc, mac}
	}
	for _, n := range []int{0, 1, 15, 16, 17, 64, 100} {
		for _, label := range []string{"A->B", "B->A", "finish|A"} {
			for i, k := range keys {
				data := make([]byte, n)
				for j := range data {
					data[j] = byte(7*j + n)
				}
				got, err := s.ctrEncrypt(k[0], k[1], label, data)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceResp(t, k[0], k[1], label, data); !bytes.Equal(got, want) {
					t.Fatalf("len %d %s keys %d:\n got % x\nwant % x", n, label, i, got, want)
				}
			}
		}
	}
}

func referenceResp(t *testing.T, enc, mac []byte, label string, data []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(enc)
	if err != nil {
		t.Fatal(err)
	}
	m := hmac.New(sha256.New, mac)
	m.Write([]byte("resp-iv|" + label))
	out := make([]byte, len(data))
	cipher.NewCTR(block, m.Sum(nil)[:aes.BlockSize]).XORKeyStream(out, data)
	return out
}

// TestXorCTRCarries checks the counter increment against cipher.NewCTR
// across byte, word and full-block carries.
func TestXorCTRCarries(t *testing.T) {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 5*aes.BlockSize+3)
	for i := range src {
		src[i] = byte(i)
	}
	for _, tail := range []int{1, 4, 8, 12, 16} {
		t.Run(fmt.Sprint(tail), func(t *testing.T) {
			var iv [aes.BlockSize]byte
			for i := aes.BlockSize - tail; i < aes.BlockSize; i++ {
				iv[i] = 0xff
			}
			iv[aes.BlockSize-1] = 0xfd
			want := make([]byte, len(src))
			cipher.NewCTR(block, iv[:]).XORKeyStream(want, src)
			ctr, ks := iv, [aes.BlockSize]byte{}
			got := make([]byte, len(src))
			xorCTR(block, &ctr, &ks, got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("keystream diverges from cipher.NewCTR for IV % x", iv)
			}
		})
	}
}
