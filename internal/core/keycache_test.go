package core

import (
	"crypto/sha256"
	"math/big"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
)

func newTestPair(t *testing.T, seed int64) (*Network, *Party, *Party) {
	t.Helper()
	net, err := NewNetwork(ec.P256(), newDetRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := net.Pair("alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	return net, a, b
}

func TestKeyCacheExtract(t *testing.T) {
	_, a, b := newTestPair(t, 400)
	kc := NewKeyCache()

	want, err := ecqv.ExtractPublicKey(b.Cert, a.CAPub)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := kc.ExtractPublicKey(b.Cert, a.CAPub)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("cached extraction diverged on call %d", i)
		}
	}
	if st := kc.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss / 2 hits", st)
	}

	// A different trust anchor must not alias the cached entry.
	otherCA := a.Curve.ScalarBaseMult(randInt(t))
	if _, err := kc.ExtractPublicKey(b.Cert, otherCA); err != nil {
		t.Fatal(err)
	}
	if st := kc.Stats(); st.Misses != 2 {
		t.Fatalf("different CA key served from cache: %+v", st)
	}
}

func randInt(t *testing.T) *big.Int {
	t.Helper()
	k, err := ec.P256().RandomScalar(newDetRand(77))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyCacheVerifierShared(t *testing.T) {
	_, a, b := newTestPair(t, 401)
	kc := NewKeyCache()
	q, err := ecqv.ExtractPublicKey(b.Cert, a.CAPub)
	if err != nil {
		t.Fatal(err)
	}
	p1 := kc.Verifier(a.Curve, q)
	p2 := kc.Verifier(a.Curve, q)
	if p1 != p2 {
		t.Fatal("verifier not shared across lookups")
	}
	if !p1.Q.Equal(q) {
		t.Fatal("verifier wraps the wrong point")
	}
}

// TestKeyCacheTablelessSkipsShared: P-256 keys carry no table, so
// their verifiers never touch the shared level, while P-224 keys
// through the same level are still published by one cache and adopted
// by the next.
func TestKeyCacheTablelessSkipsShared(t *testing.T) {
	_, a, b := newTestPair(t, 406)
	stc := NewSharedTableCache()
	kc1 := NewKeyCacheWithShared(stc)
	kc2 := NewKeyCacheWithShared(stc)
	for _, q := range []ec.Point{a.CAPub, b.Cert.PubRecon} {
		p1, p2 := kc1.Verifier(a.Curve, q), kc2.Verifier(a.Curve, q)
		if !p1.Q.Equal(q) || !p2.Q.Equal(q) {
			t.Fatal("P-256 verifier wraps the wrong point")
		}
		if kc1.Verifier(a.Curve, q) != p1 {
			t.Fatal("P-256 verifier not cached locally")
		}
	}
	if st := stc.Stats(); st != (SharedTableStats{}) {
		t.Fatalf("P-256 verifiers reached the shared level: %+v", st)
	}
	if st := kc1.Stats(); st.Misses != 2 || st.Hits != 2 || st.SharedHits != 0 {
		t.Fatalf("P-256 local stats = %+v, want 2 misses / 2 hits / 0 shared hits", st)
	}

	c, q := ec.P224(), p224Point(t)
	built, adopted := kc1.Verifier(c, q), kc2.Verifier(c, q)
	if built != adopted {
		t.Fatal("P-224 verifier not adopted from the shared level")
	}
	if st := stc.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("P-224 shared stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestKeyCacheConcurrent(t *testing.T) {
	_, a, b := newTestPair(t, 402)
	kc := NewKeyCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := kc.ExtractPublicKey(b.Cert, a.CAPub); err != nil {
					t.Error(err)
					return
				}
				kc.Verifier(a.Curve, a.CAPub)
			}
		}()
	}
	wg.Wait()
	st := kc.Stats()
	if st.Hits+st.Misses != 400 {
		t.Fatalf("stats don't add up: %+v", st)
	}
}

// TestPartyCacheAcrossHandshakes proves that repeated protocol runs
// between the same parties hit the per-party cache — the fleet rekey
// steady state — and still agree on session keys.
func TestPartyCacheAcrossHandshakes(t *testing.T) {
	_, a, b := newTestPair(t, 403)
	p := NewSTS(OptII)
	for i := 0; i < 3; i++ {
		res, err := p.Run(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.SessionKey(); err != nil {
			t.Fatal(err)
		}
	}
	if st := a.KeyCache().Stats(); st.Hits == 0 {
		t.Fatalf("initiator cache never hit across repeated handshakes: %+v", st)
	}
	if st := b.KeyCache().Stats(); st.Hits == 0 {
		t.Fatalf("responder cache never hit across repeated handshakes: %+v", st)
	}
}

// TestCacheDoesNotPerturbTrace proves the hardware-model input is
// identical whether the host cache is cold or warm: the modelled
// device always executes the full computation.
func TestCacheDoesNotPerturbTrace(t *testing.T) {
	p := NewSTS(OptNone)
	_, a1, b1 := newTestPair(t, 404)
	cold, err := p.Run(a1, b1)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p.Run(a1, b1) // same parties: cache warm
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Trace.Events, warm.Trace.Events) {
		t.Fatal("trace event streams differ between cold and warm cache runs")
	}
}

// verifyAllocBudget is the ceiling on heap allocations of one P-256
// verification against a KeyCache-held key, the handshake's steady
// state. It includes crypto/ecdsa's own allocations (signature and
// point encodings, its bigmod scratch) and is 1.5× the 30 measured on
// Go 1.24, on either EC backend.
const verifyAllocBudget = 45

func TestVerifyAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget needs steady-state measurement")
	}
	c := ec.P256()
	key, err := ecdsa.GenerateKey(c, newDetRand(405))
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("alloc budget"))
	sig, err := key.SignDigest(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	pub := NewKeyCache().Verifier(c, key.Q)
	avg := testing.AllocsPerRun(20, func() {
		if !pub.VerifyDigest(digest[:], sig) {
			t.Fatal("valid signature rejected")
		}
	})
	t.Logf("P-256 VerifyDigest: %.0f allocs/op (budget %d)", avg, verifyAllocBudget)
	if avg > verifyAllocBudget {
		t.Fatalf("P-256 VerifyDigest allocates %.0f/op, budget %d", avg, verifyAllocBudget)
	}
}
