package core

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ec"
	"repro/internal/ecdsa"
)

// The shared-table tests run on P-224: P-256 verifies on crypto/ecdsa
// and its verification keys carry no table.

// p224Point returns a fixed P-224 point.
func p224Point(t *testing.T) ec.Point {
	t.Helper()
	c := ec.P224()
	k, err := c.RandomScalar(newDetRand(78))
	if err != nil {
		t.Fatal(err)
	}
	return c.ScalarBaseMult(k)
}

// TestSharedTableCacheDedup: two parties' key caches backed by one
// shared level build a given verifier table exactly once — the second
// party adopts the first's instance.
func TestSharedTableCacheDedup(t *testing.T) {
	stc := NewSharedTableCache()
	kc1 := NewKeyCacheWithShared(stc)
	kc2 := NewKeyCacheWithShared(stc)
	c := ec.P224()
	q := p224Point(t)

	p1 := kc1.Verifier(c, q)
	p2 := kc2.Verifier(c, q)
	if p1 != p2 {
		t.Fatal("parties did not converge on one shared table instance")
	}
	if st := kc1.Stats(); st.Misses != 1 || st.SharedHits != 0 {
		t.Fatalf("builder stats = %+v, want 1 miss / 0 shared hits", st)
	}
	if st := kc2.Stats(); st.Misses != 1 || st.SharedHits != 1 {
		t.Fatalf("adopter stats = %+v, want 1 miss / 1 shared hit", st)
	}
	if st := stc.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("shared stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	// Steady state: both serve locally, shared level untouched.
	kc1.Verifier(c, q)
	kc2.Verifier(c, q)
	if st := stc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("local hits leaked into the shared level: %+v", st)
	}
}

// TestSharedTableCacheConcurrentPublish: racing builders of the same
// fingerprint converge on a single instance.
func TestSharedTableCacheConcurrentPublish(t *testing.T) {
	stc := NewSharedTableCache()
	c := ec.P224()
	q := p224Point(t)
	fp := pointFingerprint(c, q)

	results := make([]*ecdsa.PublicKey, 16)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pub := (&ecdsa.PublicKey{Curve: c, Q: q.Clone()}).Precompute()
			results[i] = stc.Publish(fp, pub)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("racing publishers did not converge on one instance")
		}
	}
	if st := stc.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestSharedTableCacheBound: the copy-on-write map resets rather than
// growing without bound.
func TestSharedTableCacheBound(t *testing.T) {
	stc := NewSharedTableCache()
	c := ec.P224()
	pub := (&ecdsa.PublicKey{Curve: c, Q: c.Generator()}).Precompute()
	for i := 0; i < sharedTableMaxEntries+10; i++ {
		var fp [32]byte
		h := sha256.Sum256([]byte(fmt.Sprintf("synthetic-%d", i)))
		copy(fp[:], h[:])
		stc.Publish(fp, pub)
	}
	if st := stc.Stats(); st.Entries > sharedTableMaxEntries+1 {
		t.Fatalf("cache grew past its bound: %d entries", st.Entries)
	}
}

// TestKeyCacheVerifyConcurrent: many goroutines verifying through one
// cache's shared verification keys, valid and corrupted signatures
// mixed, all get their own verdicts — on P-256 (crypto/ecdsa) and on
// P-224 (the shared table).
func TestKeyCacheVerifyConcurrent(t *testing.T) {
	const n = 8
	const rounds = 10
	for _, c := range []*ec.Curve{ec.P256(), ec.P224()} {
		kc := NewKeyCacheWithShared(NewSharedTableCache())
		rng := newDetRand(611)
		qs := make([]ec.Point, n)
		msgs := make([][]byte, n)
		sigs := make([]ecdsa.Signature, n)
		for i := range qs {
			key, err := ecdsa.GenerateKey(c, rng)
			if err != nil {
				t.Fatal(err)
			}
			msgs[i] = []byte(fmt.Sprintf("verify msg %d", i))
			if sigs[i], err = key.Sign(msgs[i]); err != nil {
				t.Fatal(err)
			}
			qs[i] = key.Q
		}
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					// Even rounds: valid pair. Odd rounds: the next key's
					// signature — must fail.
					pub := kc.Verifier(c, qs[g])
					if got, want := pub.Verify(msgs[g], sigs[(g+r%2)%n]), r%2 == 0; got != want {
						t.Errorf("%s goroutine %d round %d: verdict %v, want %v", c.Name, g, r, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
