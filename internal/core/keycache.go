package core

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
)

// KeyCache memoizes the per-peer public-key work of repeated session
// establishments: the ECQV public-key extraction (one ScalarMult + Add
// per certificate, on crypto/elliptic for P-256 and on fp for P-224
// and P-192) and the verification key, which on P-224 and P-192
// carries the precomputed odd-multiples table that ECDSA verification
// multiplies against. A device that re-keys against the same static
// peer — the fleet steady state — pays the extraction and the table
// build once per peer instead of once per handshake. Only keys that
// carry a table go through the fleet-wide second level
// (SharedTableCache); P-256 verifies on crypto/ecdsa without one, so
// its keys are built and cached here alone.
//
// The cache holds derived public data only (no secrets) and is safe
// for concurrent use. Extraction entries are keyed by SHA-256 over the
// certificate's exact bytes and the CA key, so a re-issued certificate
// or a different trust anchor never aliases a stale entry, and a
// handshake engine looks a certificate up as it arrived, before
// decoding it: a hit skips ecqv.Decode and re-checks only the header
// bytes the relying-party policy reads (see ExtractEncoded).
//
// Note the hardware timing model is unaffected: the suite records the
// same primitive counts whether or not the host-side cache hits,
// because the modelled embedded device of the paper performs the full
// computation.
type KeyCache struct {
	mu        sync.RWMutex
	extracted map[[32]byte]ec.Point // by certKey
	verifiers map[[32]byte]*ecdsa.PublicKey

	// shared is the second cache level for verifier tables: a local
	// miss on a curve with tables consults it before building, so
	// fleet-static keys (CA, gateway, wave initiator) are built once
	// per process instead of once per party. Never nil.
	shared *SharedTableCache

	hits       atomic.Uint64
	misses     atomic.Uint64
	sharedHits atomic.Uint64
}

// keyCacheMaxEntries bounds each map; beyond it the map is reset
// (simplest possible eviction). A gateway talking to a whole fleet
// stays far below the bound; only certificate-churn storms hit it.
const keyCacheMaxEntries = 4096

// NewKeyCache returns an empty cache backed by the process-global
// SharedTables.
func NewKeyCache() *KeyCache { return NewKeyCacheWithShared(sharedTables) }

// NewKeyCacheWithShared returns an empty cache backed by an explicit
// shared table level (tests isolate sharing behaviour this way). A nil
// stc gets a private, empty level.
func NewKeyCacheWithShared(stc *SharedTableCache) *KeyCache {
	if stc == nil {
		stc = NewSharedTableCache()
	}
	return &KeyCache{
		extracted: make(map[[32]byte]ec.Point),
		verifiers: make(map[[32]byte]*ecdsa.PublicKey),
		shared:    stc,
	}
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Hits   int // lookups served from the local cache
	Misses int // lookups that had to fill (from the shared level or a build)

	// SharedHits counts the subset of Misses that adopted a table from
	// the fleet-global SharedTableCache instead of building one.
	SharedHits int

	// WaveBatches and WaveItems are always 0: they counted the rounds
	// and items of the batch verifier, which was removed because it
	// only ever formed batches of one. They remain for readers of
	// this struct and go with the next change to those readers.
	WaveBatches int
	WaveItems   int
}

// Stats returns the hit/miss counters.
func (kc *KeyCache) Stats() CacheStats {
	return CacheStats{
		Hits:       int(kc.hits.Load()),
		Misses:     int(kc.misses.Load()),
		SharedHits: int(kc.sharedHits.Load()),
	}
}

// certKey binds an extraction entry to the exact certificate bytes
// and the CA public key, compressed on curve c. It allocates nothing
// for certificates up to a P-256 certificate's size.
func certKey(certBytes []byte, c *ec.Curve, caPub ec.Point) [32]byte {
	var buf [160]byte
	return sha256.Sum256(c.AppendCompressed(append(buf[:0], certBytes...), caPub))
}

// pointFingerprint keys a verifier table by curve and point.
func pointFingerprint(c *ec.Curve, q ec.Point) [32]byte {
	h := sha256.New()
	h.Write([]byte(c.Name))
	h.Write(c.EncodeCompressed(q))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ExtractPublicKey performs (or recalls) the paper's equation (1):
// Q_U = H(Cert_U)·P_U + Q_CA. It looks the certificate up by its
// encoding, so it shares entries with ExtractEncoded.
func (kc *KeyCache) ExtractPublicKey(cert *ecqv.Certificate, caPub ec.Point) (ec.Point, error) {
	if !cert.Curve.IsOnCurve(caPub) {
		// No entry can exist, and the key would not encode on
		// cert.Curve: let the extraction report the error.
		return ecqv.ExtractPublicKey(cert, caPub)
	}
	key := certKey(cert.Encode(), cert.Curve, caPub)
	if q, ok := kc.lookup(key); ok {
		kc.hits.Add(1)
		return q, nil
	}
	return kc.extract(key, cert, caPub)
}

// ExtractEncoded is ExtractPublicKey for a certificate as a relying
// party on curve c received it: certBytes must decode, name subject
// and permit signatures (the handshake engines' policy), and Q is
// extracted under caPub. The exact bytes are looked up before
// anything is decoded; warm reports a hit, which re-checks only the
// subject and usage header bytes, since bytes that were cached have
// decoded before. A rejected certificate counts neither a hit nor a
// miss.
func (kc *KeyCache) ExtractEncoded(certBytes []byte, subject ecqv.ID, c *ec.Curve, caPub ec.Point) (q ec.Point, warm bool, err error) {
	return newSuite(c, nil, nil, kc).extractEncoded(certBytes, subject, caPub)
}

// lookup returns a copy of the key cached under key, counting
// nothing.
func (kc *KeyCache) lookup(key [32]byte) (ec.Point, bool) {
	kc.mu.RLock()
	q, ok := kc.extracted[key]
	kc.mu.RUnlock()
	if !ok {
		return ec.Point{}, false
	}
	return q.Clone(), true
}

// extract counts a miss, extracts Q from the decoded certificate and
// caches it under key.
func (kc *KeyCache) extract(key [32]byte, cert *ecqv.Certificate, caPub ec.Point) (ec.Point, error) {
	kc.misses.Add(1)
	q, err := ecqv.ExtractPublicKey(cert, caPub)
	if err != nil {
		return ec.Point{}, err
	}
	kc.mu.Lock()
	if len(kc.extracted) >= keyCacheMaxEntries {
		kc.extracted = make(map[[32]byte]ec.Point)
	}
	kc.extracted[key] = q.Clone()
	kc.mu.Unlock()
	return q, nil
}

// Verifier returns an ECDSA verification key for q, building and
// caching it on first use: on P-224 and P-192 precomputed
// (ecdsa.PublicKey.Precompute: the odd-multiples table) and shared
// fleet-wide through the SharedTableCache, on P-256 a plain key cached
// here only. The returned key is shared and must be treated as
// immutable.
func (kc *KeyCache) Verifier(c *ec.Curve, q ec.Point) *ecdsa.PublicKey {
	fp := pointFingerprint(c, q)
	kc.mu.RLock()
	pub, ok := kc.verifiers[fp]
	kc.mu.RUnlock()
	if ok {
		kc.hits.Add(1)
		return pub
	}
	kc.misses.Add(1)
	// Second level, for keys that carry a table only: another party
	// may have built it already (the CA and wave-initiator keys are
	// identical fleet-wide). A table-less key is cheaper to wrap than
	// to publish.
	if c.StdlibCurve() != nil {
		pub = &ecdsa.PublicKey{Curve: c, Q: q.Clone()}
	} else if shared, ok := kc.shared.Lookup(fp); ok {
		kc.sharedHits.Add(1)
		pub = shared
	} else {
		pub = (&ecdsa.PublicKey{Curve: c, Q: q.Clone()}).Precompute()
		// Publish for the rest of the fleet; adopt the winner if
		// another builder got there first.
		pub = kc.shared.Publish(fp, pub)
	}
	kc.mu.Lock()
	if len(kc.verifiers) >= keyCacheMaxEntries {
		kc.verifiers = make(map[[32]byte]*ecdsa.PublicKey)
	}
	// Keep the first stored instance so concurrent fillers converge on
	// one shared table.
	if prev, ok := kc.verifiers[fp]; ok {
		pub = prev
	} else {
		kc.verifiers[fp] = pub
	}
	kc.mu.Unlock()
	return pub
}
