package fleet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/session"
)

// warmHandshakeAllocBudget bounds one warm OptNone re-key Connect on
// the default EC backend: both engines, the session pair and the
// manager's bookkeeping, with every key cache already holding the
// peer. It is the measured count on Go 1.24. It was 472 while a
// KeyCache hit still decoded the certificate (about 10 allocations a
// side) and the handshake keyed an HMAC or AES block per use.
const warmHandshakeAllocBudget = 402

// TestWarmHandshakeAllocBudget is the host-independent gate on the
// re-key handshake: a warm Manager.Connect stays within a fixed
// allocation count.
func TestWarmHandshakeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget needs steady-state measurement")
	}
	if raceEnabled || !ec.UsesFPBackend() {
		t.Skip("the budget counts the default build; the race detector and the math/big backend add allocations")
	}
	parties := provision(t, 472, "gateway", "node")
	m, err := NewManager(parties[0], core.OptNone, session.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	peer := parties[1]
	if err := m.Connect(peer); err != nil { // fills both key caches
		t.Fatal(err)
	}
	before := parties[0].KeyCache().Stats()
	avg := testing.AllocsPerRun(20, func() {
		if err := m.Connect(peer); err != nil {
			t.Fatal(err)
		}
	})
	if after := parties[0].KeyCache().Stats(); after.Misses != before.Misses {
		t.Fatalf("warm Connect missed the key cache: %+v → %+v", before, after)
	}
	t.Logf("warm OptNone Connect: %.0f allocs/op (budget %d)", avg, warmHandshakeAllocBudget)
	if avg > warmHandshakeAllocBudget {
		t.Fatalf("warm OptNone Connect allocates %.0f/op, budget %d", avg, warmHandshakeAllocBudget)
	}
}
