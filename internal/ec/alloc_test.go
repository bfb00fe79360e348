package ec_test

import (
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ec"
	"repro/internal/ecqv"
)

// allocBudget is the hard ceiling on heap allocations per scalar
// multiplication on the fp backend — CI fails if the hot path regresses
// into per-digit allocation again. The handful that remain are the
// boundary big.Ints (scalar reduction, output point). The P-256 rows
// hold the operations the standard library serves, up to a whole ECQV
// extraction, to the same ceiling.
const allocBudget = 24

func TestScalarMultAllocBudget(t *testing.T) {
	if !ec.UsesFPBackend() {
		t.Skip("built with -tags ec_purebig: fp backend disabled")
	}
	// The fp rows run on P-224, which the standard library does not
	// serve, so they keep measuring the fp backend.
	c := ec.P224()
	k := new(big.Int).SetInt64(0x1db7_5bb1)
	k.Lsh(k, 200)
	k.Mod(k, c.N)
	q := c.ScalarBaseMult(big.NewInt(0xabc))
	tab := c.NewMultTable(q)

	p256 := ec.P256()
	k256 := new(big.Int).Lsh(k, 30)
	q256 := p256.ScalarBaseMult(big.NewInt(0xabc))
	r256 := p256.ScalarBaseMult(big.NewInt(0xdef))
	cert, caPub := issueCert(t, p256)

	cases := []struct {
		name string
		fn   func()
	}{
		{"P-224/ScalarMult", func() { c.ScalarMult(q, k) }},
		{"P-224/ScalarBaseMult", func() { c.ScalarBaseMult(k) }},
		{"P-224/CombinedMult", func() { c.CombinedMult(q, k, k) }},
		{"P-224/MultTable.ScalarMult", func() { tab.ScalarMult(k) }},
		{"P-224/MultTable.CombinedMult", func() { tab.CombinedMult(k, k) }},
		{"P-256/ScalarMult", func() { p256.ScalarMult(q256, k256) }},
		{"P-256/Add", func() { p256.Add(q256, r256) }},
		{"P-256/ecqv.ExtractPublicKey", func() {
			if _, err := ecqv.ExtractPublicKey(cert, caPub); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		tc.fn() // warm lazy tables outside the measurement
		if got := testing.AllocsPerRun(20, tc.fn); got > allocBudget {
			t.Errorf("%s: %.0f allocs/op, budget %d", tc.name, got, allocBudget)
		}
	}
}

// issueCert issues one ECQV certificate on c from a seeded CA and
// returns it with the CA's public key.
func issueCert(t *testing.T, c *ec.Curve) (*ecqv.Certificate, ec.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ca, err := ecqv.NewCA(c, ecqv.NewID("alloc-ca"), rng)
	if err != nil {
		t.Fatal(err)
	}
	req, _, err := ecqv.NewRequest(c, ecqv.NewID("alloc-dev"), rng)
	if err != nil {
		t.Fatal(err)
	}
	from := time.Unix(1700000000, 0)
	resp, err := ca.Issue(req, ecqv.IssueParams{ValidFrom: from, ValidTo: from.Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Cert, ca.PublicKey()
}
