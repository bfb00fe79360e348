package main

import (
	"fmt"
	"io"
	"math/big"
	"time"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ec/fp"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
)

// ladderReps is how many timed repetitions each rung takes; a rung
// reports their median.
const ladderReps = 31

// Sinks that keep the compiler from discarding timed results.
var (
	sinkElem  fp.Element
	sinkPoint ec.Point
	sinkBool  bool
	sinkAny   any
)

// ladder is the primitive ladder of a traced run, timed on the
// workload's own keys: field ops in ns, everything above in µs.
type ladder struct {
	fpMul, fpSqr, fpInv                                      float64
	scalarMult, scalarBaseMult, combinedMult, multTableBuild float64
	sign, verify                                             float64
	issue, reconstruct, extract                              float64
}

// timeRung returns the median per-call time of fn in unit, over
// ladderReps repetitions of batch calls each.
func timeRung(batch int, unit time.Duration, fn func()) float64 {
	xs := make([]float64, ladderReps)
	for r := range xs {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		xs[r] = float64(time.Since(t0)) / float64(batch) / float64(unit)
	}
	return median(xs)
}

// runLadder times every primitive rung. party supplies the private
// key, peer the certificate whose key the point ops work on, and net
// the CA that issues during the ecqv rungs.
func runLadder(net *core.Network, party, peer *core.Party, seed uint64) (ladder, error) {
	var l ladder
	curve := party.Curve
	rng := detrand.NewReader(detrand.DeriveSeed(seed, []byte("layerbench/ladder")))
	q, err := ecqv.ExtractPublicKey(peer.Cert, party.CAPub)
	if err != nil {
		return l, fmt.Errorf("ladder: extract: %w", err)
	}

	f, err := fp.New(curve.P)
	if err != nil {
		return l, fmt.Errorf("ladder: field: %w", err)
	}
	var x, y fp.Element
	f.FromBig(&x, q.X)
	f.FromBig(&y, q.Y)
	const fieldBatch = 2000
	l.fpMul = timeRung(fieldBatch, time.Nanosecond, func() { f.Mul(&x, &x, &y) })
	l.fpSqr = timeRung(fieldBatch, time.Nanosecond, func() { f.Sqr(&x, &x) })
	l.fpInv = timeRung(fieldBatch/100, time.Nanosecond, func() { f.Inv(&x, &x) })
	sinkElem = x

	k, err := curve.RandomScalar(rng)
	if err != nil {
		return l, err
	}
	u1, err := curve.RandomScalar(rng)
	if err != nil {
		return l, err
	}
	l.scalarMult = timeRung(1, time.Microsecond, func() { sinkPoint = curve.ScalarMult(q, k) })
	l.scalarBaseMult = timeRung(1, time.Microsecond, func() { sinkPoint = curve.ScalarBaseMult(k) })
	l.combinedMult = timeRung(1, time.Microsecond, func() { sinkPoint = curve.CombinedMult(q, u1, k) })
	l.multTableBuild = timeRung(1, time.Microsecond, func() { sinkAny = curve.NewMultTable(q) })

	priv, err := ecdsa.NewPrivateKey(curve, party.Priv)
	if err != nil {
		return l, fmt.Errorf("ladder: key: %w", err)
	}
	msg := []byte("layerbench ladder message")
	sig, err := priv.Sign(msg)
	if err != nil {
		return l, err
	}
	l.sign = timeRung(1, time.Microsecond, func() { sig, err = priv.Sign(msg) })
	if err != nil {
		return l, err
	}
	pub := priv.Public().Precompute()
	l.verify = timeRung(1, time.Microsecond, func() { sinkBool = pub.Verify(msg, sig) })
	if !sinkBool {
		return l, fmt.Errorf("ladder: signature does not verify")
	}

	return l, ladderECQV(&l, net, rng, seed)
}

// ladderECQV times issuance, reconstruction and extraction, each on
// fresh requests generated outside the timed calls.
func ladderECQV(l *ladder, net *core.Network, rng io.Reader, seed uint64) error {
	curve := net.Curve
	reqs := make([]ecqv.Request, ladderReps)
	secs := make([]*ecqv.RequestSecret, ladderReps)
	for i := range reqs {
		id := ecqv.NewID(fmt.Sprintf("ladder-%08x", idTag(seed)+uint32(i)))
		var err error
		if reqs[i], secs[i], err = ecqv.NewRequest(curve, id, rng); err != nil {
			return fmt.Errorf("ladder: request: %w", err)
		}
	}
	from := time.Unix(1700000000, 0)
	params := ecqv.IssueParams{
		ValidFrom: from,
		ValidTo:   from.Add(24 * time.Hour),
		KeyUsage:  ecqv.UsageKeyAgreement | ecqv.UsageSignature,
	}
	resps := make([]*ecqv.Response, ladderReps)
	var err error
	i := 0
	l.issue = timeRung(1, time.Microsecond, func() {
		if err == nil {
			resps[i], err = net.CA.Issue(reqs[i], params)
		}
		i++
	})
	if err != nil {
		return fmt.Errorf("ladder: issue: %w", err)
	}
	caPub := net.CA.PublicKey()
	var priv *big.Int
	i = 0
	l.reconstruct = timeRung(1, time.Microsecond, func() {
		if err == nil {
			priv, _, err = ecqv.ReconstructPrivateKey(secs[i], resps[i], caPub)
		}
		i++
	})
	if err != nil {
		return fmt.Errorf("ladder: reconstruct: %w", err)
	}
	sinkAny = priv
	i = 0
	l.extract = timeRung(1, time.Microsecond, func() {
		if err == nil {
			sinkPoint, err = ecqv.ExtractPublicKey(resps[i].Cert, caPub)
		}
		i++
	})
	if err != nil {
		return fmt.Errorf("ladder: extract: %w", err)
	}
	return nil
}
