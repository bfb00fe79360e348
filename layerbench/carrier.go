package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// maxHops bounds one exchange exactly as the in-process default
// carrier does: STS needs four messages, so eight hops is generous.
const maxHops = 8

// Span names of the engine calls, in exchange order. Each span covers
// the engine call that produces the named message; core.done is the
// initiator consuming B2.
var (
	respSpans = [...]string{"core.B1", "core.B2"}
	initSpans = [...]string{"core.A2", "core.done"}
)

// hopName picks the span name of hop i, with a catch-all for the
// unexpected extra hops an engine variant could take.
func hopName(names [2]string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return "core.extra"
}

// exchangeLog collects every successful exchange's wall time and, in
// traced runs, the exact primitive counts of both engines.
type exchangeLog struct {
	mu     sync.Mutex
	durs   []time.Duration
	ledger *ledger // nil when untraced
}

func (l *exchangeLog) note(d time.Duration, init *core.Initiator, resp *core.Responder) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.durs = append(l.durs, d)
	if l.ledger != nil {
		l.ledger.add(init.Trace(), resp.Trace())
	}
}

// take returns the recorded exchange times and clears them.
func (l *exchangeLog) take() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.durs
	l.durs = nil
	return out
}

// timingCarrier is a fleet.Carrier that makes exactly the calls and
// checks of the manager's in-process default carrier, timing the
// whole exchange and, when traced, each engine call.
type timingCarrier struct {
	log        *exchangeLog
	rec        *recorder
	op, parent int64
}

func (c *timingCarrier) Exchange(init *core.Initiator, resp *core.Responder) error {
	sp := c.rec.begin("carrier.exchange", c.op, c.parent)
	t0 := time.Now()
	err := c.exchange(init, resp, sp.id())
	d := time.Since(t0)
	sp.end()
	if err == nil {
		c.log.note(d, init, resp)
	}
	return err
}

func (c *timingCarrier) exchange(init *core.Initiator, resp *core.Responder, parent int64) error {
	step := c.rec.begin("core.A1", c.op, parent)
	msg, err := init.Start()
	step.end()
	if err != nil {
		return err
	}
	for i := 0; i < maxHops; i++ {
		step = c.rec.begin(hopName(respSpans, i), c.op, parent)
		reply, _, err := resp.Handle(msg)
		step.end()
		if err != nil {
			return fmt.Errorf("layerbench: responder: %w", err)
		}
		if reply == nil {
			return nil
		}
		step = c.rec.begin(hopName(initSpans, i), c.op, parent)
		next, done, err := init.Handle(reply)
		step.end()
		if err != nil {
			return fmt.Errorf("layerbench: initiator: %w", err)
		}
		if done {
			return nil
		}
		msg = next
	}
	return errors.New("layerbench: handshake did not converge")
}

// ledgerPrims are the primitives the count ledger reports, in output
// order.
var ledgerPrims = [...]core.Primitive{
	core.PrimECBaseMult, core.PrimECPointMult, core.PrimECCombinedMult,
	core.PrimECPointAdd, core.PrimECPointDecode, core.PrimModInverse,
	core.PrimRandScalar, core.PrimHashBytes, core.PrimMACBytes,
	core.PrimAESBytes, core.PrimKDF, core.PrimRandBytes,
}

// ledgerRoles are the two engine sides, in output order.
var ledgerRoles = [...]core.PartyRole{core.RoleA, core.RoleB}

// ledger sums the engines' primitive counts per party, Table II phase
// and primitive over every recorded handshake. Callers serialize add.
type ledger struct {
	handshakes int
	counts     [len(ledgerRoles)][4][len(ledgerPrims)]int
}

func (l *ledger) add(a, b *core.Trace) {
	l.handshakes++
	for ri, tr := range [...]*core.Trace{a, b} {
		agg := tr.Aggregate()
		for pi, phase := range core.Phases() {
			byPrim := agg.PhaseCounts(ledgerRoles[ri], phase)
			for k, prim := range ledgerPrims {
				l.counts[ri][pi][k] += byPrim[prim]
			}
		}
	}
}

// perHandshake sums the chosen primitives over both parties and the
// chosen phases (all when phase < 0), divided by the handshake count.
func (l *ledger) perHandshake(phase int, prims ...core.Primitive) float64 {
	if l == nil || l.handshakes == 0 {
		return 0
	}
	total := 0
	for ri := range l.counts {
		for pi := range l.counts[ri] {
			if phase >= 0 && pi != phase {
				continue
			}
			for k, prim := range ledgerPrims {
				for _, want := range prims {
					if prim == want {
						total += l.counts[ri][pi][k]
					}
				}
			}
		}
	}
	return float64(total) / float64(l.handshakes)
}

// count is the number of handshakes the ledger summed.
func (l *ledger) count() int {
	if l == nil {
		return 0
	}
	return l.handshakes
}

// ledgerRow is one non-zero count of the exported ledger.
type ledgerRow struct {
	Party     string  `json:"party"`
	Phase     string  `json:"phase"`
	Primitive string  `json:"primitive"`
	PerHS     float64 `json:"per_handshake"`
}

// rows exports the non-zero per-handshake counts in party, phase,
// primitive order.
func (l *ledger) rows() []ledgerRow {
	if l == nil || l.handshakes == 0 {
		return nil
	}
	var out []ledgerRow
	for ri, role := range ledgerRoles {
		for pi, phase := range core.Phases() {
			for k, prim := range ledgerPrims {
				if n := l.counts[ri][pi][k]; n != 0 {
					out = append(out, ledgerRow{
						Party:     role.String(),
						Phase:     string(phase),
						Primitive: prim.String(),
						PerHS:     float64(n) / float64(l.handshakes),
					})
				}
			}
		}
	}
	return out
}
