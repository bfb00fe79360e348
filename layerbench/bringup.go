package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/fleet"
	"repro/internal/session"
)

// spanCtx is the span context a carrier records its exchange under.
type spanCtx struct{ op, parent int64 }

// onboarding is the cold-bringup set-up: a certificate authority and an
// enrolled gateway that never-seen devices connect to.
type onboarding struct {
	net     *core.Network
	gateway *core.Party
	m       *fleet.Manager
	rec     *recorder // nil during set-up

	mu      sync.Mutex
	pending map[ecqv.ID]spanCtx // span context of each connecting device
	devices core.CacheStats     // summed key-cache counters of finished devices
}

// runColdBringup measures onboarding: each of nproc clients enrolls a
// device no one has seen (ECQV request, issue, reconstruct) and
// connects its first session to the gateway, so every op misses the
// gateway's key cache and builds a fresh verifier table.
func runColdBringup(o options, rec *recorder) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	log := &exchangeLog{}
	warmGlobals(out)
	b, err := repeatSetup(out, func() (*onboarding, error) { return newOnboarding(o, log) })
	if err != nil {
		return nil, err
	}
	b.rec = rec
	log.take() // so is the warm-up bring-up
	if o.trace {
		log.ledger = &ledger{}
	}
	probe, err := b.net.Provision(fmt.Sprintf("probe-%08x", idTag(o.seed)))
	if err != nil {
		return nil, err
	}
	out.keys = ladderKeys{net: b.net, party: b.gateway, peer: probe}

	gwBefore := b.gateway.KeyCache().Stats()
	shared := core.SharedTables().Stats()
	counters := make([]int, o.workers)
	var mu sync.Mutex
	var enroll []time.Duration
	out.clients = o.workers
	err = out.measure(o, out.clients, func(client int) {
		n := counters[client]
		counters[client]++
		d, e, hs := b.bringUp(o, fmt.Sprintf("d%06x%02x%07x", idTag(o.seed)&0xffffff, client&0xff, n), &out.check)
		out.noteOp(d, hs)
		mu.Lock()
		enroll = append(enroll, e)
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	out.caches.addKeyCache(gwBefore, b.gateway.KeyCache().Stats())
	out.caches.addKeyCache(core.CacheStats{}, b.devices)
	out.caches.addShared(shared, core.SharedTables().Stats())
	out.hsTimes = log.take()
	out.ledger = log.ledger
	out.extra = []metric{
		{"bringups_per_s", float64(len(out.opTimes)) / out.wall.Seconds(), "1/s", len(out.opTimes)},
		{"enroll_p50_ms", median(millis(enroll)), "ms", len(enroll)},
		failedRatio(&out.check),
	}
	return out, nil
}

// newOnboarding creates the authority and the gateway from the seed.
// One throwaway device is brought up to publish the gateway's verifier
// table in the process-global shared cache; no device cache is ever
// warmed, since every measured device is new.
func newOnboarding(o options, log *exchangeLog) (*onboarding, error) {
	b := &onboarding{pending: map[ecqv.ID]spanCtx{}}
	var err error
	b.net, err = core.NewNetwork(ec.P256(), detrand.NewReader(detrand.DeriveSeed(o.seed, []byte("cold-bringup/ca"))))
	if err != nil {
		return nil, err
	}
	if b.gateway, err = b.net.Provision(fmt.Sprintf("gw-%08x", idTag(o.seed))); err != nil {
		return nil, err
	}
	if b.m, err = fleet.NewManager(b.gateway, core.OptNone, session.DefaultPolicy); err != nil {
		return nil, err
	}
	b.m.SetCarrier(func(peer *core.Party) (fleet.Carrier, error) {
		b.mu.Lock()
		ctx := b.pending[peer.ID]
		b.mu.Unlock()
		return &timingCarrier{log: log, rec: b.rec, op: ctx.op, parent: ctx.parent}, nil
	})
	b.m.SetHandshakeRand(func(peer ecqv.ID, attempt int) io.Reader {
		return detrand.NewReader(detrand.DeriveSeed(o.seed, peer[:], uint64(attempt)))
	})
	var warm checker
	b.bringUp(o, fmt.Sprintf("warmup-%08x", idTag(o.seed)), &warm)
	if warm.failed.Load() != 0 {
		return nil, fmt.Errorf("warm-up bring-up: %v", warm.problems)
	}
	b.devices = core.CacheStats{}
	return b, nil
}

// bringUp is one op: enroll the named device, connect its first
// session, then drop the session. It returns the op's latency, the
// enrollment's, and the handshakes that completed (0 or 1).
func (b *onboarding) bringUp(o options, name string, check *checker) (op, enroll time.Duration, handshakes int) {
	rec := b.rec
	id := nextOp()
	sp := rec.begin("op", id, 0)
	defer sp.end()
	t0 := time.Now()

	ps := rec.begin("core.Provision", id, sp.id())
	dev, err := b.net.Provision(name)
	ps.end()
	enroll = time.Since(t0)
	if !check.ok(err == nil, "enroll %s: %v", name, err) {
		return time.Since(t0), enroll, 0
	}
	dev.Rand = detrand.NewReader(detrand.DeriveSeed(o.seed, dev.ID[:], 0xB0B))

	cs := rec.begin("fleet.Connect", id, sp.id())
	b.mu.Lock()
	b.pending[dev.ID] = spanCtx{op: id, parent: cs.id()}
	b.mu.Unlock()
	err = b.m.Connect(dev)
	cs.end()
	op = time.Since(t0)

	if check.ok(err == nil, "connect %s: %v", name, err) {
		handshakes = 1
	}
	b.m.Disconnect(dev.ID)
	st := dev.KeyCache().Stats()
	b.mu.Lock()
	delete(b.pending, dev.ID)
	b.devices.Hits += st.Hits
	b.devices.Misses += st.Misses
	b.devices.SharedHits += st.SharedHits
	b.devices.WaveBatches += st.WaveBatches
	b.devices.WaveItems += st.WaveItems
	b.mu.Unlock()
	return op, enroll, handshakes
}
