package fleet

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/session"
	"repro/internal/transport"
)

// chaosCounts aggregates every counter that must reproduce exactly
// across two runs with the same seed.
type chaosCounts struct {
	Errors         int
	BusDropped     int
	BusCorrupted   int
	BusDuplicated  int
	Retransmits    int
	MessageResends int
	IntegrityDrops int
	ProtocolDrops  int
	Retries        int
	FailedAttempts int
	Forwarded      int
	ForwardFailed  int
	EgressQueued   int
	EgressDropped  int
	SimTime        time.Duration
}

// chaosTopology is the acceptance topology: the manager's segment A,
// a backbone segment B and the peers' segment C, bridged by two
// gateways with per-direction ID filters, every segment impaired.
type chaosTopology struct {
	world    *transport.World
	buses    []*canbus.Bus
	gateways []*canbus.Gateway
	locals   []*transport.Endpoint
	remotes  []*transport.Endpoint
	carriers map[ecqv.ID]*NetCarrier
}

func buildChaos(t *testing.T, seed uint64, peers []*core.Party, drop, corrupt float64, egress canbus.EgressPolicy) *chaosTopology {
	t.Helper()
	w := transport.NewWorld(nil)
	topo := &chaosTopology{world: w, carriers: map[ecqv.ID]*NetCarrier{}}

	for i := 0; i < 3; i++ {
		bus := canbus.NewBus(canbus.PrototypeRates)
		bus.SetClock(w.Clock)
		bus.Impair(canbus.Impairment{Seed: seed, BusID: uint64(i), Drop: drop, Corrupt: corrupt})
		topo.buses = append(topo.buses, bus)
	}
	busA, busB, busC := topo.buses[0], topo.buses[1], topo.buses[2]

	fwd := canbus.IDRange(0x100, 0x1FF) // initiator→responder IDs
	rev := canbus.IDRange(0x200, 0x2FF) // responder→initiator IDs
	lat := 50 * time.Microsecond
	gw1 := canbus.NewGateway("gw1", w.Clock)
	gw2 := canbus.NewGateway("gw2", w.Clock)
	for _, r := range []struct {
		gw       *canbus.Gateway
		from, to *canbus.Bus
		filter   func(canbus.Frame) bool
	}{
		{gw1, busA, busB, fwd}, {gw1, busB, busA, rev},
		{gw2, busB, busC, fwd}, {gw2, busC, busB, rev},
	} {
		if err := r.gw.Route(r.from, r.to, r.filter, lat); err != nil {
			t.Fatal(err)
		}
	}
	// An egress policy congests every gateway port — the central-
	// gateway bottleneck the fair-queuing scheduler must keep
	// schedule-invariant.
	if egress.Rate > 0 {
		for _, e := range []struct {
			gw  *canbus.Gateway
			bus *canbus.Bus
		}{
			{gw1, busA}, {gw1, busB}, {gw2, busB}, {gw2, busC},
		} {
			if err := e.gw.SetEgress(e.bus, egress); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.AddGateway(gw1)
	w.AddGateway(gw2)
	topo.gateways = []*canbus.Gateway{gw1, gw2}

	link := &transport.Link{World: w, MaxResend: 6}
	cfg := transport.DefaultConfig()
	for i, p := range peers {
		// Acceptance filters pair each endpoint with its peer's CAN ID
		// — on the shared segments the other seven conversations are
		// invisible, as real controller mailbox filters make them.
		lcfg, rcfg := cfg, cfg
		lcfg.AcceptID = 0x200 + uint32(i)
		rcfg.AcceptID = 0x100 + uint32(i)
		local := transport.NewEndpoint(w, busA.Attach(fmt.Sprintf("mgr→%s", p.ID)), 0x100+uint32(i), lcfg)
		remote := transport.NewEndpoint(w, busC.Attach(p.ID.String()), 0x200+uint32(i), rcfg)
		topo.locals = append(topo.locals, local)
		topo.remotes = append(topo.remotes, remote)
		topo.carriers[p.ID] = &NetCarrier{Link: link, Local: local, Remote: remote, SessionID: uint16(i + 1)}
	}
	return topo
}

func (topo *chaosTopology) counts(errs []error, m *Manager) chaosCounts {
	var c chaosCounts
	for _, err := range errs {
		if err != nil {
			c.Errors++
		}
	}
	for _, bus := range topo.buses {
		s := bus.Stats()
		c.BusDropped += s.Dropped
		c.BusCorrupted += s.Corrupted
		c.BusDuplicated += s.Duplicated
	}
	for _, eps := range [][]*transport.Endpoint{topo.locals, topo.remotes} {
		for _, e := range eps {
			s := e.Stats()
			c.Retransmits += s.Retransmits
			c.MessageResends += s.MessageResends
			c.IntegrityDrops += s.IntegrityDrops
			c.ProtocolDrops += s.ProtocolDrops
		}
	}
	for _, gw := range topo.gateways {
		s := gw.Stats()
		c.Forwarded += s.Forwarded
		c.ForwardFailed += s.ForwardFailed
		c.EgressQueued += s.EgressQueued
		c.EgressDropped += s.EgressDropped
	}
	st := m.Stats()
	c.Retries = st.HandshakeRetries
	c.FailedAttempts = st.FailedAttempts
	c.SimTime = topo.world.Clock.Now()
	return c
}

// conversationSeed hashes (seed, peer identity, salt) into the seed
// of a private detrand stream — the per-conversation randomness that
// makes concurrent chaos runs reproducible. Not cryptographic.
func conversationSeed(seed uint64, id ecqv.ID, salt uint64) uint64 {
	return detrand.DeriveSeed(seed, id[:], salt)
}

// runChaos provisions a manager and peerCount peers, brings the fleet
// up over the impaired 3-segment topology and returns the aggregated
// counters. Determinism at any parallelism rests on three legs: bus
// faults are content-keyed (canbus), every conversation draws its
// ephemerals from a private stream — each peer's responder from a
// per-peer reader, the manager's initiator from a per-(peer, attempt)
// reader via SetHandshakeRand — and congested gateway ports schedule
// releases per conversation flow (fair queuing), so nothing any
// conversation sends or waits for depends on how the scheduler
// interleaved the others.
func runChaos(t *testing.T, seed uint64, peerCount int, drop, corrupt float64, attempts, parallelism int, egress canbus.EgressPolicy) chaosCounts {
	t.Helper()
	net, err := core.NewNetwork(ec.P256(), newDetRand(int64(seed)))
	if err != nil {
		t.Fatal(err)
	}
	self, err := net.Provision("chaos-gateway")
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]*core.Party, peerCount)
	for i := range peers {
		if peers[i], err = net.Provision(fmt.Sprintf("ecu-%02d", i)); err != nil {
			t.Fatal(err)
		}
		peers[i].Rand = detrand.NewReader(conversationSeed(seed, peers[i].ID, 0xB0B))
	}

	topo := buildChaos(t, seed, peers, drop, corrupt, egress)
	m, err := NewManager(self, core.OptNone, session.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRetryPolicy(RetryPolicy{MaxAttempts: attempts})
	m.SetHandshakeRand(func(peer ecqv.ID, attempt int) io.Reader {
		return detrand.NewReader(conversationSeed(seed, peer, 0xA11CE+uint64(attempt)))
	})
	m.SetCarrier(func(peer *core.Party) (Carrier, error) {
		c, ok := topo.carriers[peer.ID]
		if !ok {
			t.Fatalf("no carrier for %s", peer.ID)
		}
		return c, nil
	})

	errs := m.EstablishAll(peers, parallelism)
	counts := topo.counts(errs, m)

	// Every converged session must actually carry traffic.
	for _, p := range peers {
		payload := []byte("chaos " + p.ID.String())
		rec, err := m.Seal(p.ID, payload)
		if err != nil {
			t.Fatalf("seal to %s: %v", p.ID, err)
		}
		got, err := m.Open(p.ID, rec)
		if err != nil {
			t.Fatalf("open from %s: %v", p.ID, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("record to %s corrupted", p.ID)
		}
	}
	return counts
}

// TestChaosThreeSegmentFleet is the acceptance scenario: 8 peers
// behind two gateways, 5% frame loss and 1% corruption on every
// segment, full CONCURRENT fleet bring-up (EstablishAll parallelism
// 8) with zero failures, and the complete fault/recovery trace
// reproducible bit-for-bit across three consecutive runs under the
// same seed. Before impairment was content-keyed this required the
// parallelism=1 workaround; concurrent workers racing for the world
// lock now permute only the attempt order, which the trace is
// invariant to.
func TestChaosThreeSegmentFleet(t *testing.T) {
	const seed = 42
	first := runChaos(t, seed, 8, 0.05, 0.01, 10, 8, canbus.EgressPolicy{})
	if first.Errors != 0 {
		t.Fatalf("%d of 8 handshakes failed under 5%%/1%% impairment", first.Errors)
	}
	if first.BusDropped == 0 || first.BusCorrupted == 0 {
		t.Errorf("impairment did not fire: %+v", first)
	}
	if first.Retransmits+first.MessageResends+first.Retries == 0 {
		t.Errorf("fleet converged without any recovery activity — impairment too weak to prove anything: %+v", first)
	}
	if first.Forwarded == 0 {
		t.Error("gateways forwarded nothing — the topology is not multi-segment")
	}

	// Three consecutive concurrent runs, bit-for-bit identical.
	for run := 2; run <= 3; run++ {
		again := runChaos(t, seed, 8, 0.05, 0.01, 10, 8, canbus.EgressPolicy{})
		if first != again {
			t.Fatalf("same seed diverged on concurrent run %d:\nrun1 %+v\nrun%d %+v", run, first, run, again)
		}
	}

	other := runChaos(t, seed+1, 8, 0.05, 0.01, 10, 8, canbus.EgressPolicy{})
	if other.Errors != 0 {
		t.Fatalf("seed %d: %d handshakes failed", seed+1, other.Errors)
	}
	if other == first {
		t.Error("different seeds produced identical traces")
	}
}

// TestChaosScheduleInvariance is the content-keying property at fleet
// scale: the trace is a function of the seed alone, not of the worker
// count. A serial bring-up and two concurrent ones must agree on
// every counter, including simulated time.
func TestChaosScheduleInvariance(t *testing.T) {
	const seed = 77
	serial := runChaos(t, seed, 6, 0.02, 0.005, 10, 1, canbus.EgressPolicy{})
	if serial.Errors != 0 {
		t.Fatalf("serial bring-up failed: %+v", serial)
	}
	for _, parallelism := range []int{3, 8} {
		conc := runChaos(t, seed, 6, 0.02, 0.005, 10, parallelism, canbus.EgressPolicy{})
		if conc != serial {
			t.Fatalf("parallelism %d changed the trace:\nserial   %+v\nparallel %+v", parallelism, serial, conc)
		}
	}
}

// TestChaosCongestedGatewayScheduleInvariance is the assertion PR 4
// could not make: on a topology whose gateways are egress-congested
// (rate-limited ports with bounded queues), a serial bring-up and
// concurrent ones must still agree on every counter bit-for-bit —
// simulated end time included. The shared egress FIFO coupled
// conversations through one next-transmit time and through arrival
// order, so this equality only holds now that each conversation flow
// is scheduled by its own virtual clock (start-time fair queuing).
func TestChaosCongestedGatewayScheduleInvariance(t *testing.T) {
	const seed = 1234
	// 1200 frames/s ⇒ an ~833 µs release gap, about twice a full
	// CAN-FD frame's wire time: real backlogs build on every port
	// without starving the ISO-TP timers.
	egress := canbus.EgressPolicy{Rate: 1200, Queue: 256}
	open := runChaos(t, seed, 6, 0.02, 0.005, 10, 1, canbus.EgressPolicy{})
	serial := runChaos(t, seed, 6, 0.02, 0.005, 10, 1, egress)
	if serial.Errors != 0 {
		t.Fatalf("serial congested bring-up failed: %+v", serial)
	}
	// The rate limit must demonstrably engage before the invariance
	// comparison means anything. EgressQueued alone cannot show that —
	// store-latency scheduling moves it on every topology — but the
	// ~17× serialization gap has to cost simulated time against the
	// identical scenario on uncongested gateways.
	if serial.SimTime <= open.SimTime {
		t.Fatalf("egress rate limit never engaged — congested bring-up (%v) not slower than uncongested (%v)", serial.SimTime, open.SimTime)
	}
	if serial.BusDropped == 0 || serial.Retransmits+serial.MessageResends+serial.Retries == 0 {
		t.Fatalf("impairment forced no recovery under congestion: %+v", serial)
	}
	for _, parallelism := range []int{3, 8} {
		conc := runChaos(t, seed, 6, 0.02, 0.005, 10, parallelism, egress)
		if conc != serial {
			t.Fatalf("parallelism %d changed the congested trace:\nserial   %+v\nparallel %+v", parallelism, serial, conc)
		}
	}
}

// TestChaosLossless proves the network carrier costs nothing on a
// clean fabric: no retries, no retransmissions, no failed attempts.
func TestChaosLossless(t *testing.T) {
	c := runChaos(t, 7, 4, 0, 0, 3, 1, canbus.EgressPolicy{})
	if c.Errors != 0 {
		t.Fatalf("lossless bring-up failed: %+v", c)
	}
	if c.Retransmits != 0 || c.MessageResends != 0 || c.Retries != 0 || c.FailedAttempts != 0 {
		t.Errorf("lossless path paid recovery costs: %+v", c)
	}
}

// TestChaosRetryExhaustion: a fabric that destroys everything burns
// the whole attempt budget and surfaces the failure per peer.
func TestChaosRetryExhaustion(t *testing.T) {
	net, err := core.NewNetwork(ec.P256(), newDetRand(99))
	if err != nil {
		t.Fatal(err)
	}
	self, _ := net.Provision("gw")
	peer, _ := net.Provision("unreachable")

	topo := buildChaos(t, 99, []*core.Party{peer}, 1.0, 0, canbus.EgressPolicy{})
	m, _ := NewManager(self, core.OptNone, session.DefaultPolicy)
	m.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
	m.SetCarrier(func(p *core.Party) (Carrier, error) { return topo.carriers[p.ID], nil })

	if err := m.Connect(peer); err == nil {
		t.Fatal("handshake succeeded across a fabric with 100% loss")
	}
	st := m.Stats()
	if st.FailedAttempts != 3 || st.HandshakeRetries != 2 {
		t.Errorf("attempt accounting wrong: %+v", st)
	}
	if len(m.Peers()) != 0 {
		t.Error("failed connect left a peer entry")
	}
}
