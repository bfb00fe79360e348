package scenario

import (
	"fmt"
	"time"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/ecqv"
	"repro/internal/fleet"
	"repro/internal/transport"
)

// CAN identifier blocks: initiator (manager→peer) traffic flows in
// 0x100+i toward the peers' segment, responder traffic in 0x200+i
// back. The chain gateways route the blocks directionally, so frames
// only travel toward their destination segment.
const (
	initiatorIDBase = 0x100
	responderIDBase = 0x200
)

// fabric is one constructed measurement network: the world pump, the
// segment chain, the per-peer endpoint pairs and their carriers, and
// the shared per-step accounting.
type fabric struct {
	world    *transport.World
	buses    []*canbus.Bus
	gateways []*canbus.Gateway
	locals   []*transport.Endpoint
	remotes  []*transport.Endpoint
	carriers map[ecqv.ID]*fleet.NetCarrier
	acc      *transport.Accounting
}

// buildFabric wires the scenario's topology for one measurement
// point: Segments buses in a chain bridged by Segments-1 gateways,
// every bus impaired with prof (content-keyed, salted by segment
// index), the manager's endpoints on segment 0 and the peers' on the
// last. A non-nil faultTrace hook is installed on every bus.
func buildFabric(s Scenario, prof Profile, peers []*core.Party, faultTrace func(canbus.FaultEvent)) (*fabric, error) {
	w := transport.NewWorld(nil)
	fab := &fabric{
		world:    w,
		carriers: make(map[ecqv.ID]*fleet.NetCarrier),
		acc:      transport.NewAccounting(),
	}

	for i := 0; i < s.Segments; i++ {
		bus := canbus.NewBus(canbus.PrototypeRates)
		bus.SetClock(w.Clock)
		bus.Impair(canbus.Impairment{
			Seed:      s.Seed,
			BusID:     uint64(i),
			Drop:      prof.Drop,
			Corrupt:   prof.Corrupt,
			Duplicate: prof.Duplicate,
			DelayRate: prof.DelayRate,
			Delay:     prof.Delay,
		})
		if faultTrace != nil {
			bus.SetFaultTrace(faultTrace)
		}
		fab.buses = append(fab.buses, bus)
	}

	fwd := canbus.IDRange(initiatorIDBase, initiatorIDBase+0xFF)
	rev := canbus.IDRange(responderIDBase, responderIDBase+0xFF)
	for i := 0; i+1 < s.Segments; i++ {
		gw := canbus.NewGateway(fmt.Sprintf("gw%d", i+1), w.Clock)
		lo, hi := fab.buses[i], fab.buses[i+1]
		if err := gw.Route(lo, hi, fwd, s.GatewayLatency); err != nil {
			return nil, err
		}
		if err := gw.Route(hi, lo, rev, s.GatewayLatency); err != nil {
			return nil, err
		}
		// A queue bound without a rate limit is inert (an
		// unlimited-rate port never backs up), so only a rate-limited
		// policy congests the ports.
		if s.Egress.Rate > 0 {
			if err := gw.SetEgress(lo, s.Egress); err != nil {
				return nil, err
			}
			if err := gw.SetEgress(hi, s.Egress); err != nil {
				return nil, err
			}
		}
		w.AddGateway(gw)
		fab.gateways = append(fab.gateways, gw)
	}

	mgrBus := fab.buses[0]
	peerBus := fab.buses[len(fab.buses)-1]
	link := &transport.Link{World: w, MaxResend: 6}
	base := transport.DefaultConfig()
	base.Accounting = fab.acc
	for i, p := range peers {
		lcfg, rcfg := base, base
		lcfg.AcceptID = responderIDBase + uint32(i)
		rcfg.AcceptID = initiatorIDBase + uint32(i)
		local := transport.NewEndpoint(w, mgrBus.Attach(fmt.Sprintf("mgr→%s", p.ID)), initiatorIDBase+uint32(i), lcfg)
		remote := transport.NewEndpoint(w, peerBus.Attach(p.ID.String()), responderIDBase+uint32(i), rcfg)
		fab.locals = append(fab.locals, local)
		fab.remotes = append(fab.remotes, remote)
		fab.carriers[p.ID] = &fleet.NetCarrier{Link: link, Local: local, Remote: remote, SessionID: uint16(i + 1)}
	}
	return fab, nil
}

// counters aggregates the fabric's fault and recovery counters into a
// measurement point.
func (fab *fabric) counters(pt *Point) {
	for _, bus := range fab.buses {
		st := bus.Stats()
		pt.BusDropped += st.Dropped
		pt.BusCorrupted += st.Corrupted
		pt.BusDuplicated += st.Duplicated
		pt.BusDelayed += st.Delayed
		pt.RxOverflow += st.RxOverflow
	}
	for _, gw := range fab.gateways {
		st := gw.Stats()
		pt.GatewayForwarded += st.Forwarded
		pt.GatewayEgressDropped += st.EgressDropped
		pt.GatewayPartitionDrops += st.PartitionDrop
	}
	for _, eps := range [][]*transport.Endpoint{fab.locals, fab.remotes} {
		for _, e := range eps {
			st := e.Stats()
			pt.Retransmits += st.Retransmits
			pt.MessageResends += st.MessageResends
			pt.IntegrityDrops += st.IntegrityDrops
			pt.ProtocolDrops += st.ProtocolDrops
		}
	}
	pt.SimTimeUS = us(fab.world.Clock.Now())
	pt.Steps = stepAccounts(fab.acc.Snapshot())
}

// now returns the fabric's simulated time.
func (fab *fabric) now() time.Duration { return fab.world.Clock.Now() }
