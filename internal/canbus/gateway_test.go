package canbus

import (
	"testing"
	"time"
)

// threeSegments builds the canonical chain A —GW1— B —GW2— C with
// initiator IDs (0x100–0x1FF) flowing A→C and responder IDs
// (0x200–0x2FF) flowing C→A.
func threeSegments(t *testing.T, clock *Clock, latency time.Duration) (busA, busB, busC *Bus, gw1, gw2 *Gateway) {
	t.Helper()
	busA = NewBus(PrototypeRates)
	busB = NewBus(PrototypeRates)
	busC = NewBus(PrototypeRates)
	for _, b := range []*Bus{busA, busB, busC} {
		b.SetClock(clock)
	}
	gw1 = NewGateway("gw1", clock)
	gw2 = NewGateway("gw2", clock)
	fwd := IDRange(0x100, 0x1FF)
	rev := IDRange(0x200, 0x2FF)
	for _, r := range []struct {
		gw       *Gateway
		from, to *Bus
		f        func(Frame) bool
	}{
		{gw1, busA, busB, fwd},
		{gw1, busB, busA, rev},
		{gw2, busB, busC, fwd},
		{gw2, busC, busB, rev},
	} {
		if err := r.gw.Route(r.from, r.to, r.f, latency); err != nil {
			t.Fatal(err)
		}
	}
	return
}

func pumpAll(gws ...*Gateway) {
	for {
		n := 0
		for _, g := range gws {
			n += g.Pump()
		}
		if n == 0 {
			return
		}
	}
}

// driveAll pumps the gateways to quiescence, advancing the clock to
// each scheduled release (store latency, egress gating) in between —
// the canbus-level equivalent of transport.World's timer loop.
func driveAll(clock *Clock, gws ...*Gateway) {
	for {
		pumpAll(gws...)
		var dl time.Duration
		for _, g := range gws {
			if d := g.NextDeadline(); d > 0 && (dl == 0 || d < dl) {
				dl = d
			}
		}
		if dl == 0 {
			return
		}
		clock.AdvanceTo(dl)
	}
}

func TestGatewayForwardsAcrossThreeSegments(t *testing.T) {
	clock := NewClock()
	busA, _, busC, gw1, gw2 := threeSegments(t, clock, 100*time.Microsecond)
	src := busA.Attach("ecu-a")
	dst := busC.Attach("ecu-c")

	if _, err := src.Send(Frame{ID: 0x110, BRS: true, Data: []byte{0xDE, 0xAD}}); err != nil {
		t.Fatal(err)
	}
	driveAll(clock, gw1, gw2)

	f, ok := dst.Receive()
	if !ok {
		t.Fatal("frame did not cross two gateways")
	}
	if f.ID != 0x110 || f.Data[0] != 0xDE {
		t.Errorf("forwarded frame mangled: %+v", f)
	}
	// Two hops of store-and-forward latency plus three wire times.
	if clock.Now() < 200*time.Microsecond {
		t.Errorf("clock %v did not accumulate 2×100µs store latency", clock.Now())
	}
	if gw1.Stats().Forwarded != 1 || gw2.Stats().Forwarded != 1 {
		t.Errorf("forward counts gw1=%+v gw2=%+v", gw1.Stats(), gw2.Stats())
	}
	if gw1.Stats().StoreTime != 100*time.Microsecond {
		t.Errorf("gw1 store time %v, want 100µs", gw1.Stats().StoreTime)
	}

	// Reverse direction: responder ID from C reaches A.
	if _, err := dst.Send(Frame{ID: 0x210, BRS: true, Data: []byte{0x01}}); err != nil {
		t.Fatal(err)
	}
	driveAll(clock, gw1, gw2)
	if f, ok := src.Receive(); !ok || f.ID != 0x210 {
		t.Fatal("reverse frame did not reach segment A")
	}
}

// TestGatewayPumpChargesPerFrameRelease is the regression test for the
// batch-pump latency bug: Pump used to advance the shared clock by the
// route latency once per routed frame, so unrelated frames drained in
// the same pump inflated each other's timestamps (two frames in one
// pump cost 2L of global time). Store-and-forward latency must instead
// be a per-frame scheduled release: both frames become due one latency
// after the pump that drained them, not one after the other.
func TestGatewayPumpChargesPerFrameRelease(t *testing.T) {
	const latency = time.Millisecond
	clock := NewClock()
	busA := NewBus(PrototypeRates)
	busB := NewBus(PrototypeRates)
	busA.SetClock(clock)
	busB.SetClock(clock)
	gw := NewGateway("gw", clock)
	if err := gw.Route(busA, busB, nil, latency); err != nil {
		t.Fatal(err)
	}
	src := busA.Attach("src")
	dst := busB.Attach("dst")

	// Two unrelated conversations, both already waiting when the pump
	// runs.
	for _, id := range []uint32{0x110, 0x120} {
		if _, err := src.Send(Frame{ID: id, BRS: true, Data: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	drained := clock.Now()
	if moved := gw.Pump(); moved != 2 {
		t.Fatalf("pump moved %d frames, want 2 drained", moved)
	}
	// Neither frame is forwarded yet — both are scheduled, due one
	// latency after the drain, and the shared clock has not moved.
	if dst.Pending() != 0 {
		t.Fatalf("latency-gated frames delivered immediately")
	}
	if clock.Now() != drained {
		t.Fatalf("pump advanced the shared clock %v → %v", drained, clock.Now())
	}
	if dl := gw.NextDeadline(); dl != drained+latency {
		t.Fatalf("release scheduled at %v, want %v", dl, drained+latency)
	}
	driveAll(clock, gw)
	if dst.Pending() != 2 {
		t.Fatalf("delivered %d of 2 frames", dst.Pending())
	}
	// The old behaviour reached drained + 2L before the second frame
	// was even stamped; per-frame scheduling finishes both releases
	// (plus their wire times) well inside a single extra latency.
	if end := clock.Now(); end >= drained+2*latency {
		t.Errorf("batch pump still inflates timestamps: end %v, drained %v, latency %v", end, drained, latency)
	}
	if st := gw.Stats(); st.StoreTime != 2*latency || st.Forwarded != 2 || st.EgressQueued != 2 {
		t.Errorf("stats wrong after scheduled releases: %+v", st)
	}
}

// TestGatewayForwardFailedOnOverflow: a forward that every receiver
// refuses (destination RX queue full) must move the ForwardFailed
// counter instead of vanishing silently — and must not count as
// Forwarded.
func TestGatewayForwardFailedOnOverflow(t *testing.T) {
	clock := NewClock()
	busA := NewBus(PrototypeRates)
	busB := NewBus(PrototypeRates)
	busA.SetClock(clock)
	busB.SetClock(clock)
	gw := NewGateway("gw", clock)
	if err := gw.Route(busA, busB, nil, 0); err != nil {
		t.Fatal(err)
	}
	src := busA.Attach("src")
	dst := busB.Attach("dst")
	dst.SetRxLimit(1)

	for i := 0; i < 3; i++ {
		if _, err := src.Send(Frame{ID: 0x100, BRS: true, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	driveAll(clock, gw)
	st := gw.Stats()
	if st.Forwarded != 1 || st.ForwardFailed != 2 {
		t.Fatalf("forwarded %d / failed %d, want 1 / 2: %+v", st.Forwarded, st.ForwardFailed, st)
	}
	if dst.Overflow() != 2 {
		t.Errorf("destination counted %d overflows, want 2", dst.Overflow())
	}
	if st.EgressDropped != 0 {
		t.Errorf("RX refusal leaked into EgressDropped: %+v", st)
	}
}

// TestGatewayForwardFailedOnInvalidDestination: a frame that cannot be
// re-transmitted on the destination segment (here: a bus with no
// configured bit rates) is a counted forward failure, not a silent
// one.
func TestGatewayForwardFailedOnInvalidDestination(t *testing.T) {
	clock := NewClock()
	busA := NewBus(PrototypeRates)
	busBad := NewBus(BitRates{}) // WireTime fails on the zero rates
	busA.SetClock(clock)
	gw := NewGateway("gw", clock)
	if err := gw.Route(busA, busBad, nil, 0); err != nil {
		t.Fatal(err)
	}
	src := busA.Attach("src")
	busBad.Attach("dst")
	if _, err := src.Send(Frame{ID: 0x100, BRS: true, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	driveAll(clock, gw)
	if st := gw.Stats(); st.ForwardFailed != 1 || st.Forwarded != 0 {
		t.Errorf("invalid destination not counted: %+v", st)
	}
}

// TestNextDeadlineMultipleGatedFlows pins the scheduler's deadline
// aggregation with several simultaneously gated ports and flows: the
// earliest release tag across every port and flow wins, and the
// deadline is 0 exactly when nothing is gated.
func TestNextDeadlineMultipleGatedFlows(t *testing.T) {
	clock := NewClock()
	busS := NewBus(PrototypeRates)
	busFast := NewBus(PrototypeRates)
	busSlow := NewBus(PrototypeRates)
	for _, b := range []*Bus{busS, busFast, busSlow} {
		b.SetClock(clock)
	}
	gw := NewGateway("gw", clock)
	// Rate-gated port (1 kHz ⇒ 1 ms gap) fed by two flows, and a
	// latency-gated uncongested port (5 ms store delay) fed by one.
	if err := gw.Route(busS, busFast, IDRange(0x100, 0x1FF), 0); err != nil {
		t.Fatal(err)
	}
	if err := gw.Route(busS, busSlow, IDRange(0x200, 0x2FF), 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := gw.SetEgress(busFast, EgressPolicy{Rate: 1000}); err != nil {
		t.Fatal(err)
	}
	src := busS.Attach("src")
	busFast.Attach("sinkF")
	busSlow.Attach("sinkS")

	if gw.NextDeadline() != 0 {
		t.Fatalf("idle gateway advertises deadline %v", gw.NextDeadline())
	}
	// Two frames each on two rate-gated flows, one on the latency flow.
	for _, id := range []uint32{0x110, 0x110, 0x120, 0x120, 0x210} {
		if _, err := src.Send(Frame{ID: id, BRS: true, Data: []byte{0}}); err != nil {
			t.Fatal(err)
		}
	}
	drained := clock.Now()
	gw.Pump()
	// Heads of both rate-gated flows released at admission time (their
	// virtual clocks were idle); each flow's second frame is due one
	// gap later, the latency flow 5 ms out. Earliest deadline: the
	// 1 ms rate gap.
	if got, want := gw.NextDeadline(), drained+time.Millisecond; got != want {
		t.Fatalf("NextDeadline %v, want earliest gated flow at %v", got, want)
	}
	if gw.EgressBacklog(busFast) != 2 || gw.EgressBacklog(busSlow) != 1 {
		t.Fatalf("backlogs fast=%d slow=%d, want 2/1",
			gw.EgressBacklog(busFast), gw.EgressBacklog(busSlow))
	}
	// Releasing the rate-gated flows leaves the latency port as the
	// only gated one: its 5 ms tag must surface as the minimum.
	clock.AdvanceTo(drained + time.Millisecond)
	gw.Pump()
	if got, want := gw.NextDeadline(), drained+5*time.Millisecond; got != want {
		t.Fatalf("NextDeadline %v after rate drain, want latency release at %v", got, want)
	}
	driveAll(clock, gw)
	if gw.NextDeadline() != 0 {
		t.Fatalf("drained gateway still advertises deadline %v", gw.NextDeadline())
	}
	if st := gw.Stats(); st.Forwarded != 5 {
		t.Errorf("forwarded %d of 5", st.Forwarded)
	}
}

func TestGatewayFiltersBlockUnroutedIDs(t *testing.T) {
	clock := NewClock()
	busA, busB, busC, gw1, gw2 := threeSegments(t, clock, 0)
	src := busA.Attach("ecu-a")
	mid := busB.Attach("ecu-b")
	dst := busC.Attach("ecu-c")

	// 0x050 matches no route: it must stay on segment A.
	if _, err := src.Send(Frame{ID: 0x050, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	pumpAll(gw1, gw2)
	if dst.Pending() != 0 || mid.Pending() != 0 {
		t.Error("unrouted ID leaked across the gateway")
	}
	if gw1.Stats().Filtered != 1 {
		t.Errorf("gw1 filtered %d, want 1", gw1.Stats().Filtered)
	}

	// A responder ID sent on A goes nowhere: the A→B route only
	// admits initiator IDs (per-direction filtering).
	if _, err := src.Send(Frame{ID: 0x210, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	pumpAll(gw1, gw2)
	if dst.Pending() != 0 {
		t.Error("per-direction filter ignored")
	}
}

func TestGatewayNoLoops(t *testing.T) {
	// Two gateways bridging the same pair of buses in both directions:
	// without the own-port suppression and directional filters this
	// would forward forever.
	clock := NewClock()
	busA := NewBus(PrototypeRates)
	busB := NewBus(PrototypeRates)
	gw1 := NewGateway("gw1", clock)
	gw2 := NewGateway("gw2", clock)
	if err := gw1.Route(busA, busB, IDRange(0x100, 0x1FF), 0); err != nil {
		t.Fatal(err)
	}
	if err := gw2.Route(busA, busB, IDRange(0x100, 0x1FF), 0); err != nil {
		t.Fatal(err)
	}
	src := busA.Attach("a")
	dst := busB.Attach("b")
	if _, err := src.Send(Frame{ID: 0x100, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	// The goroutine is a watchdog, not a concurrent pump: it is the
	// only one touching the fabric between its start and close(done),
	// and the channel orders that before the reads below, so the
	// single-owner contract holds (and -race checks it). A forwarding
	// loop shows up as the timeout instead of a hung test binary.
	done := make(chan struct{})
	go func() { pumpAll(gw1, gw2); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("gateway pump did not quiesce (forwarding loop)")
	}
	// Both gateways forward the original frame once: two copies at dst.
	if dst.Pending() != 2 {
		t.Errorf("dst holds %d frames, want 2", dst.Pending())
	}
}

func TestGatewayRouteValidation(t *testing.T) {
	g := NewGateway("g", nil)
	bus := NewBus(PrototypeRates)
	if err := g.Route(bus, bus, nil, 0); err == nil {
		t.Error("self-loop route accepted")
	}
	if err := g.Route(nil, bus, nil, 0); err == nil {
		t.Error("nil bus accepted")
	}
	if err := g.Route(bus, NewBus(PrototypeRates), nil, -time.Second); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestIDFilters(t *testing.T) {
	r := IDRange(0x100, 0x10F)
	if !r(Frame{ID: 0x100}) || !r(Frame{ID: 0x10F}) || r(Frame{ID: 0x110}) || r(Frame{ID: 0xFF}) {
		t.Error("IDRange bounds wrong")
	}
	s := IDSet(1, 5, 9)
	if !s(Frame{ID: 5}) || s(Frame{ID: 2}) {
		t.Error("IDSet membership wrong")
	}
}
