package canbus

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSenderMutationInvisible: Send takes its own copy of the payload,
// so a sender reusing its buffer right after Send changes nothing any
// receiver or tap already holds — padded and unpadded payloads alike.
func TestSenderMutationInvisible(t *testing.T) {
	for _, n := range []int{8, 10} {
		t.Run(fmt.Sprintf("len%d", n), func(t *testing.T) {
			bus := NewBus(PrototypeRates)
			tx := bus.Attach("tx")
			rxs := []*Node{bus.Attach("rx1"), bus.Attach("rx2"), bus.Tap("tap")}
			buf := bytes.Repeat([]byte{0x5A}, n)
			if _, err := tx.Send(Frame{ID: 0x100, Data: buf}); err != nil {
				t.Fatal(err)
			}
			want := append([]byte(nil), buf...)
			if padded, _ := PadToDLC(n); padded > n {
				want = append(want, make([]byte, padded-n)...)
			}
			for i := range buf {
				buf[i] = 0xFF
			}
			for _, rx := range rxs {
				f, ok := rx.Receive()
				if !ok {
					t.Fatalf("%s received nothing", rx)
				}
				if !bytes.Equal(f.Data, want) {
					t.Errorf("%s got % x, want % x", rx, f.Data, want)
				}
			}
		})
	}
}

// TestCorruptDuplicateSharesOneCorruptedPayload: a frame both
// corrupted and duplicated reaches every receiver and the tap twice,
// all with the same corrupted bytes, while the sender's clean payload
// stays as sent.
func TestCorruptDuplicateSharesOneCorruptedPayload(t *testing.T) {
	bus := NewBus(PrototypeRates)
	bus.Impair(Impairment{Seed: 9, Corrupt: 1, Duplicate: 1})
	tx := bus.Attach("tx")
	rxs := []*Node{bus.Attach("rx1"), bus.Attach("rx2"), bus.Attach("rx3"), bus.Tap("tap")}
	clean := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sent := append([]byte(nil), clean...)
	if _, err := tx.Send(Frame{ID: 0x100, Data: sent}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sent, clean) {
		t.Fatalf("corruption reached the sender's buffer: % x", sent)
	}
	var corrupted []byte
	for _, rx := range rxs {
		if rx.Pending() != 2 {
			t.Fatalf("%s holds %d frames, want 2 (duplicated)", rx, rx.Pending())
		}
		for rx.Pending() > 0 {
			f, _ := rx.Receive()
			if corrupted == nil {
				corrupted = f.Data
			}
			if !bytes.Equal(f.Data, corrupted) {
				t.Errorf("%s got % x, others % x", rx, f.Data, corrupted)
			}
		}
	}
	flipped := 0
	for i := range clean {
		for x := clean[i] ^ corrupted[i]; x != 0; x &= x - 1 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Errorf("delivered payload differs from the clean one in %d bits, want 1", flipped)
	}
}

// TestBroadcastAllocBudget is the host-independent gate on the
// broadcast path: an unpadded Send allocates one payload copy whatever
// the number of receivers, draining the receive queues allocates
// nothing once they have grown to their working size, and a clean
// gateway hop allocates nothing.
func TestBroadcastAllocBudget(t *testing.T) {
	const budget = 1
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	allocs := map[int]float64{}
	for _, receivers := range []int{2, 8} {
		bus := NewBus(PrototypeRates)
		bus.SetClock(NewClock())
		tx := bus.Attach("tx")
		rxs := make([]*Node, receivers)
		for i := range rxs {
			rxs[i] = bus.Attach(fmt.Sprintf("rx%d", i))
		}
		avg := testing.AllocsPerRun(100, func() {
			if _, err := tx.Send(Frame{ID: 0x100, Data: payload}); err != nil {
				t.Fatal(err)
			}
			for _, rx := range rxs {
				if _, ok := rx.Receive(); !ok {
					t.Fatal("receiver missed the broadcast")
				}
			}
		})
		t.Logf("Send to %d receivers + drain: %.0f allocs/op (budget %d)", receivers, avg, budget)
		if avg > budget {
			t.Errorf("Send to %d receivers allocates %.0f/op, budget %d", receivers, avg, budget)
		}
		allocs[receivers] = avg
	}
	if allocs[2] != allocs[8] {
		t.Errorf("allocations grow with receivers: %.0f/op for 2, %.0f/op for 8", allocs[2], allocs[8])
	}

	// A clean gateway hop forwards the payload it received: the Send
	// on the ingress segment stays the only allocation.
	clock := NewClock()
	in, out := NewBus(PrototypeRates), NewBus(PrototypeRates)
	in.SetClock(clock)
	out.SetClock(clock)
	gw := NewGateway("gw", clock)
	if err := gw.Route(in, out, nil, 0); err != nil {
		t.Fatal(err)
	}
	tx := in.Attach("tx")
	rxs := []*Node{out.Attach("rx1"), out.Attach("rx2")}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := tx.Send(Frame{ID: 0x100, Data: payload}); err != nil {
			t.Fatal(err)
		}
		gw.Pump()
		for _, rx := range rxs {
			if _, ok := rx.Receive(); !ok {
				t.Fatal("receiver missed the forwarded frame")
			}
		}
	})
	t.Logf("Send + clean gateway hop + drain: %.0f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("Send + clean gateway hop allocates %.0f/op, budget %d", avg, budget)
	}
}

// TestForwardCorruptionStaysOnEgress: a gateway forwards the payload
// it received without copying it, so a frame corrupted on the egress
// segment must be corrupted in a copy — receivers on the ingress
// segment keep the bytes that were sent there.
func TestForwardCorruptionStaysOnEgress(t *testing.T) {
	in, out := NewBus(PrototypeRates), NewBus(PrototypeRates)
	out.Impair(Impairment{Seed: 3, Corrupt: 1})
	gw := NewGateway("gw", nil)
	if err := gw.Route(in, out, nil, 0); err != nil {
		t.Fatal(err)
	}
	tx := in.Attach("tx")
	rxIn, rxOut := in.Attach("rx-in"), out.Attach("rx-out")
	clean := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := tx.Send(Frame{ID: 0x100, Data: append([]byte(nil), clean...)}); err != nil {
		t.Fatal(err)
	}
	if gw.Pump() == 0 {
		t.Fatal("gateway forwarded nothing")
	}
	fIn, ok := rxIn.Receive()
	if !ok {
		t.Fatal("ingress receiver got nothing")
	}
	fOut, ok := rxOut.Receive()
	if !ok {
		t.Fatal("egress receiver got nothing")
	}
	if !bytes.Equal(fIn.Data, clean) {
		t.Errorf("egress corruption reached the ingress segment: % x, sent % x", fIn.Data, clean)
	}
	if bytes.Equal(fOut.Data, clean) || out.Stats().Corrupted != 1 {
		t.Errorf("egress segment did not corrupt the forwarded frame: % x, stats %+v", fOut.Data, out.Stats())
	}
}

// TestFifoReusesBacking: a queue that never empties keeps FIFO order
// and stays within its working-size backing array instead of growing
// with every push.
func TestFifoReusesBacking(t *testing.T) {
	var q fifo[int]
	q.push(0)
	q.push(1)
	next := 0
	for i := 2; i < 1000; i++ {
		q.push(i)
		if got := q.pop(); got != next {
			t.Fatalf("pop = %d, want %d", got, next)
		}
		next++
	}
	if q.len() != 2 || *q.front() != next {
		t.Fatalf("len %d front %d, want 2 / %d", q.len(), *q.front(), next)
	}
	if cap(q.buf) > 4 {
		t.Errorf("backing array grew to %d for a queue of at most 3", cap(q.buf))
	}
}
