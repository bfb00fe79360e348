package canbus

import (
	"errors"
	"fmt"
	"time"
)

// Bus is an in-memory CAN-FD segment. Nodes attach with Attach and
// receive every frame transmitted by any other node (broadcast
// semantics, as on a physical bus). Transmission is serialized —
// the defining property of CAN — and each transmit returns the wire
// time the frame occupied, which the experiment harness adds to its
// simulated clock.
//
// The bus model is collision-free (CAN arbitration is non-destructive
// and the session protocols are strict request/response exchanges) but
// no longer loss-free: an installed Impairment deterministically
// drops, corrupts, duplicates or delays frames, which is what the
// timer- and retransmission-aware ISO-TP layer is tested against.
// Multi-segment topologies are built by bridging buses with Gateways.
//
// A bus, its nodes and the gateways bridging it belong to one world
// (transport.World) and are driven by one goroutine at a time; none
// of them takes a lock. World.Acquire is the fabric's only lock, and
// the race detector reports any access that bypasses it.
type Bus struct {
	rates BitRates

	nodes   []*Node
	stats   Stats
	impair  *impairState
	clock   *Clock
	rxLimit int
	trace   func(FaultEvent)
}

// DefaultRxLimit bounds a node's receive queue unless overridden with
// Bus.SetRxLimit or Node.SetRxLimit. Real controllers expose a handful
// of RX mailboxes plus a driver ring; 1024 frames is a generous ring
// that still catches runaway senders.
const DefaultRxLimit = 1024

// Stats accumulates bus-level counters for the experiment reports.
type Stats struct {
	Frames    int           // frames transmitted
	Bytes     int           // payload bytes transmitted (unpadded)
	PadBytes  int           // padding added by DLC quantization
	WireTime  time.Duration // cumulative bus-busy time
	Broadcast int           // total frame deliveries (frames × receivers)

	// Impairment and queue-pressure counters.
	Dropped    int           // frames destroyed on the wire
	Corrupted  int           // frames delivered with a flipped bit
	Duplicated int           // frames delivered twice
	Delayed    int           // frames held for extra latency
	DelayTime  time.Duration // cumulative injected latency
	RxOverflow int           // deliveries lost to full receive queues
}

// Node is a bus endpoint with a bounded receive queue.
type Node struct {
	bus     *Bus
	name    string
	monitor bool

	rx       fifo[Frame]
	rxLimit  int
	overflow int
}

// NewBus creates a bus with the given bit rates.
func NewBus(rates BitRates) *Bus {
	return &Bus{rates: rates, rxLimit: DefaultRxLimit}
}

// SetClock attaches a simulated clock; every transmitted frame's wire
// time (and any injected delay) advances it. A nil clock detaches.
func (b *Bus) SetClock(c *Clock) { b.clock = c }

// Impair installs deterministic fault injection on the bus. Installing
// a zero-rate Impairment (or calling with all rates zero) still resets
// the per-identifier occurrence counters the content keys include, so
// a topology can be re-armed for a reproducibility re-run.
// ClearImpairment removes injection entirely.
func (b *Bus) Impair(cfg Impairment) { b.impair = newImpairState(cfg) }

// ClearImpairment removes fault injection.
func (b *Bus) ClearImpairment() { b.impair = nil }

// SetFaultTrace installs a hook invoked for every injected fault, in
// injection order (drop, corrupt, duplicate, delay — a frame can
// suffer several). The hook runs synchronously inside Send, on the
// world's driving goroutine; it must not call back into the bus. A nil
// hook detaches.
// Golden-trace tests and the scenario engine's trace recorder use it
// to commit the exact fault sequence of a seeded run.
func (b *Bus) SetFaultTrace(fn func(FaultEvent)) { b.trace = fn }

// emitFault reports one injected fault to the trace hook, if any.
func (b *Bus) emitFault(f *Frame, roll impairRoll, kind FaultKind) {
	if b.trace == nil {
		return
	}
	b.trace(FaultEvent{
		Time:       b.clock.Now(),
		BusID:      b.impair.cfg.BusID,
		FrameID:    f.ID,
		Extended:   f.Extended,
		Occurrence: roll.occ,
		Kind:       kind,
	})
}

// SetRxLimit sets the receive-queue bound applied to nodes attached
// from now on (≤ 0 restores DefaultRxLimit).
func (b *Bus) SetRxLimit(n int) {
	if n <= 0 {
		n = DefaultRxLimit
	}
	b.rxLimit = n
}

// Attach adds a named node to the bus.
func (b *Bus) Attach(name string) *Node {
	n := &Node{bus: b, name: name, rxLimit: b.rxLimit}
	b.nodes = append(b.nodes, n)
	return n
}

// Tap attaches a promiscuous monitor node: it hears every delivered
// frame on the bus (post-impairment, exactly the bytes real receivers
// see — a dropped frame is invisible to the tap too, it died on the
// wire) with an unbounded receive queue, and it is excluded from
// every delivery counter — candidates, Broadcast, RxOverflow — so
// installing a tap never perturbs the measurements of the traffic it
// observes. That exclusion is a determinism obligation: scenario
// adversaries record through taps, and a benign run with and without
// a tap must produce byte-identical results. The returned node can
// still Send, which is the adversary's injection port.
func (b *Bus) Tap(name string) *Node {
	n := &Node{bus: b, name: name, monitor: true}
	b.nodes = append(b.nodes, n)
	return n
}

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() Stats { return b.stats }

// Rates returns the configured bit rates.
func (b *Bus) Rates() BitRates { return b.rates }

// ErrNotAttached is returned when sending from a detached node.
var ErrNotAttached = errors.New("canbus: node not attached to a bus")

// Send validates the frame, pads its payload to a legal CAN-FD DLC
// length, applies any installed impairment, delivers it to every other
// node and returns the wire time. A dropped frame still returns its
// wire time — it occupied the bus — with a nil error; loss is visible
// only to the protocol layers above, exactly as on a real segment.
func (n *Node) Send(f Frame) (time.Duration, error) {
	res, err := n.send(f, false)
	return res.wire, err
}

// sendResult reports where a transmitted frame ended up, for callers
// (the gateway) that must account losses instead of shrugging them
// off.
type sendResult struct {
	wire       time.Duration
	candidates int  // receivers the frame was offered to
	accepted   int  // receivers that queued at least one copy
	dropped    bool // destroyed on the wire by impairment
}

// refused reports a delivery failure that is the receivers' doing
// rather than the wire's: at least one receiver existed, the wire
// delivered, and every receive queue was full.
func (r sendResult) refused() bool { return !r.dropped && r.candidates > 0 && r.accepted == 0 }

// send is the counted transmit path behind Send. A shared payload is
// already immutable fabric data (a gateway forwarding what it
// received) and is delivered without a copy unless this segment
// corrupts it; any other payload is the sender's buffer and is copied
// once.
func (n *Node) send(f Frame, shared bool) (sendResult, error) {
	if n.bus == nil {
		return sendResult{}, ErrNotAttached
	}
	rawLen := len(f.Data)
	padded, err := PadToDLC(rawLen)
	if err != nil {
		return sendResult{}, err
	}
	if padded != rawLen {
		data := make([]byte, padded)
		copy(data, f.Data)
		f.Data = data
	}
	if err := f.Validate(); err != nil {
		return sendResult{}, err
	}
	wt, err := f.WireTime(n.bus.rates)
	if err != nil {
		return sendResult{}, err
	}

	b := n.bus
	b.stats.Frames++
	b.stats.Bytes += rawLen
	b.stats.PadBytes += padded - rawLen
	b.stats.WireTime += wt
	b.clock.Advance(wt)
	res := sendResult{wire: wt}
	for _, peer := range b.nodes {
		if peer != n && !peer.monitor {
			res.candidates++
		}
	}

	var roll impairRoll
	if b.impair != nil {
		roll = b.impair.roll(&f)
		if roll.drop {
			b.stats.Dropped++
			b.emitFault(&f, roll, FaultDrop)
			res.dropped = true
			return res, nil
		}
	}
	// One payload per broadcast, shared read-only by every receiver and
	// duplicate; the sender keeps its own buffer. Padding already made
	// a fresh one. A shared payload is copied only to be corrupted, so
	// the corruption never shows on the segment it came from.
	if padded == rawLen && (!shared || roll.corrupt) {
		f.Data = append([]byte(nil), f.Data...)
	}
	copies := 1
	if roll.corrupt {
		corruptFrame(f.Data, roll)
		b.stats.Corrupted++
		b.emitFault(&f, roll, FaultCorrupt)
	}
	if roll.duplicate {
		b.stats.Duplicated++
		b.emitFault(&f, roll, FaultDuplicate)
		copies = 2
	}
	if roll.delay {
		b.stats.Delayed++
		b.stats.DelayTime += b.impair.cfg.Delay
		b.clock.Advance(b.impair.cfg.Delay)
		b.emitFault(&f, roll, FaultDelay)
	}

	for c := 0; c < copies; c++ {
		for _, peer := range b.nodes {
			if peer == n {
				continue
			}
			if peer.monitor {
				// Monitor taps observe without participating: their
				// unbounded queues take every copy, and no delivery
				// counter moves — a tapped bus measures identically to
				// an untapped one.
				peer.enqueue(f)
				continue
			}
			if peer.enqueue(f) {
				b.stats.Broadcast++
				res.accepted++
			} else {
				b.stats.RxOverflow++
			}
		}
	}
	return res, nil
}

// enqueue appends a frame to the receive queue, dropping it (and
// counting the overflow) when the queue is full — the behaviour of a
// controller whose RX mailboxes are all occupied.
func (n *Node) enqueue(f Frame) bool {
	if n.rxLimit > 0 && n.rx.len() >= n.rxLimit {
		n.overflow++
		return false
	}
	n.rx.push(f)
	return true
}

// Receive pops the oldest pending frame, if any. The frame's Data is
// shared with every other receiver of the broadcast and must be
// treated as read-only.
func (n *Node) Receive() (Frame, bool) {
	if n.rx.len() == 0 {
		return Frame{}, false
	}
	return n.rx.pop(), true
}

// Pending returns the number of queued frames.
func (n *Node) Pending() int { return n.rx.len() }

// SetRxLimit overrides this node's receive-queue bound (≤ 0 means
// unbounded — useful for measurement taps that must never lose).
func (n *Node) SetRxLimit(limit int) { n.rxLimit = limit }

// Overflow returns how many deliveries this node lost to a full queue.
func (n *Node) Overflow() int { return n.overflow }

// Name returns the node's attach name.
func (n *Node) Name() string { return n.name }

// String renders the node for diagnostics and fault traces.
func (n *Node) String() string { return fmt.Sprintf("canbus.Node(%s)", n.name) }

// fifo is a head-indexed queue. Popping advances the head instead of
// reslicing, and push reuses the backing array: an emptied queue
// rewinds, and a full one with a popped prefix compacts before it
// grows.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// front returns the oldest element; the queue must not be empty.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		m := copy(q.buf, q.buf[q.head:])
		clear(q.buf[m:])
		q.buf, q.head = q.buf[:m], 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the oldest element; the queue must not be
// empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
