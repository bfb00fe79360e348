package transport

import "time"

// StepCost aggregates the wire cost attributed to one application
// opcode. For STS handshake traffic the opcode is the Table II step
// code (core.StepLabel names it), so a populated Accounting answers
// the question the paper's overhead table cannot: which protocol step
// pays for recovery when the bus degrades.
type StepCost struct {
	// Messages counts completed sends of this opcode.
	Messages int
	// Frames counts frames the sending endpoint put on the wire while
	// the send was in flight — data frames, FirstFrame retransmissions
	// and any receiver-side FlowControls it answered meanwhile.
	Frames int
	// Retransmits counts ISO-TP FirstFrame retransmissions (N_Bs
	// expiry) attributed to this opcode.
	Retransmits int
	// WaitsHonoured counts FlowControl(Wait) frames honoured.
	WaitsHonoured int
	// Resends counts whole-message retransmissions by Link.Deliver.
	Resends int
	// Aborted counts transfers abandoned after exhausting budgets.
	Aborted int
	// PayloadBytes sums application payload bytes of completed sends.
	PayloadBytes int
	// WireTime is the cumulative bus occupancy of the counted frames.
	WireTime time.Duration
	// QueueTime is the cumulative simulated time completed deliveries
	// of this opcode spent in the fabric after their last frame left
	// the sender — gateway store-and-forward releases, egress gating
	// behind a congested port and terminal servicing at the receiver.
	// It is the per-step price of congestion, where WireTime is the
	// per-step price of bandwidth.
	QueueTime time.Duration
}

// Accounting attributes per-send costs to opcodes across every
// endpoint configured with it (Config.Accounting). One instance is
// typically shared by all endpoints of a measurement scenario, so the
// snapshot is the fleet-wide per-step cost table. Like the rest of the
// fabric it belongs to the World whose endpoints share it and takes no
// lock: it is updated and read on that world's driving goroutine (or
// under World.Acquire), and the race detector reports any access that
// bypasses that.
type Accounting struct {
	steps map[byte]*StepCost
}

// NewAccounting returns an empty per-step cost table.
func NewAccounting() *Accounting {
	return &Accounting{steps: make(map[byte]*StepCost)}
}

// row returns the opcode's cost row for updating in place, creating it
// on first use.
func (a *Accounting) row(op byte) *StepCost {
	c, ok := a.steps[op]
	if !ok {
		c = &StepCost{}
		a.steps[op] = c
	}
	return c
}

// Snapshot returns a copy of the per-opcode cost table.
func (a *Accounting) Snapshot() map[byte]StepCost {
	if a == nil {
		return nil
	}
	out := make(map[byte]StepCost, len(a.steps))
	for op, c := range a.steps {
		out[op] = *c
	}
	return out
}
