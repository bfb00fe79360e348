// Package transport implements the application-layer session framing
// of the paper's Figure 6 on top of the ISO-TP and CAN-FD substrates:
//
//	Application: | Comm. Code | Sess. Comm ID | OP Code | App. Data |
//	Transport:   ISO 15765-2 segmentation (internal/cantp)
//	Data link:   CAN-FD frames (internal/canbus)
//
// Endpoints exchange Messages; the endpoint accounts the simulated
// wire time of every frame so the prototype harness (Fig. 7) can
// report the CAN-FD transfer share of the session separately from the
// cryptographic processing time.
//
// Every Endpoint belongs to a World, whose pump and clock drive the
// timer- and retransmission-aware ISO-TP state machines of
// internal/cantp: N_Bs and N_Cr supervision on the simulated clock,
// FlowControl Wait/Overflow handling, bounded FirstFrame
// retransmission with backoff. Config adds an optional CRC-32 message
// trailer that rejects payloads corrupted below the CAN CRC's notice;
// the zero Config (cantp defaults, no trailer, no acceptance filter)
// is the lossless two-node bus of the Fig. 7 prototype. Link layers
// whole-message retransmission on top, which is what the handshake
// retry policies of internal/fleet build on.
package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/canbus"
	"repro/internal/cantp"
)

// HeaderSize is the application-layer header length.
const HeaderSize = 4

// ChecksumSize is the length of the optional CRC-32 message trailer.
const ChecksumSize = 4

// Message is one application-layer session message.
type Message struct {
	CommCode  byte   // protocol family discriminator
	SessionID uint16 // session communication ID
	OpCode    byte   // protocol step within the session
	Payload   []byte
}

// Encode serializes the message with its 4-byte header.
func (m Message) Encode() []byte {
	out := make([]byte, HeaderSize+len(m.Payload))
	out[0] = m.CommCode
	binary.BigEndian.PutUint16(out[1:3], m.SessionID)
	out[3] = m.OpCode
	copy(out[HeaderSize:], m.Payload)
	return out
}

// DecodeMessage parses an application-layer message.
func DecodeMessage(data []byte) (Message, error) {
	if len(data) < HeaderSize {
		return Message{}, fmt.Errorf("transport: message truncated (%d bytes)", len(data))
	}
	return Message{
		CommCode:  data[0],
		SessionID: binary.BigEndian.Uint16(data[1:3]),
		OpCode:    data[3],
		Payload:   append([]byte(nil), data[HeaderSize:]...),
	}, nil
}

// Stats accumulates per-endpoint traffic counters.
type Stats struct {
	MessagesSent     int
	MessagesReceived int
	FramesSent       int
	PayloadBytesSent int
	WireTime         time.Duration // bus time consumed by this endpoint's frames

	// Recovery and rejection counters.
	Retransmits       int // ISO-TP FirstFrame retransmissions (N_Bs expiry)
	WaitsHonoured     int // FlowControl(Wait) frames honoured while sending
	MessageResends    int // whole-message resends by Link.Deliver
	AbortedSends      int // transfers abandoned after exhausting budgets
	IntegrityDrops    int // reassembled messages failing the CRC-32 trailer
	ProtocolDrops     int // frames dropped for PCI/sequence violations
	DuplicateMessages int // consecutive identical messages suppressed
	FilteredFrames    int // frames rejected by the acceptance filter
}

// Config parameterizes an endpoint. The zero value takes the cantp
// defaults with no trailer and no acceptance filter.
type Config struct {
	// Sender configures N_Bs supervision, retransmission budget,
	// backoff and the Wait budget. Zero takes cantp defaults.
	Sender cantp.SenderConfig
	// Receiver configures N_Cr supervision, BlockSize/STmin
	// advertisement and capacity. Zero takes cantp defaults.
	Receiver cantp.ReceiverConfig
	// Checksum appends a CRC-32 trailer to every message and rejects
	// reassembled messages whose trailer does not verify — the
	// "CRC-collision" corruption class the bit-level CAN CRC model
	// cannot catch. Both ends of a link must agree.
	Checksum bool
	// AcceptID is the hardware acceptance filter: only frames with
	// this CAN identifier reach the protocol state machines (every
	// other broadcast on the segment is dropped and counted). 0
	// accepts everything — correct only for a two-node point-to-point
	// segment; on a shared segment an unfiltered endpoint would
	// answer its neighbours' FirstFrames with spoofed FlowControls.
	AcceptID uint32
	// Accounting, when non-nil, attributes every send's wire cost to
	// the message's OpCode — for handshake traffic, the Table II step.
	// Share one instance across a scenario's endpoints for a
	// fleet-wide per-step cost table.
	Accounting *Accounting
}

// DefaultConfig is the reliable profile used by the chaos harness.
func DefaultConfig() Config {
	return Config{
		Sender:   cantp.DefaultSenderConfig(),
		Receiver: cantp.ReceiverConfig{},
		Checksum: true,
	}
}

// Endpoint is one session participant attached to a CAN bus node.
type Endpoint struct {
	node  *canbus.Node
	txID  uint32
	cfg   Config
	world *World

	rx      *cantp.Receiver
	rxBase  cantp.ReceiverStats // counters of receivers retired by Flush
	sender  *cantp.Sender       // non-nil only inside Send
	sendErr error               // terminal FC verdict discovered during Service
	inbox   []Message
	lastMsg []byte // last delivered message bytes, for duplicate suppression
	stats   Stats
}

// NewEndpoint wraps a bus node and registers the endpoint with the
// world, whose clock drives every protocol timer. txID is the CAN
// identifier used for all frames this endpoint transmits.
func NewEndpoint(w *World, node *canbus.Node, txID uint32, cfg Config) *Endpoint {
	e := &Endpoint{
		node:  node,
		txID:  txID,
		cfg:   cfg,
		world: w,
		rx:    cantp.NewReceiver(cfg.Receiver),
	}
	w.addEndpoint(e)
	return e
}

// Stats returns a snapshot of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// ReceiverStats returns the ISO-TP reassembly counters, cumulative
// across Flushes.
func (e *Endpoint) ReceiverStats() cantp.ReceiverStats {
	return addReceiverStats(e.rxBase, e.rx.Stats())
}

func addReceiverStats(a, b cantp.ReceiverStats) cantp.ReceiverStats {
	a.Completed += b.Completed
	a.Abandoned += b.Abandoned
	a.Duplicates += b.Duplicates
	a.Restarts += b.Restarts
	a.Overflows += b.Overflows
	a.Waits += b.Waits
	return a
}

// Flush discards buffered messages, partial reassembly state and any
// pending send verdict — the clean-slate a fresh handshake attempt
// starts from. Statistics survive.
func (e *Endpoint) Flush() {
	for {
		if _, ok := e.node.Receive(); !ok {
			break
		}
	}
	e.rxBase = addReceiverStats(e.rxBase, e.rx.Stats())
	e.rx = cantp.NewReceiver(e.cfg.Receiver)
	e.inbox = nil
	e.lastMsg = nil
	e.sender = nil
	e.sendErr = nil
}

// now returns the world's simulated time.
func (e *Endpoint) now() time.Duration { return e.world.Clock.Now() }

// Send transmits a message. The cantp.Sender state machine runs with
// its timers on the world clock, pumping the world while it waits for
// FlowControls: it honours Wait, paces to STmin, retransmits the
// FirstFrame with backoff on N_Bs expiry and aborts on Overflow or
// budget exhaustion. The returned duration is the wire time of every
// frame actually transmitted, retransmissions included.
func (e *Endpoint) Send(m Message) (time.Duration, error) {
	if e.cfg.Accounting == nil {
		return e.send(m)
	}
	f0, w0 := e.stats.FramesSent, e.stats.WireTime
	r0, wh0, ab0 := e.stats.Retransmits, e.stats.WaitsHonoured, e.stats.AbortedSends
	wt, err := e.send(m)
	c := e.cfg.Accounting.row(m.OpCode)
	c.Frames += e.stats.FramesSent - f0
	c.WireTime += e.stats.WireTime - w0
	c.Retransmits += e.stats.Retransmits - r0
	c.WaitsHonoured += e.stats.WaitsHonoured - wh0
	c.Aborted += e.stats.AbortedSends - ab0
	if err == nil {
		c.Messages++
		c.PayloadBytes += len(m.Payload)
	}
	return wt, err
}

// accountResend attributes one whole-message resend (Link.Deliver) to
// the message's opcode.
func (e *Endpoint) accountResend(op byte) {
	if e.cfg.Accounting == nil {
		return
	}
	e.cfg.Accounting.row(op).Resends++
}

// accountQueueDelay attributes the post-send transit delay of a
// completed delivery (Link.Deliver) — store-and-forward and egress
// releases between the sender's last frame and the message surfacing
// at the destination — to the message's opcode.
func (e *Endpoint) accountQueueDelay(op byte, d time.Duration) {
	if e.cfg.Accounting == nil || d <= 0 {
		return
	}
	e.cfg.Accounting.row(op).QueueTime += d
}

// send is the unaccounted transmit path behind Send.
func (e *Endpoint) send(m Message) (time.Duration, error) {
	payload := m.Encode()
	if e.cfg.Checksum {
		payload = appendChecksum(payload)
	}
	s, err := cantp.NewSender(e.cfg.Sender, payload, e.now())
	if err != nil {
		return 0, fmt.Errorf("transport: send: %w", err)
	}
	e.sender, e.sendErr = s, nil
	defer func() {
		st := s.Stats()
		e.stats.Retransmits += st.Retransmits
		e.stats.WaitsHonoured += st.WaitsHonoured
		e.sender = nil
	}()

	var total time.Duration
	for !s.Done() {
		now := e.now()
		if f := s.Next(now); f != nil {
			wt, err := e.transmit(f)
			if err != nil {
				return total, fmt.Errorf("transport: send frame: %w", err)
			}
			total += wt
			continue
		}
		if err := e.takeSendErr(); err != nil {
			e.stats.AbortedSends++
			return total, fmt.Errorf("transport: send: %w", err)
		}
		// Waiting on a FlowControl or the STmin gate: let the rest of
		// the world make progress (gateways forward, peers answer, our
		// own Service feeds FCs to the sender)...
		moved := e.world.Run()
		if err := e.takeSendErr(); err != nil {
			e.stats.AbortedSends++
			return total, fmt.Errorf("transport: send: %w", err)
		}
		if moved > 0 {
			// Something happened (possibly our FC): re-evaluate the
			// sender before touching the clock.
			continue
		}
		now = e.now()
		if at := s.ReadyAt(); at > now {
			// ...then jump the clock over the pacing gap...
			e.world.AdvanceTo(at)
			continue
		}
		if s.Deadline() > 0 {
			// ...or toward the N_Bs deadline one timer at a time,
			// stopping the moment the awaited FlowControl lands (a
			// Wait chain re-arms the deadline; a Continue clears it,
			// and simulated time must not inflate past that point).
			for s.Deadline() > 0 && e.now() < s.Deadline() {
				e.world.Step(s.Deadline())
				if err := e.takeSendErr(); err != nil {
					e.stats.AbortedSends++
					return total, fmt.Errorf("transport: send: %w", err)
				}
			}
			if err := s.OnTimeout(e.now()); err != nil {
				e.stats.AbortedSends++
				return total, fmt.Errorf("transport: send: %w", err)
			}
			continue
		}
		if s.Done() {
			break
		}
		return total, errors.New("transport: sender stalled")
	}
	e.stats.MessagesSent++
	e.stats.PayloadBytesSent += len(m.Payload)
	return total, nil
}

// takeSendErr consumes a terminal verdict (Overflow, Wait budget)
// delivered to the sender by Service mid-transfer.
func (e *Endpoint) takeSendErr() error {
	err := e.sendErr
	e.sendErr = nil
	return err
}

// transmit puts one ISO-TP frame payload on the wire, charging the
// frame to the endpoint's counters (so FlowControls and the frames of
// an eventually-aborted transfer are accounted too).
func (e *Endpoint) transmit(payload []byte) (time.Duration, error) {
	wt, err := e.node.Send(canbus.Frame{ID: e.txID, BRS: true, Data: payload})
	if err != nil {
		return 0, err
	}
	e.stats.FramesSent++
	e.stats.WireTime += wt
	return wt, nil
}

// Service drains the receive queue into the protocol state machines:
// frames failing the acceptance filter are dropped, FlowControls feed
// the active sender, data frames feed the receiver (answering with
// FCs as the receiver dictates), completed messages land in the inbox
// after checksum verification. Malformed frames and messages are
// counted and dropped, never surfaced. It also services the receiver's
// timers. Returns the number of frames processed, as the world pump's
// progress measure.
func (e *Endpoint) Service() int {
	processed := 0
	for {
		frame, ok := e.node.Receive()
		if !ok {
			break
		}
		processed++
		if e.cfg.AcceptID != 0 && frame.ID != e.cfg.AcceptID {
			e.stats.FilteredFrames++
			continue
		}
		now := e.now()
		if len(frame.Data) > 0 && frame.Data[0]>>4 == 0x3 {
			e.serviceFlowControl(frame.Data, now)
			continue
		}
		msg, fc, err := e.rx.Push(frame.Data, now)
		if err != nil {
			e.stats.ProtocolDrops++
			continue
		}
		if fc != nil {
			// An FC that fails to go out is no different from one lost on
			// the wire: the sender's N_Bs timer recovers either.
			_, _ = e.transmit(fc)
		}
		if msg != nil {
			e.deliver(msg)
		}
	}
	e.expire()
	return processed
}

// serviceFlowControl routes an FC frame to the active sender, or
// validates and discards it when no transfer is in flight.
func (e *Endpoint) serviceFlowControl(data []byte, now time.Duration) {
	if e.sender != nil {
		if err := e.sender.OnFlowControl(data, now); err != nil {
			// Terminal verdicts surface to the Send loop; malformed
			// FCs are counted and dropped.
			if errors.Is(err, cantp.ErrFlowOverflow) || errors.Is(err, cantp.ErrWaitBudget) {
				e.sendErr = err
			} else {
				e.stats.ProtocolDrops++
			}
		}
		return
	}
	if _, _, _, err := cantp.ParseFlowControl(data); err != nil {
		e.stats.ProtocolDrops++
	}
}

// expire services the receiver's simulated-time obligations: owed
// Wait-chain FlowControls are transmitted, and N_Cr expiry abandons
// the partial transfer (counted by the receiver).
func (e *Endpoint) expire() {
	for {
		fc, err := e.rx.Expire(e.now())
		if fc != nil {
			e.transmit(fc)
			continue
		}
		_ = err // abandonment is counted in ReceiverStats
		return
	}
}

// nextDeadline exposes the receiver's earliest timer to the world.
func (e *Endpoint) nextDeadline() time.Duration { return e.rx.Deadline() }

// deliver verifies, decodes and enqueues a reassembled message.
func (e *Endpoint) deliver(raw []byte) {
	if e.cfg.Checksum {
		stripped, ok := verifyChecksum(raw)
		if !ok {
			e.stats.IntegrityDrops++
			return
		}
		raw = stripped
	}
	if e.lastMsg != nil && bytes.Equal(raw, e.lastMsg) {
		// A duplicated SingleFrame (or a whole-message resend that
		// crossed its own reply) delivers the same bytes twice;
		// surfacing both would desynchronize strict request/response
		// protocols.
		e.stats.DuplicateMessages++
		return
	}
	msg, err := DecodeMessage(raw)
	if err != nil {
		e.stats.ProtocolDrops++
		return
	}
	e.lastMsg = append([]byte(nil), raw...)
	e.inbox = append(e.inbox, msg)
	e.stats.MessagesReceived++
}

// ErrNoMessage is returned by Poll when no complete message is pending.
var ErrNoMessage = errors.New("transport: no complete message available")

// Poll services the endpoint and returns the oldest complete message,
// or ErrNoMessage when none is pending.
func (e *Endpoint) Poll() (Message, error) {
	e.Service()
	if len(e.inbox) == 0 {
		return Message{}, ErrNoMessage
	}
	msg := e.inbox[0]
	e.inbox = e.inbox[1:]
	return msg, nil
}

// appendChecksum suffixes data with its CRC-32 (IEEE).
func appendChecksum(data []byte) []byte {
	out := make([]byte, len(data)+ChecksumSize)
	copy(out, data)
	binary.BigEndian.PutUint32(out[len(data):], crc32.ChecksumIEEE(data))
	return out
}

// verifyChecksum strips and checks the CRC-32 trailer.
func verifyChecksum(data []byte) ([]byte, bool) {
	if len(data) < ChecksumSize {
		return nil, false
	}
	body := data[:len(data)-ChecksumSize]
	want := binary.BigEndian.Uint32(data[len(body):])
	return body, crc32.ChecksumIEEE(body) == want
}

// WireCost returns the total simulated wire time and frame count for
// sending a payload of n application bytes (header included) without
// transmitting anything — the static accounting used by the overhead
// tables.
func WireCost(n int, rates canbus.BitRates) (time.Duration, int, error) {
	frames, fc, err := cantp.FrameCount(n + HeaderSize)
	if err != nil {
		return 0, 0, err
	}
	// Data frames are full 64-byte frames except possibly the last;
	// for the static estimate assume full frames (upper bound).
	var total time.Duration
	for i := 0; i < frames; i++ {
		f := canbus.Frame{BRS: true, Data: make([]byte, canbus.MaxDataLen)}
		wt, err := f.WireTime(rates)
		if err != nil {
			return 0, 0, err
		}
		total += wt
	}
	if fc {
		f := canbus.Frame{BRS: true, Data: make([]byte, 3)}
		wt, err := f.WireTime(rates)
		if err != nil {
			return 0, 0, err
		}
		total += wt
		frames++
	}
	return total, frames, nil
}
