package canbus

import "time"

// Clock is the simulated network time shared by buses, gateways and
// the transport layer. The experiments do not sleep: wire occupancy,
// gateway store-and-forward latency and protocol timeouts all advance
// this logical clock, which keeps impaired-network runs exactly
// reproducible under a fixed seed regardless of host scheduling.
//
// A clock belongs to one world (transport.World) and, like every
// fabric object, is driven by one goroutine at a time: it has no lock
// of its own, and the race detector reports any unsynchronized access
// from a second goroutine.
//
// A nil *Clock is a valid "no timekeeping" clock: every method is a
// cheap no-op returning zero, so the lossless fast path pays nothing.
type Clock struct {
	now time.Duration
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration {
	if c == nil {
		return 0
	}
	return c.now
}

// Advance moves the clock forward by d (ignored when non-positive) and
// returns the new time.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if c == nil {
		return 0
	}
	if d > 0 {
		c.now += d
	}
	return c.now
}

// AdvanceTo moves the clock forward to t; a t in the past is a no-op
// (simulated time never runs backwards). It returns the current time.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	if c == nil {
		return 0
	}
	if t > c.now {
		c.now = t
	}
	return c.now
}
