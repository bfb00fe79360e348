// Package canbus models a CAN-FD network segment: frame format, dual
// bit-rate wire timing and an in-memory bus with transmission
// statistics.
//
// The prototype evaluation of the paper (§V-C, Figures 5–7) runs the
// key-derivation session between a BMS and an EVCC controller over
// CAN-FD with a 0.5 Mbit/s nominal (arbitration) phase and a 2 Mbit/s
// data phase. This package reproduces the data-link layer of Figure 6
// — SOF / identifier / control / data / CRC / ACK / EOF fields — with
// bit-level accounting so the experiment harness can report wire time
// separately from processing time (the paper measures the CAN-FD
// transfer share at < 1 ms).
package canbus

import (
	"errors"
	"fmt"
	"time"
)

// MaxDataLen is the CAN-FD payload limit.
const MaxDataLen = 64

// validDataLens are the payload sizes expressible by a CAN-FD DLC.
var validDataLens = [...]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 24, 32, 48, 64}

// PadToDLC returns the smallest valid CAN-FD payload length ≥ n. CAN-FD
// cannot express arbitrary lengths above 8 bytes, so frames are padded;
// the ISO-TP layer accounts for this when segmenting.
func PadToDLC(n int) (int, error) {
	if n < 0 || n > MaxDataLen {
		return 0, fmt.Errorf("canbus: payload length %d out of range", n)
	}
	for _, l := range validDataLens {
		if l >= n {
			return l, nil
		}
	}
	return 0, fmt.Errorf("canbus: payload length %d not mappable", n)
}

// DLCForLen returns the 4-bit DLC code for a valid CAN-FD payload
// length.
func DLCForLen(n int) (byte, error) {
	for code, l := range validDataLens {
		if l == n {
			return byte(code), nil
		}
	}
	return 0, fmt.Errorf("canbus: %d is not a valid CAN-FD payload length", n)
}

// LenForDLC inverts DLCForLen.
func LenForDLC(dlc byte) (int, error) {
	if int(dlc) >= len(validDataLens) {
		return 0, fmt.Errorf("canbus: invalid DLC %d", dlc)
	}
	return validDataLens[dlc], nil
}

// Frame is a CAN-FD data frame. Only the fields relevant to timing and
// multiplexing are modelled.
//
// A delivered frame's Data is read-only. Send copies the payload once
// per broadcast (or pads it into a fresh buffer), so the sender may
// reuse its buffer at once, but every receiver, duplicate and tap of
// that broadcast shares the one delivered slice: a receiver that must
// modify the bytes copies them first. A gateway forwards that same
// slice onto the next segment, copying it only when that segment
// corrupts the frame.
type Frame struct {
	ID       uint32 // 11-bit standard or 29-bit extended identifier
	Extended bool   // 29-bit identifier format
	BRS      bool   // bit-rate switch: data phase at the fast rate
	Data     []byte // payload; length must be a valid DLC length
}

// Validate checks identifier range and payload length.
func (f *Frame) Validate() error {
	if f.Extended {
		if f.ID >= 1<<29 {
			return fmt.Errorf("canbus: extended ID %#x out of range", f.ID)
		}
	} else if f.ID >= 1<<11 {
		return fmt.Errorf("canbus: standard ID %#x out of range", f.ID)
	}
	if _, err := DLCForLen(len(f.Data)); err != nil {
		return err
	}
	return nil
}

// Bit accounting (ISO 11898-1:2015). The constants below follow the
// CAN-FD frame structure of Figure 6; dynamic stuff bits are estimated
// at the average rate of one per five payload bits, and the fixed stuff
// bits of the FD CRC field are included in the CRC size.
const (
	bitsSOF        = 1
	bitsBaseID     = 11
	bitsExtID      = 18 + 2 // extended identifier + SRR/IDE framing
	bitsArbCtrl    = 5      // RRS, IDE, FDF, res, BRS
	bitsESI        = 1
	bitsDLC        = 4
	bitsCRC17      = 17 + 5 + 6 // CRC17 + fixed stuff bits + stuff count
	bitsCRC21      = 21 + 6 + 6 // CRC21 (payload > 16 B) + fixed stuff + count
	bitsCRCDelim   = 1
	bitsACK        = 2 // slot + delimiter
	bitsEOF        = 7
	bitsInterFrame = 3
)

// WireBits returns the number of bits clocked at the nominal
// (arbitration) rate and at the data rate for this frame. Without BRS
// every bit runs at the nominal rate.
func (f *Frame) WireBits() (nominalBits, dataBits int) {
	arb := bitsSOF + bitsBaseID + bitsArbCtrl
	if f.Extended {
		arb += bitsExtID
	}
	tail := bitsCRCDelim + bitsACK + bitsEOF + bitsInterFrame

	crc := bitsCRC17
	if len(f.Data) > 16 {
		crc = bitsCRC21
	}
	payloadBits := 8 * len(f.Data)
	// Average dynamic stuffing: one stuff bit per five bits in the
	// stuffed region (ID through data).
	stuff := (arb + bitsESI + bitsDLC + payloadBits) / 5

	body := bitsESI + bitsDLC + payloadBits + crc + stuff

	if f.BRS {
		return arb + tail, body
	}
	return arb + tail + body, 0
}

// BitRates configures the two CAN-FD bit rates in bits per second.
type BitRates struct {
	Nominal float64 // arbitration-phase rate
	Data    float64 // data-phase rate (with BRS)
}

// PrototypeRates are the rates of the paper's test suite: 0.5 Mbit/s
// nominal, 2 Mbit/s data phase.
var PrototypeRates = BitRates{Nominal: 500e3, Data: 2e6}

// WireTime returns the time this frame occupies the bus at the given
// rates.
func (f *Frame) WireTime(r BitRates) (time.Duration, error) {
	if r.Nominal <= 0 || (f.BRS && r.Data <= 0) {
		return 0, errors.New("canbus: non-positive bit rate")
	}
	nom, dat := f.WireBits()
	seconds := float64(nom)/r.Nominal + float64(dat)/r.Data
	return time.Duration(seconds * float64(time.Second)), nil
}
