package dev

import "fmt"

// CLINT register offsets (single-hart subset of the SiFive CLINT layout).
const (
	CLINTMsip      uint32 = 0x0000 // software interrupt pending (bit 0)
	CLINTMtimecmp  uint32 = 0x4000 // timer compare, low word
	CLINTMtimecmpH uint32 = 0x4004
	CLINTMtime     uint32 = 0xbff8 // free-running timer, low word
	CLINTMtimeH    uint32 = 0xbffc

	// CLINTSize is the mapped window size.
	CLINTSize uint32 = 0xc000
)

// CLINT is a core-local interruptor: a 64-bit mtime counter advanced by
// the emulator's cycle count, an mtimecmp compare register, and an msip
// software-interrupt bit.
type CLINT struct {
	// Epoch, when non-nil, is advanced by every store, Restore and
	// Advance: each can move mtimecmp, msip or mtime.
	Epoch *Epoch

	mtime    uint64
	mtimecmp uint64
	msip     bool
}

// NewCLINT creates a CLINT with mtimecmp at its reset value (all ones, so
// no timer interrupt fires until software programs it).
func NewCLINT() *CLINT { return &CLINT{mtimecmp: ^uint64(0)} }

// CLINTState is a snapshot of the CLINT's registers.
type CLINTState struct {
	Mtime, Mtimecmp uint64
	Msip            bool
}

// Snapshot captures the CLINT state.
func (c *CLINT) Snapshot() CLINTState {
	return CLINTState{Mtime: c.mtime, Mtimecmp: c.mtimecmp, Msip: c.msip}
}

// Restore replaces the CLINT state with a snapshot.
func (c *CLINT) Restore(s CLINTState) {
	c.mtime, c.mtimecmp, c.msip = s.Mtime, s.Mtimecmp, s.Msip
	c.Epoch.bump()
}

// Advance moves mtime forward by the given number of ticks.
func (c *CLINT) Advance(ticks uint64) {
	c.mtime += ticks
	c.Epoch.bump()
}

// SetTime sets mtime directly (the emulator syncs it to mcycle at every
// interrupt poll point). It does not advance the epoch: the machine
// tracks the timer through NextTimerEvent instead.
func (c *CLINT) SetTime(t uint64) { c.mtime = t }

// Time returns the current mtime.
func (c *CLINT) Time() uint64 { return c.mtime }

// TimerPending reports whether the machine timer interrupt is asserted.
func (c *CLINT) TimerPending() bool { return c.mtime >= c.mtimecmp }

// SoftwarePending reports whether the machine software interrupt is
// asserted.
func (c *CLINT) SoftwarePending() bool { return c.msip }

// NextTimerEvent returns the mtime value at which the timer interrupt
// will assert, and ok=false if it is already pending or unprogrammed.
func (c *CLINT) NextTimerEvent() (uint64, bool) {
	if c.TimerPending() || c.mtimecmp == ^uint64(0) {
		return 0, false
	}
	return c.mtimecmp, true
}

// Load implements mem.Device.
func (c *CLINT) Load(off uint32, size uint8) (uint32, error) {
	switch off {
	case CLINTMsip:
		if c.msip {
			return 1, nil
		}
		return 0, nil
	case CLINTMtimecmp:
		return uint32(c.mtimecmp), nil
	case CLINTMtimecmpH:
		return uint32(c.mtimecmp >> 32), nil
	case CLINTMtime:
		return uint32(c.mtime), nil
	case CLINTMtimeH:
		return uint32(c.mtime >> 32), nil
	}
	return 0, fmt.Errorf("clint: bad offset 0x%x", off)
}

// Store implements mem.Device.
func (c *CLINT) Store(off uint32, size uint8, val uint32) error {
	c.Epoch.bump()
	switch off {
	case CLINTMsip:
		c.msip = val&1 != 0
		return nil
	case CLINTMtimecmp:
		c.mtimecmp = c.mtimecmp&^uint64(0xffffffff) | uint64(val)
		return nil
	case CLINTMtimecmpH:
		c.mtimecmp = c.mtimecmp&0xffffffff | uint64(val)<<32
		return nil
	case CLINTMtime:
		c.mtime = c.mtime&^uint64(0xffffffff) | uint64(val)
		return nil
	case CLINTMtimeH:
		c.mtime = c.mtime&0xffffffff | uint64(val)<<32
		return nil
	}
	return fmt.Errorf("clint: bad offset 0x%x", off)
}
