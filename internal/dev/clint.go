package dev

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

// CLINT is a core-local interruptor: a 64-bit mtime counter that
// follows a clock (the emulator's cycle count), an mtimecmp compare
// register, and an msip software-interrupt bit. mtime is not stored: it
// reads as the clock plus an offset, which guest mtime stores, Advance
// and Restore move.
type CLINT struct {
	// IRQDeadline, when non-nil, is zeroed by every store, Restore and
	// Advance: each can move mtimecmp, msip or mtime.
	IRQDeadline *uint64

	// Now, when non-nil, is the clock mtime follows; the platform wires
	// it to the cycle of the machine's last interrupt poll point
	// (emu.Machine.PollCycle). A CLINT without one reads the clock as 0.
	Now func() uint64

	off      uint64 // mtime minus the clock
	mtimecmp uint64
	msip     bool
}

// NewCLINT creates a CLINT with mtimecmp at its reset value (all ones, so
// no timer interrupt fires until software programs it).
func NewCLINT() *CLINT { return &CLINT{mtimecmp: ^uint64(0)} }

// CLINTState is a snapshot of the CLINT's registers. mtime is kept as
// its offset from the clock, so a restore together with the clock's own
// (the hart's cycle counter) resumes the same time base.
type CLINTState struct {
	MtimeOffset, Mtimecmp uint64
	Msip                  bool
}

// Snapshot captures the CLINT state.
func (c *CLINT) Snapshot() CLINTState {
	return CLINTState{MtimeOffset: c.off, Mtimecmp: c.mtimecmp, Msip: c.msip}
}

// Restore replaces the CLINT state with a snapshot.
func (c *CLINT) Restore(s CLINTState) {
	c.off, c.mtimecmp, c.msip = s.MtimeOffset, s.Mtimecmp, s.Msip
	expire(c.IRQDeadline)
}

// Advance moves mtime forward by the given number of ticks.
func (c *CLINT) Advance(ticks uint64) {
	c.off += ticks
	expire(c.IRQDeadline)
}

// clock reads the clock mtime follows.
func (c *CLINT) clock() uint64 {
	if c.Now == nil {
		return 0
	}
	return c.Now()
}

// Time returns the current mtime.
func (c *CLINT) Time() uint64 { return c.clock() + c.off }

// setTime makes mtime read t at the current clock.
func (c *CLINT) setTime(t uint64) { c.off = t - c.clock() }

// TimerPending reports whether the machine timer interrupt is asserted.
func (c *CLINT) TimerPending() bool { return c.Time() >= c.mtimecmp }

// SoftwarePending reports whether the machine software interrupt is
// asserted.
func (c *CLINT) SoftwarePending() bool { return c.msip }

// NextTimerEvent returns the clock value at which the timer interrupt
// will assert, and ok=false if it is already pending, unprogrammed or
// beyond the clock's range.
func (c *CLINT) NextTimerEvent() (uint64, bool) {
	now := c.clock()
	if mt := now + c.off; mt < c.mtimecmp && c.mtimecmp != ^uint64(0) {
		if at := now + (c.mtimecmp - mt); at > now {
			return at, true
		}
	}
	return 0, false
}

// Load implements mem.Device.
func (c *CLINT) Load(off uint32, size uint8) (uint32, bool) {
	switch off {
	case CLINTMsip:
		if c.msip {
			return 1, true
		}
		return 0, true
	case CLINTMtimecmp:
		return uint32(c.mtimecmp), true
	case CLINTMtimecmpH:
		return uint32(c.mtimecmp >> 32), true
	case CLINTMtime:
		return uint32(c.Time()), true
	case CLINTMtimeH:
		return uint32(c.Time() >> 32), true
	}
	return 0, false
}

// Store implements mem.Device.
func (c *CLINT) Store(off uint32, size uint8, val uint32) bool {
	expire(c.IRQDeadline)
	switch off {
	case CLINTMsip:
		c.msip = val&1 != 0
		return true
	case CLINTMtimecmp:
		c.mtimecmp = c.mtimecmp&^uint64(0xffffffff) | uint64(val)
		return true
	case CLINTMtimecmpH:
		c.mtimecmp = c.mtimecmp&0xffffffff | uint64(val)<<32
		return true
	case CLINTMtime:
		c.setTime(c.Time()&^uint64(0xffffffff) | uint64(val))
		return true
	case CLINTMtimeH:
		c.setTime(c.Time()&0xffffffff | uint64(val)<<32)
		return true
	}
	return false
}
