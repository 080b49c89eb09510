package dev

// PLIC register offsets (single-context, flat-priority subset of the
// platform-level interrupt controller: one pending word, one enable
// word, and a claim register that acknowledges the lowest pending line).
const (
	PLICPending uint32 = 0x00 // read: asserted lines (bit N = line N)
	PLICEnable  uint32 = 0x04 // read/write: enabled lines
	PLICClaim   uint32 = 0x08 // read: lowest pending&enabled line, 0 if none

	// PLICSize is the mapped window size.
	PLICSize uint32 = 0x1000
)

// The platform's interrupt line assignment. Line 0 is reserved ("no
// interrupt", the claim register's idle value), as in the real PLIC.
const (
	PLICLineDMA  = 1 // DMA transfer-complete (level, from the DMA engine)
	PLICLineUART = 2 // UART receive-available (level, rx queue non-empty)
	PLICLineTest = 3 // host-scheduled test trigger (edge, see TriggerAt)

	plicLines = 4 // lines 1..3 implemented
)

// PLIC is a platform-level interrupt controller reduced to the essence
// the single-hart edge platform needs: level-sensitive source lines, an
// enable mask, and a claim register. It funnels all device lines into
// the hart's single machine-external-interrupt (MEIP) bit; the handler
// reads PLICClaim to learn which line fired and re-reads it until it
// returns 0 (the claim-drain idiom the demonstrators use).
//
// Levels are sampled live from device callbacks on every register read
// and every Pending query, so an ISR that clears its device's interrupt
// condition immediately stops seeing the line in PLICClaim — real
// level-triggered semantics. Device state itself only changes at
// guest MMIO accesses, host calls and full interrupt polls (the
// platform ticks devices from the machine's poll), all of which the
// engines replicate exactly, keeping the sampled levels
// engine-independent. Each such change zeroes the machine's poll
// deadline, so the machine queries Pending only at a full poll: when a
// device zeroed the deadline, when a device event (NextEvent, the CLINT
// timer) fell due, or when a CSR write or the host changed what the
// last poll found. Any other poll would sample the same levels and is
// skipped.
//
// Line 3 is an edge-triggered test line the host arms with TriggerAt:
// it lets co-simulation harnesses assert an interrupt at an exact,
// adversarially chosen cycle, uniformly across workloads. It latches
// pending at the first Tick at or past the scheduled cycle and clears
// when claimed.
type PLIC struct {
	// IRQDeadline, when non-nil, is zeroed by every store, Restore,
	// TriggerAt, the test-line latch in Tick and a claim of the test
	// line.
	IRQDeadline *uint64

	enable  uint32
	sources [plicLines]func() bool // live level callbacks, may be nil

	trigArmed   bool
	trigAt      uint64
	trigPending bool
}

// NewPLIC creates a PLIC with all lines disabled and no sources wired.
func NewPLIC() *PLIC { return &PLIC{} }

// SetSource wires a live level callback for a line.
func (p *PLIC) SetSource(line int, fn func() bool) {
	if line > 0 && line < plicLines {
		p.sources[line] = fn
	}
}

// TriggerAt arms the edge-triggered test line (PLICLineTest) to assert
// at the given cycle. The line latches pending at the first Tick with
// cycle >= at and stays pending until claimed; the assert time is the
// scheduled cycle, regardless of when the CPU first polls.
func (p *PLIC) TriggerAt(at uint64) {
	p.trigArmed = true
	p.trigAt = at
	p.trigPending = false
	expire(p.IRQDeadline)
}

// TriggerCycle returns the cycle the test line was (or will be)
// asserted at, and ok=false if it was never armed.
func (p *PLIC) TriggerCycle() (uint64, bool) {
	if !p.trigArmed && !p.trigPending {
		return 0, false
	}
	return p.trigAt, true
}

// Tick latches the test line at the given cycle. The platform calls it
// from every full interrupt poll; the machine polls fully at the first
// boundary at or past NextEvent.
func (p *PLIC) Tick(cycle uint64) {
	if p.trigArmed && cycle >= p.trigAt {
		p.trigArmed = false
		p.trigPending = true
		expire(p.IRQDeadline)
	}
}

// NextEvent returns the cycle the armed test line latches at, and
// ok=false while it is not armed.
func (p *PLIC) NextEvent() (uint64, bool) { return p.trigAt, p.trigArmed }

// sample reads the current line levels.
func (p *PLIC) sample() uint32 {
	var lv uint32
	for i := 1; i < plicLines; i++ {
		if fn := p.sources[i]; fn != nil && fn() {
			lv |= 1 << i
		}
	}
	if p.trigPending {
		lv |= 1 << PLICLineTest
	}
	return lv
}

// Pending reports whether any enabled line is asserted — the value of
// the hart's MEIP bit.
func (p *PLIC) Pending() bool { return p.sample()&p.enable != 0 }

// PLICState is a snapshot of the PLIC's architectural state. Line
// levels are not state: they are re-derived from the devices, whose
// own snapshots the platform restores alongside.
type PLICState struct {
	Enable      uint32
	TrigArmed   bool
	TrigAt      uint64
	TrigPending bool
}

// Snapshot captures the PLIC state.
func (p *PLIC) Snapshot() PLICState {
	return PLICState{
		Enable:      p.enable,
		TrigArmed:   p.trigArmed,
		TrigAt:      p.trigAt,
		TrigPending: p.trigPending,
	}
}

// Restore replaces the PLIC state with a snapshot.
func (p *PLIC) Restore(s PLICState) {
	p.enable = s.Enable
	p.trigArmed = s.TrigArmed
	p.trigAt = s.TrigAt
	p.trigPending = s.TrigPending
	expire(p.IRQDeadline)
}

// Load implements mem.Device.
func (p *PLIC) Load(off uint32, size uint8) (uint32, bool) {
	switch off {
	case PLICPending:
		return p.sample(), true
	case PLICEnable:
		return p.enable, true
	case PLICClaim:
		pend := p.sample() & p.enable
		for i := 1; i < plicLines; i++ {
			if pend&(1<<i) != 0 {
				if i == PLICLineTest {
					// Edge line: the claim is the acknowledgement.
					p.trigPending = false
					expire(p.IRQDeadline)
				}
				return uint32(i), true
			}
		}
		return 0, true
	}
	return 0, false
}

// Store implements mem.Device.
func (p *PLIC) Store(off uint32, size uint8, val uint32) bool {
	expire(p.IRQDeadline)
	switch off {
	case PLICEnable:
		p.enable = val & (1<<plicLines - 1) &^ 1
		return true
	case PLICPending, PLICClaim:
		return true // writes ignored
	}
	return false
}
