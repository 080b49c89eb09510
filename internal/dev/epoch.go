package dev

// Epoch is the platform's interrupt epoch: one counter shared by the
// CLINT, UART, DMA engine and PLIC, advanced wherever a device's
// interrupt input (MEIP, MTIP or MSIP) or its next scheduled event can
// change — an MMIO store to a control register, a side-effecting load
// (a UART receive pop, a claim of the test line), a host call (Feed,
// TriggerAt, Advance, Restore) or an event firing in Tick. Plain reads
// and RAM traffic leave it alone. The machine compares it against the
// value seen at its last full interrupt poll: while it is unchanged and
// no event is due, the poll's outcome is known without asking the
// devices (emu.Machine.Epoch).
type Epoch uint64

// bump advances the epoch; a device with no epoch wired ignores it.
func (e *Epoch) bump() {
	if e != nil {
		*e++
	}
}
