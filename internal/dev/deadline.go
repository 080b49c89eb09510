package dev

// expire zeroes the interrupt-poll deadline a device shares with its
// machine (emu.Machine.IRQDeadline): the machine skips every interrupt
// poll before that cycle, so a device zeroes it wherever its interrupt
// output (MEIP, MTIP or MSIP) or its next scheduled event can change —
// an MMIO store to a control register, a side-effecting load (a UART
// receive pop, a claim of the test line), a host call (Feed, TriggerAt,
// Advance, Restore) or an event firing in Tick. Plain reads and RAM
// traffic leave it alone. A device with no deadline wired ignores it.
func expire(deadline *uint64) {
	if deadline != nil {
		*deadline = 0
	}
}
