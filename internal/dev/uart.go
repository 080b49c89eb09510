// Package dev implements the MMIO peripherals of the virtual platform:
// a console UART, a CLINT-style core-local interruptor (timer + software
// interrupts), a test-finisher "syscon" used by bare-metal programs to
// halt the simulation with an exit code, and a synthetic sensor used by
// the edge demonstrators.
package dev

import (
	"bytes"
	"io"
)

// UART register offsets (one 32-bit register per slot).
const (
	UARTTxData uint32 = 0x00 // write: transmit low byte
	UARTRxData uint32 = 0x04 // read: next input byte, or 0xffffffff if empty
	UARTStatus uint32 = 0x08 // read: bit0 tx-ready (always), bit1 rx-avail
)

// UART is a minimal memory-mapped console. Transmitted bytes go to an
// io.Writer (and are also retained for inspection); received bytes come
// from a caller-provided queue.
type UART struct {
	// IRQDeadline, when non-nil, is zeroed wherever the receive queue
	// can change — the level of the UART's PLIC line: Feed, Restore and
	// a pop of UARTRxData. Transmits and status reads leave it alone.
	IRQDeadline *uint64

	out  io.Writer
	outB [1]byte // the byte being written to out, so Store allocates nothing
	tx   bytes.Buffer
	rx   []byte
}

// NewUART creates a UART writing transmitted bytes to out. A nil out
// retains output for Output() only.
func NewUART(out io.Writer) *UART { return &UART{out: out} }

// Output returns everything transmitted so far.
func (u *UART) Output() string { return u.tx.String() }

// Feed appends bytes to the receive queue.
func (u *UART) Feed(data []byte) {
	u.rx = append(u.rx, data...)
	expire(u.IRQDeadline)
}

// RxAvail reports whether the receive queue is non-empty — the level of
// the UART's PLIC interrupt line.
func (u *UART) RxAvail() bool { return len(u.rx) > 0 }

// UARTState is a snapshot of the UART's architectural state.
type UARTState struct {
	TX string
	RX []byte
}

// Snapshot captures the UART state.
func (u *UART) Snapshot() UARTState {
	rx := make([]byte, len(u.rx))
	copy(rx, u.rx)
	return UARTState{TX: u.tx.String(), RX: rx}
}

// Restore replaces the UART state with a snapshot. The external writer
// is not rewound; restored output is visible through Output only.
func (u *UART) Restore(s UARTState) {
	u.tx.Reset()
	u.tx.WriteString(s.TX)
	u.rx = append(u.rx[:0], s.RX...)
	expire(u.IRQDeadline)
}

// Load implements mem.Device.
func (u *UART) Load(off uint32, size uint8) (uint32, bool) {
	switch off {
	case UARTTxData:
		return 0, true
	case UARTRxData:
		if len(u.rx) == 0 {
			return 0xffffffff, true
		}
		b := u.rx[0]
		u.rx = u.rx[1:]
		expire(u.IRQDeadline)
		return uint32(b), true
	case UARTStatus:
		st := uint32(1) // tx always ready
		if len(u.rx) > 0 {
			st |= 2
		}
		return st, true
	}
	return 0, false
}

// Store implements mem.Device.
func (u *UART) Store(off uint32, size uint8, val uint32) bool {
	switch off {
	case UARTTxData:
		b := byte(val)
		u.tx.WriteByte(b)
		if u.out != nil {
			u.outB[0] = b
			if _, err := u.out.Write(u.outB[:]); err != nil {
				return false
			}
		}
		return true
	case UARTRxData, UARTStatus:
		return true // writes ignored
	}
	return false
}
