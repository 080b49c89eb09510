// Quickstart: assemble a bare-metal RISC-V program with the built-in
// assembler, run it on the edge virtual platform, and read its UART
// output and performance counters — the minimal end-to-end tour of the
// ecosystem's public surface.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/timing"
	"repro/internal/vp"
)

const hello = `
_start:
	la   a0, msg
	li   a1, UART_TX
1:	lbu  a2, 0(a0)          # next byte of the message
	beqz a2, 2f
	sw   a2, 0(a1)          # transmit
	addi a0, a0, 1
	j    1b
2:	li   a0, 0              # exit code
	li   t6, SYSCON_EXIT
	sw   a0, 0(t6)
3:	j    3b

msg:	.asciz "hello from the Scale4Edge VP!\n"
`

func main() {
	// Build the platform: one RV32 hart, RAM, UART, CLINT, syscon, with
	// the small edge core's timing model.
	p, err := vp.New(vp.Config{
		Profile:    timing.EdgeSmall(),
		ConsoleOut: os.Stdout, // UART bytes stream here as they are written
	})
	if err != nil {
		log.Fatal(err)
	}

	// Assemble and load. vp.Prelude defines the device addresses
	// (UART_TX, SYSCON_EXIT, ...) used by the source.
	if _, err := p.LoadSource(vp.Prelude + hello); err != nil {
		log.Fatal(err)
	}

	// Run to completion (the program exits through the syscon device).
	stop := p.Run(1_000_000)

	h := &p.Machine.Hart
	fmt.Printf("\nstop:         %v\n", stop)
	fmt.Printf("instructions: %d\n", h.Instret)
	fmt.Printf("cycles:       %d (%s core model)\n", h.Cycle, timing.EdgeSmall().Name())
	fmt.Printf("CPI:          %.2f\n", float64(h.Cycle)/float64(h.Instret))

	// Hand the platform's RAM back for the next vp.New of its size.
	p.Release()
}
