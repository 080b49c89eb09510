// Lockstep demonstrator: the classic automotive safety mechanism — two
// identical cores execute the same program step for step and a checker
// compares their architectural state after every instruction. A fault
// injected into one core is detected the moment the states diverge,
// bounding the fault-detection latency to one instruction. This is the
// safety pattern (AURIX-style lockstep) the ecosystem's fault analysis
// exists to validate.
package main

import (
	"fmt"
	"log"

	"repro/internal/isa"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// divergence compares the two harts and returns a description of the
// first mismatch, if any.
func divergence(a, b *vp.Platform) (string, bool) {
	ha, hb := &a.Machine.Hart, &b.Machine.Hart
	if ha.PC != hb.PC {
		return fmt.Sprintf("PC 0x%08x vs 0x%08x", ha.PC, hb.PC), true
	}
	for r := 1; r < isa.NumRegs; r++ {
		if ha.X[r] != hb.X[r] {
			return fmt.Sprintf("%s 0x%08x vs 0x%08x", isa.Reg(r), ha.X[r], hb.X[r]), true
		}
	}
	return "", false
}

func main() {
	w, ok := workloads.ByName("pid")
	if !ok {
		log.Fatal("pid workload missing")
	}
	build := func() *vp.Platform {
		p, err := vp.New(vp.Config{Sensor: w.Sensor})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := p.LoadSource(vp.Prelude + w.Source); err != nil {
			log.Fatal(err)
		}
		return p
	}
	main0, main1 := build(), build()
	defer main0.Release()
	defer main1.Release()

	// Inject a single-event upset into core 1 only: flip bit 7 of the
	// PID integral accumulator after 300 instructions.
	const faultAt, faultReg, faultBit = 300, isa.S0, 7

	fmt.Println("lockstep pair running the PID control loop")
	fmt.Printf("fault plan: flip %s bit %d in core-1 after %d instructions\n\n",
		faultReg, faultBit, faultAt)

	var step uint64
	for {
		s0 := main0.Machine.Step()
		s1 := main1.Machine.Step()
		step++
		if step == faultAt {
			main1.Machine.Hart.X[faultReg] ^= 1 << faultBit
		}
		if why, diverged := divergence(main0, main1); diverged {
			fmt.Printf("LOCKSTEP MISMATCH at instruction %d: %s\n", step, why)
			fmt.Printf("detection latency: %d instructions after injection\n", step-faultAt)
			fmt.Println("\nthe checker halts the pair here; a real ECU would now fail")
			fmt.Println("over to the safe state — the SDC a single core would have")
			fmt.Println("silently shipped is caught in bounded time.")
			return
		}
		if s0 != nil || s1 != nil {
			fmt.Printf("both cores finished identically after %d instructions (%v)\n", step, *s0)
			log.Fatal("fault was fully masked before any state comparison diverged")
		}
		if step > w.Budget {
			log.Fatal("budget exceeded without divergence")
		}
	}
}
