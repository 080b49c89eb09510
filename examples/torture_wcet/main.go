// Torture-WCET demonstrator: generate random test programs, bound them
// with the static analyzer using ONLY automatic loop-bound inference
// (no annotations), execute them, and check the bound held — random
// differential validation of the whole timing flow, the kind of
// cross-component stress a tool ecosystem earns its keep with.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/flow"
	"repro/internal/isa"
	"repro/internal/timing"
	"repro/internal/torture"
	"repro/internal/vp"
)

func main() {
	prof := timing.EdgeSmall()
	const runs = 20

	fmt.Printf("%-6s %10s %10s %8s %8s  %s\n",
		"seed", "wcet", "dynamic", "ratio", "loops", "verdict")

	worst := 0.0
	for seed := int64(0); seed < runs; seed++ {
		prog := torture.Generate(torture.Config{Seed: seed, Insts: 250, ISA: isa.RV32IM})

		// Static analysis with inference only: the interval analysis
		// bounds the generator's counted loops.
		bin, err := asm.AssembleAt(vp.Prelude+prog.Source, vp.RAMBase)
		if err != nil {
			log.Fatalf("seed %d: %v", seed, err)
		}
		a, err := flow.Analyze(context.Background(), bin, prof, nil, true)
		if err != nil {
			log.Fatalf("seed %d: %v", seed, err)
		}

		p, err := vp.New(vp.Config{Profile: prof})
		if err != nil {
			log.Fatal(err)
		}
		if err := p.LoadProgram(bin); err != nil {
			log.Fatal(err)
		}
		stop := p.Run(prog.Budget)
		if stop.Reason != emu.StopExit {
			log.Fatalf("seed %d: %v", seed, stop)
		}

		dyn := p.Machine.Hart.Cycle
		p.Release()
		ratio := float64(a.Annotated.WCET) / float64(dyn)
		verdict := "OK"
		if a.Annotated.WCET < dyn {
			verdict = "UNSOUND"
		}
		if ratio > worst {
			worst = ratio
		}
		fmt.Printf("%-6d %10d %10d %8.2f %8d  %s\n",
			seed, a.Annotated.WCET, dyn, ratio, len(a.Annotated.Bounds), verdict)
		if verdict != "OK" {
			log.Fatal("soundness violation — this must never print")
		}
	}
	fmt.Printf("\n%d random programs bounded with zero annotations; worst pessimism %.2fx\n",
		runs, worst)
}
