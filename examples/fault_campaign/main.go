// Fault-effect demonstrator: qualify the PID sensor-control loop against
// random bit-flip faults, the ISO 26262-style robustness argument the
// ecosystem's fault analysis produces. A golden run fixes the expected
// behaviour; hundreds of mutants (register upsets, stuck memory cells,
// corrupted instruction words) are then simulated in parallel and each
// outcome is classified.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/vp"
	"repro/internal/workloads"
)

func main() {
	w, ok := workloads.ByName("pid")
	if !ok {
		log.Fatal("pid workload missing")
	}
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		log.Fatal(err)
	}
	target := &fault.Target{Program: prog, Budget: w.Budget, Sensor: w.Sensor}

	// The golden run, once: its compiled translations become the pool
	// every campaign worker warm-starts from.
	golden, pool, err := fault.Prepare(target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden run: %v after %d instructions\n\n", golden.Stop, golden.Insts)

	end := vp.RAMBase + uint32(len(prog.Bytes))
	plan := fault.NewPlan(fault.PlanConfig{
		Seed:         2024,
		GPRTransient: 300,
		MemPermanent: 100,
		CodeBitflip:  200,
		GoldenInsts:  golden.Insts,
		CodeStart:    vp.RAMBase,
		CodeEnd:      end,
		DataStart:    vp.RAMBase,
		DataEnd:      end,
	})

	workers := runtime.NumCPU()
	start := time.Now()
	res, err := fault.CampaignOpt(target, plan, fault.Options{Workers: workers, Golden: golden, Pool: pool})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Print(res)
	fmt.Printf("\n%d mutants in %v (%.0f mutants/sec on %d workers)\n",
		res.Total, elapsed.Round(time.Millisecond),
		float64(res.Total)/elapsed.Seconds(), workers)

	sdc := res.ByOutcome[fault.SDC]
	fmt.Printf("\nsilent data corruptions: %d/%d (%.1f%%) — these are the cases\n",
		sdc, res.Total, 100*float64(sdc)/float64(res.Total))
	fmt.Println("a safety mechanism (e.g. redundant computation) must cover.")
}
