// WCET budgeting demonstrator: an edge device runs a periodic PID
// control step and a FIR filter stage and must prove both fit their
// cycle budgets. The example drives the full QTA flow — static WCET
// analysis of the binary, then co-simulation against the WCET-annotated
// CFG — and checks each task's bound against its deadline, the
// paper's motivating use of timing-annotated emulation.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/flow"
	"repro/internal/timing"
	"repro/internal/workloads"
)

func main() {
	prof := timing.EdgeSmall()
	tasks := []struct {
		name     string
		deadline uint64 // cycle budget per activation
	}{
		{"pid", 3_000},
		{"fir", 40_000},
	}

	fmt.Printf("WCET budgeting on the %s core model\n\n", prof.Name())
	fmt.Printf("%-8s %10s %10s %10s %10s  %s\n",
		"task", "deadline", "static", "qta", "dynamic", "verdict")

	for _, task := range tasks {
		w, ok := workloads.ByName(task.name)
		if !ok {
			log.Fatalf("workload %s missing", task.name)
		}
		// Static analysis + annotated co-simulation in one call.
		res, err := flow.RunQTA(context.Background(), w, prof, asm.Options{})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "OK: fits budget"
		if res.StaticWCET > task.deadline {
			verdict = "VIOLATION: bound exceeds deadline"
		}
		fmt.Printf("%-8s %10d %10d %10d %10d  %s\n",
			task.name, task.deadline, res.StaticWCET, res.QTATime, res.Dynamic, verdict)
		if !res.Sound() {
			log.Fatalf("%s: soundness violated (static %d, qta %d, dynamic %d)",
				task.name, res.StaticWCET, res.QTATime, res.Dynamic)
		}
	}

	fmt.Println("\nThe three columns tighten left to right: the static bound covers")
	fmt.Println("every path; QTA covers the observed path with worst-case block")
	fmt.Println("costs; dynamic is the cycle-accurate pipeline simulation.")
}
