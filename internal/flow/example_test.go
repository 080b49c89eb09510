package flow_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/flow"
	"repro/internal/timing"
	"repro/internal/workloads"
)

// Example runs the complete QTA flow — static WCET analysis plus the
// timing-annotated co-simulation — for the PID demonstrator and checks
// the fundamental ordering.
func Example() {
	w, _ := workloads.ByName("pid")
	res, err := flow.RunQTA(context.Background(), w, timing.EdgeSmall(), asm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ordering holds:", res.StaticWCET >= res.QTATime && res.QTATime >= res.Dynamic)
	fmt.Println("sound:", res.Sound())
	// Output:
	// ordering holds: true
	// sound: true
}
