package fault_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// isrTarget assembles an interrupt demonstrator into a campaign target.
func isrTarget(t *testing.T, name string, latency uint64) (*fault.Target, workloads.Workload) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok || w.Handler == "" {
		t.Fatalf("interrupt workload %s missing", name)
	}
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	return &fault.Target{
		Program:       prog,
		Budget:        w.Budget,
		Profile:       timing.EdgeSmall(),
		Sensor:        w.Sensor,
		Stream:        w.Stream,
		UARTIn:        w.UARTIn,
		LatencyBudget: latency,
	}, w
}

// TestISRRegion pins the handler-region extraction: the region starts
// at the handler symbol and covers its mret.
func TestISRRegion(t *testing.T) {
	w, _ := workloads.ByName("pid_timer")
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	start, end, err := fault.ISRRegion(prog, w.Handler)
	if err != nil {
		t.Fatal(err)
	}
	if start != prog.Symbols["handler"] {
		t.Errorf("region starts at 0x%08x, want handler 0x%08x", start, prog.Symbols["handler"])
	}
	if end <= start || end > prog.Org+uint32(len(prog.Bytes)) {
		t.Errorf("region end 0x%08x outside program", end)
	}
	if _, _, err := fault.ISRRegion(prog, "nosuch"); err == nil {
		t.Error("missing handler symbol must fail")
	}
}

// isrPlan builds a deterministic ISR-targeted plan for a target.
func isrPlan(t *testing.T, tgt *fault.Target, w workloads.Workload, g *fault.Golden) fault.Plan {
	t.Helper()
	plan, err := fault.NewISRPlan(tgt.Program, w.Handler, fault.ISRPlanConfig{
		Seed:         42,
		GPRTransient: 12,
		GPRPermanent: 4,
		MemPermanent: 8,
		CodeBitflip:  8,
		GoldenInsts:  g.Insts,
		StackTop:     tgt.StackTop(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Faults) != 32 {
		t.Fatalf("plan has %d faults, want 32", len(plan.Faults))
	}
	return plan
}

// TestISRPlanRejectsMisalignedStack: memory faults flip bits of whole
// words, so a stack window that is not a whole number of words would
// plan flips past its top, and past the end of RAM.
func TestISRPlanRejectsMisalignedStack(t *testing.T) {
	tgt, w := isrTarget(t, "pid_timer", 0)
	_, err := fault.NewISRPlan(tgt.Program, w.Handler, fault.ISRPlanConfig{
		MemPermanent: 50, StackTop: tgt.StackTop(), StackBytes: 6,
	})
	if err == nil {
		t.Error("6-byte stack window accepted")
	}
}

// TestISRCampaignEngineIdentity runs the same ISR-targeted campaign,
// latency classification enabled, on every translated engine with the
// pool on and off: the per-mutant outcome vector must be bit-identical.
func TestISRCampaignEngineIdentity(t *testing.T) {
	for _, name := range []string{"pid_timer", "dma_stream"} {
		t.Run(name, func(t *testing.T) {
			var ref []fault.Outcome
			for _, eng := range []emu.Engine{emu.EngineSuperblock, emu.EngineSwitch} {
				for _, noPool := range []bool{false, true} {
					tgt, w := isrTarget(t, name, 3000)
					tgt.Engine = eng
					g, err := fault.RunGolden(tgt)
					if err != nil {
						t.Fatal(err)
					}
					plan := isrPlan(t, tgt, w, g)
					res, err := fault.CampaignOpt(tgt, plan, fault.Options{
						Workers:      2,
						NoSharedPool: noPool,
					})
					if err != nil {
						t.Fatalf("%v pool=%v: %v", eng, !noPool, err)
					}
					if ref == nil {
						ref = res.Details
						continue
					}
					for i := range res.Details {
						if res.Details[i] != ref[i] {
							t.Errorf("%v pool=%v: mutant %d = %v, want %v (%v)",
								eng, !noPool, i, res.Details[i], ref[i], plan.Faults[i])
						}
					}
				}
			}
		})
	}
}

// TestLatencyViolation pins the reclassification path: with an
// impossible 1-cycle latency budget, every mutant that would classify
// Masked or SDC must surface as LatencyViol instead — the interrupt
// demonstrators always observe a positive service latency.
func TestLatencyViolation(t *testing.T) {
	tgt, w := isrTarget(t, "pid_timer", 1)
	g, err := fault.RunGolden(tgt)
	if err != nil {
		t.Fatal(err)
	}
	plan := isrPlan(t, tgt, w, g)
	res, err := fault.Campaign(tgt, plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ByOutcome[fault.Masked] != 0 || res.ByOutcome[fault.SDC] != 0 {
		t.Errorf("masked=%d sdc=%d, want all benign runs reclassified",
			res.ByOutcome[fault.Masked], res.ByOutcome[fault.SDC])
	}
	if res.ByOutcome[fault.LatencyViol] == 0 {
		t.Error("no latency violations under a 1-cycle budget")
	}

	// The same campaign without a budget keeps the value classification.
	tgt2, w2 := isrTarget(t, "pid_timer", 0)
	g2, err := fault.RunGolden(tgt2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := fault.Campaign(tgt2, isrPlan(t, tgt2, w2, g2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ByOutcome[fault.LatencyViol] != 0 {
		t.Errorf("latency violations without a budget: %d", res2.ByOutcome[fault.LatencyViol])
	}
}
