package flow_test

import (
	"context"
	"testing"

	"repro/internal/emu"
	"repro/internal/flow"
	"repro/internal/timing"
	"repro/internal/workloads"
)

// TestIRTSoundness is the qualification criterion for the interrupt
// demonstrators: the static IRT bound must dominate every latency the
// adversarial co-sim can provoke, and the perturbed runs must still
// produce the reference checksum.
func TestIRTSoundness(t *testing.T) {
	for _, w := range workloads.Interrupt() {
		for _, eng := range []emu.Engine{emu.EngineSwitch, emu.EngineSuperblock} {
			t.Run(w.Name+"/"+eng.String(), func(t *testing.T) {
				res, err := flow.RunIRT(context.Background(), w, timing.EdgeSmall(), flow.IRTConfig{
					Engine:  eng,
					Samples: 24,
					Seed:    1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Measured.Delivered == 0 {
					t.Fatal("no response observed: the campaign measured nothing")
				}
				if res.Measured.Mismatches != 0 {
					t.Errorf("%d perturbed runs broke the checksum", res.Measured.Mismatches)
				}
				for _, o := range res.Measured.Observations {
					if o.Latency > res.Static.Bound {
						t.Errorf("trigger @%d: observed %d > bound %d",
							o.Trigger, o.Latency, res.Static.Bound)
					}
				}
				if !res.Sound {
					t.Errorf("unsound: bound %d < max observed %d (trigger @%d)",
						res.Static.Bound, res.Measured.MaxLatency, res.Measured.MaxTrigger)
				}
				t.Logf("%s/%s: bound %d, observed max %d (ratio %.2f), %d delivered / %d skipped",
					w.Name, eng, res.Static.Bound, res.Measured.MaxLatency, res.Ratio,
					res.Measured.Delivered, res.Measured.Skipped)
			})
		}
	}
}

// TestIRTEngineAgreement pins the co-sim's observations as bit-identical
// across translated engines: delivery points and latencies may not
// depend on the translation strategy.
func TestIRTEngineAgreement(t *testing.T) {
	w, _ := workloads.ByName("dma_stream")
	var ref *flow.IRTResult
	for _, eng := range []emu.Engine{emu.EngineSuperblock, emu.EngineSwitch} {
		res, err := flow.RunIRT(context.Background(), w, timing.EdgeSmall(), flow.IRTConfig{
			Engine: eng, Samples: 16, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Measured.GoldenCycles != ref.Measured.GoldenCycles {
			t.Errorf("%s: golden cycles %d != %d", eng, res.Measured.GoldenCycles, ref.Measured.GoldenCycles)
		}
		if len(res.Measured.Observations) != len(ref.Measured.Observations) {
			t.Fatalf("%s: %d observations != %d", eng, len(res.Measured.Observations), len(ref.Measured.Observations))
		}
		for i, o := range res.Measured.Observations {
			if o != ref.Measured.Observations[i] {
				t.Errorf("%s: observation %d = %+v, want %+v", eng, i, o, ref.Measured.Observations[i])
			}
		}
	}
}
