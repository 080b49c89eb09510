package fault_test

import (
	"fmt"
	"testing"

	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/vp"
)

// TestCampaignDirtyPagesDifferential proves the dirty-page rewind is
// architecturally invisible: for every engine, pool on and off, a
// campaign recycling one platform per worker classifies every mutant
// exactly as Inject does on a fresh, never-rewound platform. The mixed
// plan includes code bit flips (the rewind must drop translations of
// the corrupted image) and stuck-at faults, whose instruction hook the
// recycled platform carries only while each of them runs.
func TestCampaignDirtyPagesDifferential(t *testing.T) {
	tg, _ := target(t, "crc32")
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	end := vp.RAMBase + uint32(len(tg.Program.Bytes))
	plan := fault.NewPlan(fault.PlanConfig{
		Seed:         12,
		GPRTransient: 30,
		GPRPermanent: 10,
		MemPermanent: 20,
		CodeBitflip:  30,
		GoldenInsts:  g.Insts,
		CodeStart:    vp.RAMBase,
		CodeEnd:      end,
		DataStart:    vp.RAMBase,
		DataEnd:      end,
	})

	for _, eng := range []struct {
		name   string
		engine emu.Engine
	}{
		{"switch", emu.EngineSwitch},
		{"superblock", emu.EngineSuperblock},
	} {
		etg := *tg
		etg.Engine = eng.engine
		fresh := make([]fault.Outcome, len(plan.Faults))
		for i, f := range plan.Faults {
			if fresh[i], err = fault.Inject(&etg, g, f); err != nil {
				t.Fatalf("%s: mutant %d (%v): %v", eng.name, i, f, err)
			}
		}
		for _, noPool := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pool-%t", eng.name, !noPool), func(t *testing.T) {
				reg := obs.NewRegistry()
				res, err := fault.CampaignOpt(&etg, plan, fault.Options{
					Workers:      2,
					NoSharedPool: noPool,
					Metrics:      reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range plan.Faults {
					if res.Details[i] != fresh[i] {
						t.Errorf("mutant %d (%v): rewound=%v fresh=%v",
							i, plan.Faults[i], res.Details[i], fresh[i])
					}
				}
				// Every mutant ran after a rewind, and the rewinds were
				// accounted.
				if n := reg.Counter(vp.MetricRestores, "").Value(); n != uint64(len(plan.Faults)) {
					t.Errorf("restores = %d, want %d", n, len(plan.Faults))
				}
				if reg.Counter(vp.MetricRestoreBytesTotal, "").Value() == 0 {
					t.Error("campaign accounted no restore bytes")
				}
			})
		}
	}
}
