package fault_test

import (
	"fmt"
	"testing"

	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/vp"
)

// TestCampaignDirtyPagesDifferential proves the page-granular restore is
// architecturally invisible: for every engine, pool on and off, a
// campaign with dirty-page tracking and one with the single-watermark
// baseline (Target.NoDirtyPages) classify every mutant identically, bit
// for bit. The mixed plan includes stuck-at faults, which run on the
// Step engine inside the campaign, so all three execution paths cross the
// differential.
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
		for _, noPool := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pool-%t", eng.name, !noPool), func(t *testing.T) {
				run := func(noPages bool) (*fault.Results, *obs.Registry) {
					etg := *tg
					etg.Engine = eng.engine
					etg.NoDirtyPages = noPages
					reg := obs.NewRegistry()
					res, err := fault.CampaignOpt(&etg, plan, fault.Options{
						Workers:      2,
						NoSharedPool: noPool,
						Metrics:      reg,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res, reg
				}
				paged, preg := run(false)
				baseline, breg := run(true)

				if len(paged.Details) != len(baseline.Details) {
					t.Fatalf("result sizes differ: %d vs %d", len(paged.Details), len(baseline.Details))
				}
				for i := range paged.Details {
					if paged.Details[i] != baseline.Details[i] {
						t.Errorf("mutant %d (%v): pages=%v watermark=%v",
							i, plan.Faults[i], paged.Details[i], baseline.Details[i])
					}
				}

				// Both arms restored once per mutant and accounted it.
				// (Byte totals are NOT compared here: a worker's last
				// mutant is never rewound, so which mutant escapes
				// accounting depends on work distribution; the
				// per-restore pages<=watermark ordering is asserted
				// deterministically in internal/vp's scatter tests.)
				pr := preg.Counter(vp.MetricRestores, "").Value()
				br := breg.Counter(vp.MetricRestores, "").Value()
				if pr == 0 || pr != br {
					t.Fatalf("restores: pages=%d watermark=%d", pr, br)
				}
				if preg.Counter(vp.MetricRestoreBytesTotal, "").Value() == 0 {
					t.Error("paged campaign accounted no restore bytes")
				}
			})
		}
	}
}
