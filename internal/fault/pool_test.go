package fault_test

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/vp"
)

// poolPlan builds a mixed-model plan over the target image; the code
// bit-flips matter most here, since they exercise the overlay-compile
// and cache-flush/re-adoption paths of the shared pool.
func poolPlan(tg *fault.Target, g *fault.Golden) fault.Plan {
	end := vp.RAMBase + uint32(len(tg.Program.Bytes))
	return fault.NewPlan(fault.PlanConfig{
		Seed:         11,
		GPRTransient: 40,
		MemPermanent: 20,
		CodeBitflip:  40,
		GoldenInsts:  g.Insts,
		CodeStart:    vp.RAMBase,
		CodeEnd:      end,
		DataStart:    vp.RAMBase,
		DataEnd:      end,
	})
}

func runPoolCampaign(t *testing.T, tg *fault.Target, plan fault.Plan,
	workers int, noPool bool) (*fault.Results, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	res, err := fault.CampaignOpt(tg, plan, fault.Options{
		Workers:      workers,
		NoSharedPool: noPool,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, reg
}

// TestCampaignPoolDifferential proves the shared translation pool is
// architecturally invisible: for both engines and several worker counts,
// a shared-pool campaign and a private-cache campaign classify every
// mutant identically, bit for bit.
func TestCampaignPoolDifferential(t *testing.T) {
	tg, _ := target(t, "crc32")
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name   string
		engine emu.Engine
	}{
		{"switch", emu.EngineSwitch},
		{"superblock", emu.EngineSuperblock},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers-%d", eng.name, workers), func(t *testing.T) {
				etg := *tg
				etg.Engine = eng.engine
				plan := poolPlan(&etg, g)

				pooled, preg := runPoolCampaign(t, &etg, plan, workers, false)
				private, _ := runPoolCampaign(t, &etg, plan, workers, true)

				if pb := preg.Gauge("s4e_fault_pool_blocks", "").Value(); pb == 0 {
					t.Error("pooled campaign published no pool blocks")
				}
				if hits := preg.Counter(vp.MetricPoolHits, "").Value(); hits == 0 {
					t.Error("pooled campaign adopted no blocks")
				}

				if len(pooled.Details) != len(private.Details) {
					t.Fatalf("result sizes differ: %d vs %d", len(pooled.Details), len(private.Details))
				}
				for i := range pooled.Details {
					if pooled.Details[i] != private.Details[i] {
						t.Errorf("mutant %d (%v): pool=%v private=%v",
							i, plan.Faults[i], pooled.Details[i], private.Details[i])
					}
				}
				for _, oc := range []fault.Outcome{fault.Masked, fault.SDC, fault.Trapped, fault.Hung, fault.Errored} {
					if pooled.ByOutcome[oc] != private.ByOutcome[oc] {
						t.Errorf("%v count: pool=%d private=%d",
							oc, pooled.ByOutcome[oc], private.ByOutcome[oc])
					}
				}
			})
		}
	}
}

// selfModGolden stores into its own code and then exits. The patched
// word sits just below the exit block, off the path the program still
// runs; with the stack store above it, the golden run's dirty state
// covers the exit block's page while the loop's page stays clean.
const selfModGolden = `
	li a1, 50
	li a0, 0
loop:
	add a0, a0, a1
	addi a1, a1, -1
	bnez a1, loop
	la t0, patch
	li t1, 0x13
	sw t1, 0(t0)
	addi sp, sp, -4
	sw a0, 0(sp)
	j tail
	.space 600
patch:
	.word 0
tail:
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
`

// TestCampaignPoolSelfModifyingGolden: a golden run that wrote into its
// own code still publishes a pool — Machine.BuildTBPool leaves out the
// translations over the written page — and the pool stays
// architecturally invisible: on both engines the campaign classifies
// every mutant as the private-cache campaign does.
func TestCampaignPoolSelfModifyingGolden(t *testing.T) {
	prog, err := asm.AssembleAt(vp.Prelude+selfModGolden, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	tg := &fault.Target{Program: prog, Budget: 100_000}
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stop.Code != 1275 {
		t.Fatalf("golden exit code %d, want 1275", g.Stop.Code)
	}
	for _, engine := range emu.Engines() {
		t.Run(engine.String(), func(t *testing.T) {
			etg := *tg
			etg.Engine = engine
			plan := poolPlan(&etg, g)
			pooled, preg := runPoolCampaign(t, &etg, plan, 1, false)
			private, _ := runPoolCampaign(t, &etg, plan, 1, true)
			if pb := preg.Gauge("s4e_fault_pool_blocks", "").Value(); pb <= 0 {
				t.Errorf("s4e_fault_pool_blocks = %v, want > 0", pb)
			}
			if hits := preg.Counter(vp.MetricPoolHits, "").Value(); hits == 0 {
				t.Error("pooled campaign adopted no blocks")
			}
			for i := range pooled.Details {
				if pooled.Details[i] != private.Details[i] {
					t.Errorf("mutant %d (%v): pool=%v private=%v",
						i, plan.Faults[i], pooled.Details[i], private.Details[i])
				}
			}
		})
	}
}

// TestCampaignSuperblockDifferential proves the compiled superblock
// engine is architecturally invisible to fault campaigns: against a
// switch-interpreter reference, a superblock campaign classifies every
// mutant identically —
// with and without the shared pool (whose frozen-trace tier warm-starts
// workers), at one and four workers. Code-mutating faults force trace
// invalidation and overlay paths, the sharpest part of the contract.
func TestCampaignSuperblockDifferential(t *testing.T) {
	tg, _ := target(t, "crc32")
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}

	ttg := *tg
	ttg.Engine = emu.EngineSwitch
	plan := poolPlan(&ttg, g)
	ref, _ := runPoolCampaign(t, &ttg, plan, 1, false)

	for _, noPool := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("pool-%t/workers-%d", !noPool, workers)
			t.Run(name, func(t *testing.T) {
				stg := *tg
				stg.Engine = emu.EngineSuperblock
				got, _ := runPoolCampaign(t, &stg, plan, workers, noPool)
				if len(got.Details) != len(ref.Details) {
					t.Fatalf("result sizes differ: %d vs %d", len(got.Details), len(ref.Details))
				}
				for i := range got.Details {
					if got.Details[i] != ref.Details[i] {
						t.Errorf("mutant %d (%v): superblock=%v switch=%v",
							i, plan.Faults[i], got.Details[i], ref.Details[i])
					}
				}
			})
		}
	}
}

// TestCampaignPoolCompileSavings is the headline acceptance check: at 4
// workers the shared pool must cut the compiled-block count of the
// campaign at least in half compared to private per-worker caches.
func TestCampaignPoolCompileSavings(t *testing.T) {
	tg, _ := target(t, "crc32")
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	plan := poolPlan(tg, g)

	_, preg := runPoolCampaign(t, tg, plan, 4, false)
	_, xreg := runPoolCampaign(t, tg, plan, 4, true)

	pooledTBs := preg.Counter(vp.MetricTBsCompiled, "").Value()
	privateTBs := xreg.Counter(vp.MetricTBsCompiled, "").Value()
	if privateTBs == 0 {
		t.Fatal("private-cache campaign compiled nothing")
	}
	if pooledTBs*2 > privateTBs {
		t.Errorf("pool saved too little: %v compiled with pool vs %v without (want >= 2x fewer)",
			pooledTBs, privateTBs)
	}
	t.Logf("tbs_compiled: pool=%v private=%v (%.1fx fewer), pool_hits=%v overlay_compiles=%v",
		pooledTBs, privateTBs, float64(privateTBs)/float64(max(pooledTBs, 1)),
		preg.Counter(vp.MetricPoolHits, "").Value(),
		preg.Counter(vp.MetricOverlayCompiles, "").Value())
}
