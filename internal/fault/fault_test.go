package fault_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// target assembles a workload into a fault-campaign target.
func target(t *testing.T, name string) (*fault.Target, workloads.Workload) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	return &fault.Target{Program: prog, Budget: w.Budget, Sensor: w.Sensor}, w
}

func TestGoldenRun(t *testing.T) {
	tg, w := target(t, "xtea")
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stop.Code != w.Expect {
		t.Errorf("golden checksum 0x%x, want 0x%x", g.Stop.Code, w.Expect)
	}
}

// A campaign with zero faults must classify nothing, and injecting the
// null fault set must never disturb the golden run.
func TestNoFaultIsMasked(t *testing.T) {
	tg, _ := target(t, "xtea")
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in x0: architecturally absorbed, must be masked.
	out, err := fault.Inject(tg, g, fault.Fault{Model: fault.GPRTransient, Reg: 0, Bit: 5, Trigger: 10})
	if err != nil {
		t.Fatal(err)
	}
	if out != fault.Masked {
		t.Errorf("x0 flip classified %v, want masked", out)
	}
}

func TestTransientAfterCompletionIsMasked(t *testing.T) {
	tg, _ := target(t, "pid")
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	// Trigger far beyond program completion: flip never lands.
	out, err := fault.Inject(tg, g, fault.Fault{
		Model: fault.GPRTransient, Reg: isa.A0, Bit: 3, Trigger: tg.Budget + 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != fault.Masked {
		t.Errorf("late trigger classified %v", out)
	}
}

// Flipping the accumulator register right before the exit store must be
// silent data corruption.
func TestAccumulatorFlipIsSDC(t *testing.T) {
	tg, _ := target(t, "popcount_base")
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	// a0 holds the checksum near the end; flip shortly before exit.
	out, err := fault.Inject(tg, g, fault.Fault{
		Model: fault.GPRTransient, Reg: isa.A0, Bit: 0, Trigger: g.Insts - 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != fault.SDC {
		t.Errorf("checksum flip classified %v, want sdc", out)
	}
}

func TestCodeBitflipOutcomes(t *testing.T) {
	tg, _ := target(t, "xtea")
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip bit 0 of the first instruction word: turns a 32-bit encoding
	// into a compressed/invalid one — must not be masked silently as a
	// crash of the harness; any classification is fine, no error.
	if _, err := fault.Inject(tg, g, fault.Fault{Model: fault.CodeBitflip, Addr: vp.RAMBase, Bit: 0}); err != nil {
		t.Fatal(err)
	}
	// Flip a high immediate bit of an ALU instruction: plausible SDC.
	outcomes := map[fault.Outcome]int{}
	for bit := uint8(0); bit < 32; bit++ {
		out, err := fault.Inject(tg, g, fault.Fault{Model: fault.CodeBitflip, Addr: vp.RAMBase + 8, Bit: bit})
		if err != nil {
			t.Fatal(err)
		}
		outcomes[out]++
	}
	if len(outcomes) < 2 {
		t.Errorf("32 single-bit code flips produced a single outcome class: %v", outcomes)
	}
}

func TestMemPermanentFault(t *testing.T) {
	tg, w := target(t, "crc32")
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	buf, ok := tg.Program.Symbol("buf")
	if !ok {
		t.Fatal("buf symbol missing")
	}
	// The CRC input buffer is filled by the program itself, so a
	// pre-run memory fault there is overwritten: masked.
	out, err := fault.Inject(tg, g, fault.Fault{Model: fault.MemPermanent, Addr: buf, Bit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out != fault.Masked {
		t.Errorf("overwritten data fault classified %v", out)
	}
	_ = w
}

// TestFlipPastRAMEndErrors: a memory flip whose byte lies past the end
// of RAM (the last RAM byte, bit 31) is an "outside RAM" error, never a
// panic: Inject returns it, and a campaign classifies the slot Errored
// and goes on to the next mutant, on both engines.
func TestFlipPastRAMEndErrors(t *testing.T) {
	for _, eng := range []emu.Engine{emu.EngineSuperblock, emu.EngineSwitch} {
		tg, _ := target(t, "crc32")
		tg.Engine = eng
		g, err := fault.RunGolden(tg)
		if err != nil {
			t.Fatal(err)
		}
		past := fault.Fault{Model: fault.MemPermanent, Addr: tg.StackTop() - 1, Bit: 31}
		if _, err := fault.Inject(tg, g, past); err == nil || !strings.Contains(err.Error(), "outside RAM") {
			t.Errorf("%v: Inject err %v, want outside RAM", eng, err)
		}
		plan := fault.Plan{Faults: []fault.Fault{past, {Model: fault.MemPermanent, Addr: vp.RAMBase, Bit: 0}}}
		res, err := fault.CampaignOpt(tg, plan, fault.Options{Golden: g})
		if err == nil || !strings.Contains(err.Error(), "outside RAM") {
			t.Errorf("%v: campaign err %v, want outside RAM", eng, err)
		}
		if res.Details[0] != fault.Errored || res.Details[1] == fault.Errored {
			t.Errorf("%v: outcomes %v, want errored then a guest outcome", eng, res.Details)
		}
	}
}

func TestCampaignAggregation(t *testing.T) {
	tg, _ := target(t, "pid")
	plan := fault.NewPlan(fault.PlanConfig{
		Seed:         1,
		GPRTransient: 40,
		CodeBitflip:  20,
		GoldenInsts:  500,
		CodeStart:    vp.RAMBase,
		CodeEnd:      vp.RAMBase + 128,
	})
	if len(plan.Faults) != 60 {
		t.Fatalf("plan has %d faults", len(plan.Faults))
	}
	res, err := fault.Campaign(tg, plan, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 60 {
		t.Errorf("total = %d", res.Total)
	}
	sum := 0
	for _, n := range res.ByOutcome {
		sum += n
	}
	if sum != 60 {
		t.Errorf("outcome sum = %d", sum)
	}
	if res.ByOutcome[fault.Masked] == 0 {
		t.Error("expected some masked faults")
	}
	if s := res.String(); s == "" {
		t.Error("empty report")
	}
}

// Campaigns must be deterministic regardless of worker count.
func TestCampaignParallelDeterminism(t *testing.T) {
	tg, _ := target(t, "parity_base")
	plan := fault.NewPlan(fault.PlanConfig{
		Seed:         7,
		GPRTransient: 30,
		GoldenInsts:  2000,
	})
	r1, err := fault.Campaign(tg, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := fault.Campaign(tg, plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Details {
		if r1.Details[i] != r8.Details[i] {
			t.Fatalf("fault %d: %v (1 worker) vs %v (8 workers)", i, r1.Details[i], r8.Details[i])
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	cfg := fault.PlanConfig{Seed: 3, GPRTransient: 10, MemPermanent: 5,
		GoldenInsts: 100, DataStart: 0x8000_0100, DataEnd: 0x8000_0200}
	a, b := fault.NewPlan(cfg), fault.NewPlan(cfg)
	if len(a.Faults) != len(b.Faults) {
		t.Fatal("plan lengths differ")
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs", i)
		}
	}
	if a.Faults[0].String() == "" {
		t.Error("fault string empty")
	}
}

func TestGPRPermanentStuckAt(t *testing.T) {
	tg, _ := target(t, "xtea")
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	// A stuck bit in x0 is architecturally impossible to observe.
	out, err := fault.Inject(tg, g, fault.Fault{Model: fault.GPRPermanent, Reg: 0, Bit: 3, Stuck1: true})
	if err != nil {
		t.Fatal(err)
	}
	if out != fault.Masked {
		t.Errorf("x0 stuck bit classified %v", out)
	}
	// Sticking a low bit of the XTEA state register s0 to 1 must corrupt
	// the cipher output (full diffusion).
	out, err = fault.Inject(tg, g, fault.Fault{Model: fault.GPRPermanent, Reg: isa.S0, Bit: 0, Stuck1: true})
	if err != nil {
		t.Fatal(err)
	}
	if out == fault.Masked {
		t.Error("stuck XTEA state bit was masked")
	}
}

func TestGPRPermanentInPlan(t *testing.T) {
	plan := fault.NewPlan(fault.PlanConfig{Seed: 11, GPRPermanent: 12, GoldenInsts: 10})
	if len(plan.Faults) != 12 {
		t.Fatalf("plan: %d faults", len(plan.Faults))
	}
	for _, f := range plan.Faults {
		if f.Model != fault.GPRPermanent {
			t.Errorf("unexpected model %v", f.Model)
		}
	}
}

func TestGPRPermanentCampaign(t *testing.T) {
	tg, _ := target(t, "pid")
	plan := fault.NewPlan(fault.PlanConfig{Seed: 3, GPRPermanent: 20})
	res, err := fault.Campaign(tg, plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 20 {
		t.Errorf("total %d", res.Total)
	}
}

func TestGuidedPlanTargetsUsedState(t *testing.T) {
	tg, _ := target(t, "xtea")
	cfg, g, _, err := fault.GuidedPlanConfig(tg, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	if g.Insts == 0 {
		t.Fatal("golden run empty")
	}
	if len(cfg.UsedRegs) == 0 || len(cfg.UsedRegs) > 31 {
		t.Errorf("used regs: %v", cfg.UsedRegs)
	}
	// xtea never touches, e.g., s11 or t3; those must be absent.
	for _, r := range cfg.UsedRegs {
		if r == 0 {
			t.Error("x0 in used set")
		}
	}
	if cfg.CodeStart < vp.RAMBase || cfg.CodeEnd <= cfg.CodeStart {
		t.Errorf("code extent: 0x%x..0x%x", cfg.CodeStart, cfg.CodeEnd)
	}
	// The code extent must not include the key/data section it never
	// executes.
	key, _ := tg.Program.Symbol("key")
	if cfg.CodeEnd > key {
		t.Errorf("code extent 0x%x spills past data at 0x%x", cfg.CodeEnd, key)
	}
	plan := fault.NewPlan(cfg)
	if len(plan.Faults) == 0 {
		t.Fatal("empty plan")
	}
	usable := map[isa.Reg]bool{}
	for _, r := range cfg.UsedRegs {
		usable[r] = true
	}
	for _, f := range plan.Faults {
		switch f.Model {
		case fault.GPRTransient, fault.GPRPermanent:
			if !usable[f.Reg] {
				t.Errorf("fault targets unused register %v", f.Reg)
			}
		case fault.CodeBitflip:
			if f.Addr < cfg.CodeStart || f.Addr >= cfg.CodeEnd {
				t.Errorf("code fault outside executed range: 0x%x", f.Addr)
			}
		}
	}
	res, err := fault.Campaign(tg, plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != len(plan.Faults) {
		t.Errorf("campaign total %d", res.Total)
	}
}

// TestGuidedGoldenAndPool gives guided campaigns the golden and pool
// GuidedPlanConfig returned, as s4e-fault -guided does: on both engines
// they must classify every mutant as a campaign that runs its own
// golden, and the instrumented golden must equal the plain one.
func TestGuidedGoldenAndPool(t *testing.T) {
	for _, name := range []string{"xtea", "crc32", "pid", "fir", "sort"} {
		for _, eng := range emu.Engines() {
			t.Run(name+"/"+eng.String(), func(t *testing.T) {
				tg, _ := target(t, name)
				tg.Engine = eng
				cfg, g, pool, err := fault.GuidedPlanConfig(tg, 5, 24)
				if err != nil {
					t.Fatal(err)
				}
				if pool == nil || pool.Size() == 0 {
					t.Fatal("guided golden published no pool blocks")
				}
				plain, err := fault.RunGolden(tg)
				if err != nil {
					t.Fatal(err)
				}
				if *g != *plain {
					t.Errorf("guided golden %+v, plain golden %+v", *g, *plain)
				}
				plan := fault.NewPlan(cfg)
				ref, err := fault.Campaign(tg, plan, 2)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fault.CampaignOpt(tg, plan, fault.Options{Workers: 2, Golden: g, Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				for i := range ref.Details {
					if got.Details[i] != ref.Details[i] {
						t.Errorf("mutant %d (%v): %v with the guided golden and pool, want %v",
							i, plan.Faults[i], got.Details[i], ref.Details[i])
					}
				}
			})
		}
	}
}
