package fault_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vp"
)

// slowCampaign is a target whose every mutant runs long: the program
// counts t0 down through four million instructions before it exits, and
// the plan's 400 transient and stuck-at faults all hit t2, which it
// never reads. So each mutant runs the whole loop whatever its fault
// model, and the plan takes far longer than any cancellation point; a
// campaign that ignores its context would blow the test timeout
// instead of returning partial results.
func slowCampaign(t *testing.T, seed int64) (*fault.Target, fault.Plan) {
	t.Helper()
	prog, err := asm.AssembleAt(vp.Prelude+`
	li t0, 2000000
1:	addi t0, t0, -1
	bnez t0, 1b
	li a0, 7
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
2:	j 2b
`, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(fault.PlanConfig{
		Seed: seed, GPRTransient: 200, GPRPermanent: 200,
		GoldenInsts: 4_000_000, UsedRegs: []isa.Reg{isa.T2},
	})
	return &fault.Target{Program: prog, Budget: 5_000_000}, plan
}

// TestCampaignCancellation proves a campaign can be aborted mid-run: the
// context is cancelled once the first mutant has been classified, and
// the campaign must return promptly with partial results — classified
// slots keep their outcome, unreached slots stay Errored, and the
// joined error reports the cancellation.
func TestCampaignCancellation(t *testing.T) {
	tg, plan := slowCampaign(t, 3)

	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := reg.Counter("s4e_fault_done_total", "")
	go func() {
		for done.Value() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()

	start := time.Now()
	res, err := fault.CampaignContext(ctx, tg, plan, fault.Options{Workers: 2, Metrics: reg})
	elapsed := time.Since(start)
	if res == nil {
		t.Fatalf("cancelled campaign returned no results (err %v)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("campaign error %v, want context.Canceled in the join", err)
	}
	classified := res.Total - res.ByOutcome[fault.Errored]
	if classified == 0 {
		t.Error("no mutant classified before cancellation")
	}
	if res.ByOutcome[fault.Errored] == 0 {
		t.Error("campaign ran to completion despite cancellation")
	}
	if len(res.Details) != len(plan.Faults) {
		t.Errorf("Details covers %d of %d slots", len(res.Details), len(plan.Faults))
	}
	// Promptness: the return must not be proportional to the full plan.
	// Each worker finishes at most the mutant it is on, so even on a
	// slow host a few seconds is generous against the minutes the full
	// 400-mutant plan would take.
	if elapsed > 30*time.Second {
		t.Errorf("cancelled campaign took %v", elapsed)
	}
}

// TestCampaignDeadline exercises the same path through a context
// deadline instead of an explicit cancel.
func TestCampaignDeadline(t *testing.T) {
	tg, plan := slowCampaign(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := fault.CampaignContext(ctx, tg, plan, fault.Options{Workers: 2})
	elapsed := time.Since(start)
	if res == nil {
		t.Fatalf("deadline campaign returned no results (err %v)", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("campaign error %v, want context.DeadlineExceeded in the join", err)
	}
	// The deadline may pass during the golden run, so no mutant need be
	// classified, but the plan must not run to its end.
	if res.ByOutcome[fault.Errored] == 0 {
		t.Error("campaign ran to completion despite the deadline")
	}
	if len(res.Details) != len(plan.Faults) {
		t.Errorf("Details covers %d of %d slots", len(res.Details), len(plan.Faults))
	}
	if elapsed > 30*time.Second {
		t.Errorf("deadline campaign took %v", elapsed)
	}
}

// TestPrepareReuse runs the golden once via Prepare and feeds it (plus
// the shared pool) into two campaigns; both must classify bit-identically
// to a self-contained campaign over the same plan — the reuse path a
// long-running service takes across jobs for the same binary.
func TestPrepareReuse(t *testing.T) {
	tg, _ := target(t, "xtea")
	g, pool, err := fault.Prepare(tg)
	if err != nil {
		t.Fatal(err)
	}
	if pool == nil || pool.Size() == 0 {
		t.Fatal("Prepare built no shared pool for a clean golden run")
	}
	end := vp.RAMBase + uint32(len(tg.Program.Bytes))
	plan := fault.NewPlan(fault.PlanConfig{
		Seed: 5, GPRTransient: 40, MemPermanent: 10, CodeBitflip: 10,
		GoldenInsts: g.Insts,
		CodeStart:   vp.RAMBase, CodeEnd: end,
		DataStart: vp.RAMBase, DataEnd: end,
	})
	ref, err := fault.Campaign(tg, plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		res, err := fault.CampaignOpt(tg, plan, fault.Options{
			Workers: 2, Golden: g, Pool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Details {
			if res.Details[i] != ref.Details[i] {
				t.Fatalf("run %d mutant %d: %v with reused golden/pool, want %v",
					run, i, res.Details[i], ref.Details[i])
			}
		}
	}
}
