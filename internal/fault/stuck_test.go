package fault

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/timing"
	"repro/internal/torture"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// stepStuck is the oracle of the stuck-at hook: a loop that re-applies
// the stuck bit before every Step for the whole budget. Step polls for
// interrupts before every instruction, where Run polls at block
// boundaries, so the two agree exactly on programs that take no
// interrupt.
func stepStuck(t *Target, f Fault, p *vp.Platform) emu.StopInfo {
	h := &p.Machine.Hart
	for steps := uint64(0); steps < t.Budget; steps++ {
		if f.Reg != 0 {
			if f.Stuck1 {
				h.X[f.Reg] |= 1 << f.Bit
			} else {
				h.X[f.Reg] &^= 1 << f.Bit
			}
		}
		if stop := p.Machine.Step(); stop != nil {
			return *stop
		}
	}
	return emu.StopInfo{Reason: emu.StopBudget, PC: h.PC}
}

// hartEnd is the final state a stuck-at mutant is compared on.
type hartEnd struct {
	Out            Outcome
	Stop           emu.StopInfo
	Instret, Cycle uint64
	X              [32]uint32
}

// endOf reads the final state of a mutant run on inj's platform; stop is
// nil when the machine holds no stop of its own (a budget stop, which
// Run clears so that it can resume).
func endOf(inj *injector, out Outcome, stop *emu.StopInfo) hartEnd {
	h := &inj.p.Machine.Hart
	if stop == nil {
		stop = &emu.StopInfo{Reason: emu.StopBudget, PC: h.PC}
	}
	return hartEnd{Out: out, Stop: *stop, Instret: h.Instret, Cycle: h.Cycle, X: h.X}
}

// assembleTarget assembles a program body into a campaign target.
func assembleTarget(t *testing.T, src string, budget uint64) *Target {
	t.Helper()
	prog, err := asm.AssembleAt(vp.Prelude+src, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	return &Target{Program: prog, Budget: budget}
}

// TestStuckAtMatchesStepOracle runs stuck-at mutants of every batch
// kernel and of torture seeds 1-16, on both engines, under Run with the
// stuck-bit hook and under the Step oracle: outcome, stop, Instret,
// Cycle and every GPR must agree, and the hook must be gone from the
// machine after each mutant.
func TestStuckAtMatchesStepOracle(t *testing.T) {
	type prog struct {
		name    string
		tg      *Target
		mutants int
	}
	var progs []prog
	for _, w := range workloads.All() {
		tg := assembleTarget(t, w.Source, w.Budget)
		tg.Sensor = w.Sensor
		progs = append(progs, prog{w.Name, tg, 16})
	}
	for seed := int64(1); seed <= 16; seed++ {
		tp := torture.Generate(torture.Config{Seed: seed})
		progs = append(progs, prog{fmt.Sprintf("torture-%d", seed), assembleTarget(t, tp.Source, tp.Budget), 50})
	}
	for _, pr := range progs {
		for _, eng := range emu.Engines() {
			t.Run(pr.name+"/"+eng.String(), func(t *testing.T) {
				tg := *pr.tg
				tg.Engine = eng
				g, pool, err := Prepare(&tg)
				if err != nil {
					t.Fatal(err)
				}
				hooked, err := newInjector(&tg, pool)
				if err != nil {
					t.Fatal(err)
				}
				defer hooked.p.Release()
				oracle, err := newInjector(&tg, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer oracle.p.Release()
				plan := NewPlan(PlanConfig{Seed: 7, GPRPermanent: pr.mutants})
				for i, f := range plan.Faults {
					out, err := hooked.run(g, f)
					if err != nil {
						t.Fatal(err)
					}
					if hooked.p.Machine.Hooks.HasInsnHooks() {
						t.Fatalf("mutant %d (%v): stuck-bit hook left registered", i, f)
					}
					got := endOf(hooked, out, hooked.p.Machine.Stopped())
					oracle.reset()
					stop := stepStuck(&tg, f, oracle.p)
					want := endOf(oracle, oracle.classify(g, stop), &stop)
					if got != want {
						t.Errorf("mutant %d (%v):\n Run  %+v\n Step %+v", i, f, got, want)
					}
				}
			})
		}
	}
}

// TestStuckAtRunsLikeGolden runs a stuck x0 bit, which changes nothing,
// on each interrupt demonstrator and both engines: the mutant must end
// exactly as the golden run on the same injector does, in stop,
// Instret, Cycle and worst interrupt latency. A Step-driven mutant polls
// for interrupts before every instruction and takes them earlier.
func TestStuckAtRunsLikeGolden(t *testing.T) {
	for _, w := range workloads.Interrupt() {
		for _, eng := range emu.Engines() {
			t.Run(w.Name+"/"+eng.String(), func(t *testing.T) {
				tg := assembleTarget(t, w.Source, w.Budget)
				tg.Profile = timing.EdgeSmall()
				tg.Sensor, tg.Stream, tg.UARTIn = w.Sensor, w.Stream, w.UARTIn
				tg.LatencyBudget = 1 << 40 // observe latency, flag nothing
				tg.Engine = eng
				g, pool, err := Prepare(tg)
				if err != nil {
					t.Fatal(err)
				}
				inj, err := newInjector(tg, pool)
				if err != nil {
					t.Fatal(err)
				}
				defer inj.p.Release()
				inj.reset()
				stop := inj.p.Run(tg.Budget)
				want := endOf(inj, Masked, &stop)
				worst := inj.lat.worst
				for _, stuck1 := range []bool{false, true} {
					f := Fault{Model: GPRPermanent, Reg: 0, Bit: 5, Stuck1: stuck1}
					out, err := inj.run(g, f)
					if err != nil {
						t.Fatal(err)
					}
					got := endOf(inj, out, inj.p.Machine.Stopped())
					if got != want || inj.lat.worst != worst {
						t.Errorf("%v:\n mutant %+v, worst latency %d\n golden %+v, worst latency %d",
							f, got, inj.lat.worst, want, worst)
					}
				}
			})
		}
	}
}
