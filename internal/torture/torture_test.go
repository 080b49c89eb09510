package torture_test

import (
	"context"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/flow"
	"repro/internal/isa"
	"repro/internal/timing"
	"repro/internal/torture"
	"repro/internal/vp"
)

// runProgram assembles and executes a generated program, returning the
// stop info and the exit checksum.
func runProgram(t *testing.T, p torture.Program, set isa.ExtSet) (emu.StopInfo, *vp.Platform) {
	t.Helper()
	pl, err := vp.New(vp.Config{ISA: set})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.LoadSource(vp.Prelude + p.Source); err != nil {
		t.Fatalf("seed %d: assemble: %v", p.Seed, err)
	}
	return pl.Run(p.Budget), pl
}

// Every generated program must assemble and terminate via the syscon
// exit within its budget, across many seeds and ISA configurations.
func TestGeneratedProgramsTerminate(t *testing.T) {
	configs := []isa.ExtSet{isa.RV32I, isa.RV32IM, isa.RV32IMF, isa.RV32IMB, isa.RV32Full}
	for _, set := range configs {
		for seed := int64(0); seed < 30; seed++ {
			p := torture.Generate(torture.Config{Seed: seed, Insts: 250, ISA: set})
			stop, _ := runProgram(t, p, set)
			if stop.Reason != emu.StopExit {
				t.Fatalf("set %v seed %d: stopped with %v", set, seed, stop)
			}
		}
	}
}

// Same seed, same program, same checksum: generation and execution are
// fully deterministic.
func TestDeterministicGeneration(t *testing.T) {
	a := torture.Generate(torture.Config{Seed: 42, Insts: 300, ISA: isa.RV32IMF})
	b := torture.Generate(torture.Config{Seed: 42, Insts: 300, ISA: isa.RV32IMF})
	if a.Source != b.Source {
		t.Fatal("same seed produced different programs")
	}
	s1, _ := runProgram(t, a, isa.RV32IMF)
	s2, _ := runProgram(t, b, isa.RV32IMF)
	if s1.Code != s2.Code {
		t.Errorf("checksums differ: 0x%x 0x%x", s1.Code, s2.Code)
	}
	c := torture.Generate(torture.Config{Seed: 43, Insts: 300, ISA: isa.RV32IMF})
	if c.Source == a.Source {
		t.Error("different seeds produced identical programs")
	}
}

// Generated programs restrict themselves to the configured ISA: an
// RV32I-only program must run on an RV32I-only machine.
func TestISASubsetting(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := torture.Generate(torture.Config{Seed: seed, Insts: 200, ISA: isa.RV32I})
		stop, _ := runProgram(t, p, isa.RV32I)
		if stop.Reason != emu.StopExit {
			t.Fatalf("seed %d on RV32I machine: %v", seed, stop)
		}
	}
}

// The generator's loop bounds must make every generated program
// analyzable: the full static WCET flow runs and its bound covers the
// observed dynamic time (torture as WCET stress test). The inference-only
// arm drops the exported bounds and lets the interval analysis derive
// them: it must reach the very same WCET, so it too covers the dynamic
// time.
func TestWCETBoundsGeneratedPrograms(t *testing.T) {
	prof := timing.EdgeSmall()
	for seed := int64(0); seed < 15; seed++ {
		p := torture.Generate(torture.Config{Seed: seed, Insts: 150, ISA: isa.RV32IM})
		prog, err := asm.AssembleAt(vp.Prelude+p.Source, vp.RAMBase)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		explicit, err := flow.Analyze(context.Background(), prog, prof, p.LoopBounds, false)
		if err != nil {
			t.Fatalf("seed %d: analyze: %v", seed, err)
		}
		inferred, err := flow.Analyze(context.Background(), prog, prof, nil, true)
		if err != nil {
			t.Fatalf("seed %d: analyze with inferred bounds: %v", seed, err)
		}
		pl, err := vp.New(vp.Config{Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		stop := pl.Run(p.Budget)
		if stop.Reason != emu.StopExit {
			t.Fatalf("seed %d: %v", seed, stop)
		}
		dyn := pl.Machine.Hart.Cycle
		if explicit.Annotated.WCET < dyn {
			t.Errorf("seed %d: WCET %d < dynamic %d", seed, explicit.Annotated.WCET, dyn)
		}
		if got := inferred.Annotated.WCET; got != explicit.Annotated.WCET || got < dyn {
			t.Errorf("seed %d: inferred-bound WCET %d, want the explicit-bound %d (dynamic %d)",
				seed, got, explicit.Annotated.WCET, dyn)
		}
	}
}

func TestDefaults(t *testing.T) {
	p := torture.Generate(torture.Config{Seed: 1})
	if p.Budget == 0 || p.Source == "" {
		t.Error("defaults not applied")
	}
	stop, _ := runProgram(t, p, isa.RV32IM)
	if stop.Reason != emu.StopExit {
		t.Errorf("default config: %v", stop)
	}
}
