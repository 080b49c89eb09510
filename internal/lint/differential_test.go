package lint_test

import (
	"fmt"
	"testing"

	"repro/internal/decode"
	"repro/internal/emu"
	"repro/internal/flow"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/torture"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// This file is the soundness net for the linter, in the spirit of the
// engine differential test: every workload and a batch of seeded
// torture programs execute under the default engine with a recording
// plugin attached, and no executed path may contradict a
// definite finding. Concretely: an address with a definite unreachable
// finding must never execute, and a definite uninit-read at an executed
// instruction must be corroborated by the dynamic trace (some source
// register really was never written before that point).

// execRecorder observes execution: which addresses ran, and at which of
// them a source register was read before any write to it.
type execRecorder struct {
	executed    map[uint32]bool
	uninitRead  map[uint32]bool
	written     uint32 // bitmask of integer registers written so far
	readScratch []isa.Reg
}

func newExecRecorder() *execRecorder {
	return &execRecorder{
		executed:   map[uint32]bool{},
		uninitRead: map[uint32]bool{},
		// The loader defines sp; x0 is always defined.
		written: 1<<uint(isa.Zero) | 1<<uint(isa.SP),
	}
}

func (r *execRecorder) Name() string { return "lint-differential" }

func (r *execRecorder) OnInsnExec(pc uint32, in decode.Inst) {
	r.executed[pc] = true
	r.readScratch = in.ReadsRegs(r.readScratch[:0])
	for _, reg := range r.readScratch {
		if r.written&(1<<uint(reg)) == 0 {
			r.uninitRead[pc] = true
		}
	}
	if rd, ok := in.WritesReg(); ok {
		r.written |= 1 << uint(rd)
	}
}

type soundnessCase struct {
	name   string
	src    string
	bounds map[string]int
	budget uint64
	sensor []int16
}

func soundnessCases() []soundnessCase {
	var cases []soundnessCase
	for _, w := range workloads.All() {
		cases = append(cases, soundnessCase{
			name:   "workload/" + w.Name,
			src:    w.Source,
			bounds: w.LoopBounds,
			budget: w.Budget,
			sensor: w.Sensor,
		})
	}
	for seed := int64(1); seed <= 8; seed++ {
		prog := torture.Generate(torture.Config{Seed: seed, Insts: 160})
		cases = append(cases, soundnessCase{
			name:   fmt.Sprintf("torture/seed%d", seed),
			src:    prog.Source,
			budget: prog.Budget,
		})
	}
	return cases
}

// TestLintDifferentialSoundness proves that definite findings hold on
// the paths the machine actually takes.
func TestLintDifferentialSoundness(t *testing.T) {
	for _, c := range soundnessCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			p, err := vp.New(vp.Config{Sensor: c.sensor})
			if err != nil {
				t.Fatal(err)
			}
			rec := newExecRecorder()
			if err := p.Machine.Hooks.Register(rec); err != nil {
				t.Fatal(err)
			}
			prog, err := p.LoadSource(vp.Prelude + c.src)
			if err != nil {
				t.Fatal(err)
			}
			p.Machine.Engine = emu.EngineSuperblock
			p.Run(c.budget)

			findings, err := flow.LintProgram(prog, c.bounds)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range findings {
				if f.Severity != lint.Definite {
					continue
				}
				switch f.Check {
				case "unreachable":
					if rec.executed[f.Addr] {
						t.Errorf("definite-unreachable instruction executed: %s", f)
					}
				case "uninit-read":
					if rec.executed[f.Addr] && !rec.uninitRead[f.Addr] {
						t.Errorf("definite uninit-read not seen dynamically: %s", f)
					}
				}
			}
		})
	}
}
