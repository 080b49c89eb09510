package subset_test

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/asm"
	"repro/internal/cover"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/subset"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// This file proves the subset analyzer's central contract
// differentially, over every workload kernel and every assembly program
// embedded in the examples:
//
//  1. Soundness: when the report claims Sound, every opcode the program
//     dynamically executes is in the static opcode set.
//  2. Transparency: running with the subset installed as an enforcement
//     allowlist (emu.Machine.SetSubset) is bit-identical to an
//     unrestricted run — same stop, counters, register files, trap CSRs,
//     RAM and UART output — on the switch and superblock engines and
//     under Step().

type soundCase struct {
	name   string
	src    string
	budget uint64
	sensor []int16
}

func soundCases(t *testing.T) []soundCase {
	t.Helper()
	var cases []soundCase
	for _, w := range workloads.All() {
		cases = append(cases, soundCase{
			name:   "workload/" + w.Name,
			src:    w.Source,
			budget: w.Budget,
			sensor: w.Sensor,
		})
	}
	cases = append(cases, exampleCases(t)...)
	return cases
}

// exampleCases extracts the assembly programs embedded as backquoted
// literals in the examples (e.g. examples/quickstart) and keeps every
// literal that assembles under the platform prelude.
func exampleCases(t *testing.T) []soundCase {
	t.Helper()
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	lit := regexp.MustCompile("(?s)`[^`]*`")
	var cases []soundCase
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range lit.FindAllString(string(src), -1) {
			body := m[1 : len(m)-1]
			if _, err := asm.AssembleAt(vp.Prelude+body, vp.RAMBase); err != nil {
				continue
			}
			cases = append(cases, soundCase{
				name:   "example/" + filepath.Base(filepath.Dir(f)) + litSuffix(i),
				src:    body,
				budget: 1_000_000,
			})
		}
	}
	if len(cases) == 0 {
		t.Fatal("no assembly literal found under examples/ — extraction broken?")
	}
	return cases
}

func litSuffix(i int) string {
	if i == 0 {
		return ""
	}
	return string(rune('a' + i))
}

// soundState is the observable machine state a subset-enforced run must
// reproduce exactly.
type soundState struct {
	stop    emu.StopInfo
	instret uint64
	cycle   uint64
	pc      uint32
	x       [32]uint32
	f       [32]uint32
	mepc    uint32
	mcause  uint32
	mtval   uint32
	ram     uint64
	out     string
}

func captureSound(p *vp.Platform, stop emu.StopInfo) soundState {
	h := &p.Machine.Hart
	st := soundState{
		stop:    stop,
		instret: h.Instret,
		cycle:   h.Cycle,
		pc:      h.PC,
		x:       h.X,
		f:       h.F,
		mepc:    h.Mepc,
		mcause:  h.Mcause,
		mtval:   h.Mtval,
		out:     p.Output(),
	}
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	d := uint64(fnvOffset)
	for _, b := range p.RAM.Bytes() {
		d = (d ^ uint64(b)) * fnvPrime
	}
	st.ram = d
	return st
}

func soundPlatform(t *testing.T, c soundCase) *vp.Platform {
	t.Helper()
	p, err := vp.New(vp.Config{Profile: timing.Unit(), Sensor: c.sensor})
	if err != nil {
		t.Fatalf("vp.New: %v", err)
	}
	if _, err := p.LoadSource(vp.Prelude + c.src); err != nil {
		t.Fatalf("load %s: %v", c.name, err)
	}
	return p
}

func analyzeCase(t *testing.T, c soundCase) *subset.Report {
	t.Helper()
	prog, err := asm.AssembleAt(vp.Prelude+c.src, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := subset.Analyze(prog.Bytes, prog.Org, prog.Entry, nil)
	if err != nil {
		t.Fatalf("analyze %s: %v", c.name, err)
	}
	return rep
}

// runEnforced runs a case on one engine (or stepped) with the given
// allowlist (empty = unrestricted) and an optional coverage collector.
func runEnforced(t *testing.T, c soundCase, engine emu.Engine, stepped bool,
	allow isa.OpSet, cov *cover.Coverage) soundState {
	t.Helper()
	p := soundPlatform(t, c)
	p.Machine.Engine = engine
	p.Machine.SetSubset(allow)
	if cov != nil {
		if err := p.Machine.Hooks.Register(cov); err != nil {
			t.Fatal(err)
		}
	}
	if !stepped {
		return captureSound(p, p.Run(c.budget))
	}
	var stop *emu.StopInfo
	for n := uint64(0); n < c.budget; n++ {
		if stop = p.Machine.Step(); stop != nil {
			break
		}
	}
	if stop == nil {
		stop = &emu.StopInfo{Reason: emu.StopBudget, PC: p.Machine.Hart.PC}
	}
	return captureSound(p, *stop)
}

// TestSubsetSoundnessAndTransparency is the differential proof over all
// programs, engines and the stepper.
func TestSubsetSoundnessAndTransparency(t *testing.T) {
	engines := []struct {
		name    string
		engine  emu.Engine
		stepped bool
	}{
		{"switch", emu.EngineSwitch, false},
		{"superblock", emu.EngineSuperblock, false},
		{"step", emu.EngineSuperblock, true},
	}
	for _, c := range soundCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rep := analyzeCase(t, c)

			// Reference run, collecting the dynamic opcode set.
			cov := cover.New(isa.RV32Full)
			ref := runEnforced(t, c, emu.EngineSwitch, false, isa.OpSet{}, cov)
			if ref.stop.Reason == emu.StopBudget {
				t.Fatalf("reference run did not terminate within %d insts", c.budget)
			}

			// Soundness: a Sound report's static set covers every
			// dynamically executed opcode.
			dynamic := isa.OpSet{}
			for op := range cov.Ops {
				dynamic.Add(op)
			}
			if rep.Sound {
				for _, op := range dynamic.Ops() {
					if !rep.OpSet().Has(op) {
						t.Errorf("executed op %v not in static subset %v", op, rep.Ops)
					}
				}
			} else {
				t.Logf("%s: report unsound (unresolved=%v mtvec=%v); subset widened with dynamic set",
					c.name, rep.Unresolved, rep.MtvecWrite)
			}

			// Transparency: enforcement with the (possibly widened)
			// allowlist must not perturb any engine.
			allow := rep.OpSet().Union(dynamic)
			for _, e := range engines {
				free := runEnforced(t, c, e.engine, e.stepped, isa.OpSet{}, nil)
				enf := runEnforced(t, c, e.engine, e.stepped, allow, nil)
				if free != enf {
					t.Errorf("%s: subset-enforced state differs from unrestricted\n free: %+v\n enf:  %+v",
						e.name, free, enf)
				}
			}
		})
	}
}

// TestSubsetSoundOnAllWorkloads pins down that the analyzer actually
// proves soundness (not just flags unsoundness) on the straight-line
// kernels: every workload that installs no trap vector must come back
// Sound.
func TestSubsetSoundOnAllWorkloads(t *testing.T) {
	sound := 0
	for _, w := range workloads.All() {
		rep := analyzeCase(t, soundCase{name: w.Name, src: w.Source, budget: w.Budget})
		if rep.Sound {
			sound++
		} else if len(rep.Unresolved) > 0 {
			t.Errorf("%s: unresolved indirect flow %v", w.Name, rep.Unresolved)
		}
	}
	if sound == 0 {
		t.Error("no workload analyzed as sound")
	}
}
