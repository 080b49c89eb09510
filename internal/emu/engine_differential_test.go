package emu_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/timing"
	"repro/internal/torture"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// This file is the safety net for the compiled engine: every workload
// and a batch of seeded torture programs run under Step(), the switch
// interpreter and the compiled superblock engine, under the platform's
// default profile and every built-in timing profile, and the full
// architectural state —
// stop info, Instret, Cycle, both register files, trap CSRs and a RAM
// digest — must be bit-identical across all three paths.
//
// Step() is compared only under profiles without a load-use interlock:
// single-stepping legitimately differs in Cycle where one exists (the
// engines reset hazard state at block boundaries, Step never sees one)
// — that is a documented property, not a bug.

// archState is the full observable machine state at end of run.
type archState struct {
	stop    emu.StopInfo
	instret uint64
	cycle   uint64
	pc      uint32
	x       [32]uint32
	f       [32]uint32
	mstatus uint32
	mepc    uint32
	mcause  uint32
	mtval   uint32
	fflags  uint32
	ram     uint64 // FNV-1a digest of all RAM bytes
	out     string // UART output
}

func captureState(p *vp.Platform, stop emu.StopInfo) archState {
	h := &p.Machine.Hart
	st := archState{
		stop:    stop,
		instret: h.Instret,
		cycle:   h.Cycle,
		pc:      h.PC,
		x:       h.X,
		f:       h.F,
		mstatus: h.Mstatus,
		mepc:    h.Mepc,
		mcause:  h.Mcause,
		mtval:   h.Mtval,
		fflags:  h.Fflags,
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

// diffCase is one program to run under every execution path.
type diffCase struct {
	name   string
	src    string // assembly body, prelude prepended
	budget uint64
	sensor []int16
	stream []int16 // DMA sensor stream
	uartIn []byte  // pre-fed UART receive bytes
	// noStep skips the Step() comparison: single-stepping polls
	// interrupts before every instruction while the block engines poll
	// at block boundaries, so asynchronous-interrupt delivery points
	// (mepc) legitimately differ — a documented granularity property,
	// like the load-use note above.
	noStep bool
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	var cases []diffCase
	for _, w := range workloads.All() {
		cases = append(cases, diffCase{
			name:   "workload/" + w.Name,
			src:    w.Source,
			budget: w.Budget,
			sensor: w.Sensor,
		})
	}
	// Interrupt demonstrators: DMA completion, PLIC claim/clear and UART
	// drain all happen relative to exact cycle counts at poll points, so
	// any engine divergence in device-visible time surfaces as a state
	// mismatch here. Step delivery points legitimately differ (noStep);
	// the functional Step comparison lives in the workloads tests.
	for _, w := range workloads.Interrupt() {
		cases = append(cases, diffCase{
			name:   "irq/" + w.Name,
			src:    w.Source,
			budget: w.Budget,
			sensor: w.Sensor,
			stream: w.Stream,
			uartIn: w.UARTIn,
			noStep: true,
		})
	}
	for seed := int64(1); seed <= 8; seed++ {
		prog := torture.Generate(torture.Config{Seed: seed, Insts: 160})
		cases = append(cases, diffCase{
			name:   fmt.Sprintf("torture/seed%d", seed),
			src:    prog.Source,
			budget: prog.Budget,
		})
	}
	// Interrupt-heavy: a hot ALU loop (long enough for the superblock
	// engine to fuse traces) peppered with timer interrupts whose
	// delivery points depend on exact cycle counts at every block
	// boundary — the sharpest probe of boundary-poll equivalence.
	cases = append(cases, diffCase{
		name: "intr-hot",
		src: `
		la t0, handler
		csrw mtvec, t0
		li t1, CLINT_MTIME
		lw t2, 0(t1)
		addi t2, t2, 64
		li t1, CLINT_MTIMECMP
		sw t2, 0(t1)
		sw zero, 4(t1)
		li t3, 128          # MTIE
		csrw mie, t3
		csrsi mstatus, 8    # MIE
		li s0, 0            # interrupts taken
		li s1, 0            # loop counter
		li s2, 4000
		li s3, 0            # accumulator
loop:
		addi s1, s1, 1
		xor s3, s3, s1
		slli t4, s1, 3
		add s3, s3, t4
		srli t5, s3, 5
		xor s3, s3, t5
		blt s1, s2, loop
		csrw mie, zero
		ebreak
handler:
		addi s0, s0, 1
		li t1, CLINT_MTIMECMP
		lw t6, 0(t1)
		addi t6, t6, 97     # re-arm at an odd stride
		sw t6, 0(t1)
		mret
		`,
		budget: 80_000,
		noStep: true,
	})
	// Trap-heavy: every iteration of a hot loop raises two synchronous
	// exceptions (ecall, and a load fault in the middle of a block) that
	// the handler skips, and the budget runs out mid-loop. A faulting
	// instruction is attempted but not retired, and the budget counts
	// attempts, so any engine that charged retirements instead would stop
	// at a different point.
	cases = append(cases, diffCase{
		name: "trap-loop",
		src: `
		la t0, handler
		csrw mtvec, t0
		li s0, 0
		li s1, 0
		li s2, 0
loop:
		addi s0, s0, 1
		ecall
		xor s1, s1, s0
		lw t1, 1(zero)      # misaligned and unmapped: faults
		add s1, s1, t1
		j loop
handler:
		csrr t2, mepc
		addi t2, t2, 4
		csrw mepc, t2
		addi s2, s2, 1
		mret
		`,
		budget: 20_011,
	})
	// Self-modifying: a loop hot enough to be fused into a trace patches
	// one of its own instructions halfway through, so the store must
	// sever the trace and later iterations re-execute (and re-fuse) the
	// patched code identically on every engine.
	cases = append(cases, diffCase{
		name: "selfmod-hot",
		src: `
		la t0, patch
		la t1, alt
		lw t2, 0(t1)        # replacement instruction bytes
		li s0, 0
		li s1, 0
		li s2, 200
		li s3, 0
		li t3, 100
loop:
		addi s1, s1, 1
		xor s3, s3, s1
		add s3, s3, s0
patch:
		addi s0, s0, 1
		bne s1, t3, skip
		sw t2, 0(t0)        # overwrite the patch instruction mid-loop
		fence.i
skip:
		blt s1, s2, loop
		ebreak
alt:
		addi s0, s0, 2
		`,
		budget: 10_000,
	})
	return cases
}

func newDiffPlatform(t *testing.T, c diffCase, prof *timing.Profile) *vp.Platform {
	t.Helper()
	p, err := vp.New(vp.Config{Profile: prof, Sensor: c.sensor, Stream: c.stream, UARTIn: c.uartIn})
	if err != nil {
		t.Fatalf("vp.New: %v", err)
	}
	if _, err := p.LoadSource(vp.Prelude + c.src); err != nil {
		t.Fatalf("load %s: %v", c.name, err)
	}
	return p
}

func runEngine(t *testing.T, c diffCase, prof *timing.Profile, engine emu.Engine) archState {
	t.Helper()
	p := newDiffPlatform(t, c, prof)
	p.Machine.Engine = engine
	return captureState(p, p.Run(c.budget))
}

// runStep drives the same program one instruction at a time, then
// synthesizes the budget-stop Run would have reported so the states are
// comparable even when the budget expires.
func runStep(t *testing.T, c diffCase, prof *timing.Profile) archState {
	t.Helper()
	p := newDiffPlatform(t, c, prof)
	var stop *emu.StopInfo
	for n := uint64(0); n < c.budget; n++ {
		if stop = p.Machine.Step(); stop != nil {
			break
		}
	}
	if stop == nil {
		stop = &emu.StopInfo{Reason: emu.StopBudget, PC: p.Machine.Hart.PC}
	}
	return captureState(p, *stop)
}

func diffStates(t *testing.T, what string, want, got archState) {
	t.Helper()
	if want == got {
		return
	}
	if want.stop != got.stop {
		t.Errorf("%s: stop = %v, want %v", what, got.stop, want.stop)
	}
	if want.instret != got.instret {
		t.Errorf("%s: instret = %d, want %d", what, got.instret, want.instret)
	}
	if want.cycle != got.cycle {
		t.Errorf("%s: cycle = %d, want %d", what, got.cycle, want.cycle)
	}
	if want.pc != got.pc {
		t.Errorf("%s: pc = %#x, want %#x", what, got.pc, want.pc)
	}
	for i := range want.x {
		if want.x[i] != got.x[i] {
			t.Errorf("%s: x%d = %#x, want %#x", what, i, got.x[i], want.x[i])
		}
	}
	for i := range want.f {
		if want.f[i] != got.f[i] {
			t.Errorf("%s: f%d = %#x, want %#x", what, i, got.f[i], want.f[i])
		}
	}
	if want.ram != got.ram {
		t.Errorf("%s: RAM digest = %#x, want %#x", what, got.ram, want.ram)
	}
	if want.out != got.out {
		t.Errorf("%s: output = %q, want %q", what, got.out, want.out)
	}
	if want.mstatus != got.mstatus || want.mepc != got.mepc ||
		want.mcause != got.mcause || want.mtval != got.mtval || want.fflags != got.fflags {
		t.Errorf("%s: CSRs = %x/%x/%x/%x/%x, want %x/%x/%x/%x/%x", what,
			got.mstatus, got.mepc, got.mcause, got.mtval, got.fflags,
			want.mstatus, want.mepc, want.mcause, want.mtval, want.fflags)
	}
}

// diffProfile is one point of the differential's timing-profile axis.
type diffProfile struct {
	name string
	p    *timing.Profile
}

// diffProfiles is the platform default (a vp.Config without a profile,
// named "unit" after the timing.Unit() model emu.New gives it) plus
// every built-in profile, the built-in unit profile passed explicitly
// named "unit-profile". The two unit entries are one machine setting;
// TestDefaultProfileIsUnit (vp) pins that they end every kernel in the
// same state, and the axis keeps both so the default a zero Config takes
// is differentially tested like every explicit profile.
func diffProfiles() []diffProfile {
	out := []diffProfile{{"unit", nil}}
	builtin := timing.Profiles()
	names := make([]string, 0, len(builtin))
	for name := range builtin {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		label := name
		if name == "unit" {
			label = "unit-profile"
		}
		out = append(out, diffProfile{label, builtin[name]})
	}
	return out
}

// TestEngineDifferential proves bit-identical architectural state across
// the execution paths for every workload and torture seed under every
// timing profile.
func TestEngineDifferential(t *testing.T) {
	for _, c := range diffCases(t) {
		for _, prof := range diffProfiles() {
			t.Run(c.name+"/"+prof.name, func(t *testing.T) {
				ref := runEngine(t, c, prof.p, emu.EngineSwitch)
				superblock := runEngine(t, c, prof.p, emu.EngineSuperblock)
				diffStates(t, "superblock vs switch", ref, superblock)
				// Step is compared without a load-use interlock; a nil
				// profile is the platform default, timing.Unit().
				if (prof.p == nil || prof.p.LoadUseStall == 0) && !c.noStep {
					step := runStep(t, c, prof.p)
					diffStates(t, "step vs switch", ref, step)
				}
			})
		}
	}
}

// runSliced runs a program in budget slices of the given size, resuming
// after every budget stop, and returns the final state.
func runSliced(t *testing.T, c diffCase, prof *timing.Profile, engine emu.Engine, slice uint64) archState {
	t.Helper()
	p := newDiffPlatform(t, c, prof)
	p.Machine.Engine = engine
	var stop emu.StopInfo
	var used uint64
	for used < c.budget {
		n := min(slice, c.budget-used)
		stop = p.Run(n)
		used += n
		if stop.Reason != emu.StopBudget {
			break
		}
	}
	return captureState(p, stop)
}

// TestEngineDifferentialTightBudget exercises the budget-stop and resume
// paths: each program runs in small budget slices, and the compiled
// engine must match the switch interpreter sliced the same way under
// every profile. Compiled code only runs while the remaining budget
// outlasts the whole block or trace; a block the budget ends inside runs
// through the interpreter loop, so the slices cover both paths and the
// hand-over between them. (A slice of 1 would add nothing: no block
// fits, so every block would take the interpreter path.) Under
// the unit profile a block-unaligned slicing must also reproduce one
// uninterrupted run. (Under other profiles resuming mid-block drops the
// load-use hazard state, and resuming polls interrupts mid-block, so
// there sliced runs are compared with each other only.)
func TestEngineDifferentialTightBudget(t *testing.T) {
	for _, c := range diffCases(t) {
		t.Run(c.name, func(t *testing.T) {
			for _, prof := range diffProfiles() {
				for _, slice := range []uint64{3, 7, 65} {
					ref := runSliced(t, c, prof.p, emu.EngineSwitch, slice)
					got := runSliced(t, c, prof.p, emu.EngineSuperblock, slice)
					diffStates(t, fmt.Sprintf("%s slice %d", prof.name, slice), ref, got)
				}
			}
			ref := runEngine(t, c, timing.Unit(), emu.EngineSwitch)
			for _, engine := range []emu.Engine{emu.EngineSwitch, emu.EngineSuperblock} {
				const slice = 173 // deliberately not block-aligned
				got := runSliced(t, c, timing.Unit(), engine, slice)
				diffStates(t, fmt.Sprintf("%v sliced", engine), ref, got)
			}
		})
	}
}

// TestInterruptDeliveryPooled proves a shared translation pool does not
// perturb interrupt delivery: each demonstrator runs bit-identically
// with both engines warm-starting from a pool built by a
// fault-campaign-style golden run.
func TestInterruptDeliveryPooled(t *testing.T) {
	for _, w := range workloads.Interrupt() {
		c := diffCase{
			name:   w.Name,
			src:    w.Source,
			budget: w.Budget,
			sensor: w.Sensor,
			stream: w.Stream,
			uartIn: w.UARTIn,
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, engine := range []emu.Engine{emu.EngineSuperblock, emu.EngineSwitch} {
				plain := runEngine(t, c, nil, engine)

				gp := newDiffPlatform(t, c, nil)
				gp.Machine.Engine = engine
				if stop := gp.Run(c.budget); stop.Reason != emu.StopExit {
					t.Fatalf("%v: golden stop = %+v", engine, stop)
				}
				pool := gp.Machine.BuildTBPool()

				p := newDiffPlatform(t, c, nil)
				p.Machine.Engine = engine
				p.Machine.AttachTBPool(pool)
				pooled := captureState(p, p.Run(c.budget))
				diffStates(t, fmt.Sprintf("%v pooled", engine), plain, pooled)
			}
		})
	}
}

// Every accepted spelling parses; the retired "threaded" and the empty
// string select the default engine; every engine parses back from its
// own name; an unknown name is an error naming the engines.
func TestParseEngine(t *testing.T) {
	for _, name := range emu.EngineNames() {
		if _, err := emu.ParseEngine(name); err != nil {
			t.Errorf("ParseEngine(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", "threaded"} {
		if e, _ := emu.ParseEngine(name); e != emu.Engines()[0] {
			t.Errorf("ParseEngine(%q) = %s, want the default %s", name, e, emu.Engines()[0])
		}
	}
	if emu.Engines()[0] != emu.Engine(0) {
		t.Errorf("first engine %s is not the zero Engine", emu.Engines()[0])
	}
	for _, e := range emu.Engines() {
		if got, err := emu.ParseEngine(e.String()); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %s, %v", e.String(), got, err)
		}
	}
	_, err := emu.ParseEngine("jit")
	if err == nil || !strings.Contains(err.Error(), emu.EngineList()) {
		t.Errorf("ParseEngine(jit) error %v, want one naming %s", err, emu.EngineList())
	}
}
