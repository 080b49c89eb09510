package emu_test

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/vp"
)

// trapCycles records the cycle of every trap taken (a TrapWatcher-only
// plugin, so translated engines keep their fast paths).
type trapCycles struct {
	m      *emu.Machine
	cycles []uint64
	causes []uint32
}

func (tc *trapCycles) Name() string { return "trap-cycles" }
func (tc *trapCycles) OnTrap(cause, tval, pc uint32) {
	tc.cycles = append(tc.cycles, tc.m.Hart.Cycle)
	tc.causes = append(tc.causes, cause)
}

// TestDoubleTrapStops pins the double-trap guard: when the installed
// handler's first instruction itself faults, the machine must stop with
// StopTrap instead of vectoring forever without retiring (the hang a
// fault campaign provokes by flipping a bit in the handler entry).
func TestDoubleTrapStops(t *testing.T) {
	src := vp.Prelude + `
_start:
	la t0, handler
	csrw mtvec, t0
	ecall
handler:
	.word 0xffffffff          # handler entry is an illegal instruction
`
	for _, eng := range []emu.Engine{emu.EngineSuperblock, emu.EngineSwitch} {
		p, err := vp.New(vp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.LoadSource(src); err != nil {
			t.Fatal(err)
		}
		p.Machine.Engine = eng
		stop := p.Run(10_000)
		if stop.Reason != emu.StopTrap {
			t.Errorf("%v: stop = %+v, want StopTrap from the double-trap guard", eng, stop)
		}
	}
	// Step path takes the same trap() route.
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadSource(src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if stop := p.Machine.Step(); stop != nil {
			if stop.Reason != emu.StopTrap {
				t.Errorf("step: stop = %+v, want StopTrap", stop)
			}
			return
		}
	}
	t.Error("step: double trap never stopped the machine")
}

// TestSuperblockGuardObservesIRQ pins the superblock contract for
// external interrupts: fused traces keep polling at former block
// boundaries, so an interrupt asserted while a hot loop runs inside a
// superblock trace is delivered at the same cycle as on the unfused
// engines.
func TestSuperblockGuardObservesIRQ(t *testing.T) {
	src := vp.Prelude + `
_start:
	la t0, handler
	csrw mtvec, t0
	li t0, PLIC_ENABLE
	li t1, 8                  # test-trigger line only
	sw t1, 0(t0)
	li t0, 0x800              # MEIE
	csrw mie, t0
	csrsi mstatus, 8
	li s0, 20000
	li s1, 0
loop:                         # hot enough to fuse into a trace
	addi s1, s1, 1
	addi s0, s0, -1
	bnez s0, loop
	mv a0, s2
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
handler:
claim:
	li t1, PLIC_CLAIM
	lw t2, 0(t1)
	beqz t2, out
	addi s2, s2, 1            # count serviced claims
	j claim
out:
	mret
`
	const trigger = 30_000 // mid-loop, well after trace formation
	var ref *trapCycles
	for _, eng := range []emu.Engine{emu.EngineSuperblock, emu.EngineSwitch} {
		p, err := vp.New(vp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.LoadSource(src); err != nil {
			t.Fatal(err)
		}
		p.Machine.Engine = eng
		tc := &trapCycles{m: p.Machine}
		if err := p.Machine.Hooks.Register(tc); err != nil {
			t.Fatal(err)
		}
		p.Plic.TriggerAt(trigger)
		stop := p.Run(200_000)
		if stop.Reason != emu.StopExit || stop.Code != 1 {
			t.Fatalf("%v: stop = %+v, want exit with 1 serviced claim", eng, stop)
		}
		if len(tc.cycles) != 1 {
			t.Fatalf("%v: %d traps, want 1", eng, len(tc.cycles))
		}
		if tc.cycles[0] < trigger {
			t.Errorf("%v: delivered at cycle %d, before the %d assert", eng, tc.cycles[0], trigger)
		}
		if ref == nil {
			ref = tc
			continue
		}
		if tc.cycles[0] != ref.cycles[0] || tc.causes[0] != ref.causes[0] {
			t.Errorf("%v: trap at cycle %d cause %#x, want cycle %d cause %#x",
				eng, tc.cycles[0], tc.causes[0], ref.cycles[0], ref.causes[0])
		}
	}
}

// fakeIRQ is a scripted interrupt input: every full poll it checks what
// the machine shows of the previous poll's lines, then steps to the next
// line pattern and schedules its next event period cycles on.
type fakeIRQ struct {
	t      *testing.T
	m      *emu.Machine
	period uint64

	ticks []uint64 // the cycle of every Tick
	step  int      // index into fakePatterns of the current lines
	next  uint64   // the announced next event
}

const (
	meip = 1 << isa.IntMachineExternal
	mtip = 1 << isa.IntMachineTimer
	msip = 1 << isa.IntMachineSoftware
	// hostMip are mip bits outside the interrupt lines that the host
	// sets before the run, and strayLines one the fake reports beside
	// them: a poll must keep the first and ignore the second.
	hostMip    = 1<<1 | 1<<9
	strayLines = 1 << 5
)

// fakePatterns turns each of MEIP, MTIP and MSIP on and off.
var fakePatterns = []uint32{0, meip, meip | mtip, mtip | msip, msip, meip | mtip | msip, 0}

func (f *fakeIRQ) Tick(cycle uint64) {
	if cycle != f.m.Hart.Cycle {
		f.t.Errorf("Tick(%d) at cycle %d", cycle, f.m.Hart.Cycle)
	}
	if len(f.ticks) > 0 {
		if cycle < f.next {
			f.t.Errorf("full poll at cycle %d, before the next event at %d", cycle, f.next)
		}
		if got, want := f.m.Hart.Mip, hostMip|fakePatterns[f.step]; got != want {
			f.t.Errorf("mip = %#x at cycle %d, want %#x from the last poll", got, cycle, want)
		}
		f.step = (f.step + 1) % len(fakePatterns)
	}
	f.ticks = append(f.ticks, cycle)
	f.next = cycle + f.period
}

func (f *fakeIRQ) Lines() uint32             { return fakePatterns[f.step] | strayLines }
func (f *fakeIRQ) NextEvent() (uint64, bool) { return f.next, true }

// TestIRQSourceLines pins the machine's one interrupt input: mip's MEIP,
// MTIP and MSIP bits follow Lines() exactly at every full poll, every
// other mip bit is left alone, Tick gets each full poll's cycle, and no
// full poll happens before NextEvent — on both engines and under
// single-stepping. Interrupts stay disabled, so nothing is delivered.
func TestIRQSourceLines(t *testing.T) {
	const src = `
	li t0, 3000
1:	addi t0, t0, -1
	bnez t0, 1b
	ebreak
`
	drivers := map[string]func(p *vp.Platform) emu.StopInfo{"step": stepRun(10_000)}
	for _, e := range emu.Engines() {
		drivers[e.String()] = engineRun(e, 10_000)
	}
	for name, run := range drivers {
		p, err := vp.New(vp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.LoadSource(vp.Prelude + src); err != nil {
			t.Fatal(err)
		}
		f := &fakeIRQ{t: t, m: p.Machine, period: 97}
		p.Machine.IRQ = f
		p.Machine.Hart.Mip = hostMip
		if stop := run(p); stop.Reason != emu.StopEbreak {
			t.Fatalf("%s: stop = %v", name, stop)
		}
		if got := p.Machine.Stats().FullPolls; got != uint64(len(f.ticks)) {
			t.Errorf("%s: %d full polls, %d ticks", name, got, len(f.ticks))
		}
		if len(f.ticks) < 2*len(fakePatterns) {
			t.Errorf("%s: %d full polls, want every line pattern twice", name, len(f.ticks))
		}
		if got, want := p.Machine.Hart.Mip, hostMip|fakePatterns[f.step]; got != want {
			t.Errorf("%s: final mip = %#x, want %#x", name, got, want)
		}
		p.Release()
	}
}
