package emu_test

import (
	"testing"

	"repro/internal/emu"
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
