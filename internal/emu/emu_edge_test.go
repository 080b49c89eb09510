package emu_test

import (
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/timing"
	"repro/internal/vp"
)

func TestJALRClearsBitZero(t *testing.T) {
	// jalr must clear bit 0 of the computed target (the spec's &~1).
	p := runExpectEbreak(t, `
		la t0, target
		addi t0, t0, 1      # odd address
		jalr ra, 0(t0)
		ebreak              # skipped
target:
		li s0, 7
		ebreak
	`)
	if reg(p, isa.S0) != 7 {
		t.Error("jalr did not mask bit 0")
	}
}

func TestJumpToHalfwordAlignedIsLegal(t *testing.T) {
	// With the C extension implemented, 2-byte aligned targets are legal.
	p := runExpectEbreak(t, `
		la t0, target
		jr t0
		.align 2
		c.nop               # make 'target' 2-byte aligned
target:
		li s0, 3
		ebreak
	`)
	_ = p // reaching ebreak is the assertion
}

func TestFetchFromUnmappedTraps(t *testing.T) {
	_, stop := run(t, `
		li t0, 0x40000000
		jr t0
	`)
	if stop.Reason != emu.StopTrap || stop.Cause != isa.ExcInstAccessFault {
		t.Errorf("stop = %v", stop)
	}
	if stop.Tval != 0x4000_0000 {
		t.Errorf("tval = 0x%x", stop.Tval)
	}
}

func TestCSRReadOnlyWriteTraps(t *testing.T) {
	// csrr (csrrs with rs1=x0) of a read-only counter is legal...
	p := runExpectEbreak(t, `
		csrr a0, cycle
		ebreak
	`)
	_ = p
	// ...but any write form to a read-only CSR is an illegal instruction.
	_, stop := run(t, `
		csrrs a0, cycle, a1
	`)
	if stop.Reason != emu.StopTrap || stop.Cause != isa.ExcIllegalInst {
		t.Errorf("stop = %v", stop)
	}
	_, stop = run(t, `
		csrw mhartid, a0
	`)
	if stop.Reason != emu.StopTrap || stop.Cause != isa.ExcIllegalInst {
		t.Errorf("mhartid write: %v", stop)
	}
}

func TestUnimplementedCSRTraps(t *testing.T) {
	_, stop := run(t, `
		csrr a0, 0x123
	`)
	if stop.Reason != emu.StopTrap || stop.Cause != isa.ExcIllegalInst {
		t.Errorf("stop = %v", stop)
	}
}

func TestVectoredInterruptDispatch(t *testing.T) {
	p := runExpectEbreak(t, `
		la t0, vtable
		ori t0, t0, 1       # vectored mode
		csrw mtvec, t0
		# arm the timer
		li t1, CLINT_MTIME
		lw t2, 0(t1)
		addi t2, t2, 50
		li t1, CLINT_MTIMECMP
		sw t2, 0(t1)
		sw zero, 4(t1)
		li t3, 128          # MTIE
		csrw mie, t3
		csrsi mstatus, 8
		li s0, 0
1:		beqz s0, 1b
		ebreak

		.align 4
vtable:
		j bad               # cause 0
		j bad               # 1
		j bad               # 2
		j bad               # 3 (software would land here +12)
		j bad               # 4
		j bad               # 5
		j bad               # 6
		j timer             # 7 = machine timer
bad:
		li s0, 99
		csrw mie, zero
		mret
timer:
		li s0, 1
		csrw mie, zero
		mret
	`)
	if reg(p, isa.S0) != 1 {
		t.Errorf("vectored dispatch landed wrong: s0=%d", reg(p, isa.S0))
	}
}

func TestTrapSavesAndRestoresMIE(t *testing.T) {
	p := runExpectEbreak(t, `
		la t0, handler
		csrw mtvec, t0
		csrsi mstatus, 8    # MIE on
		ecall
		# after mret MIE must be restored
		csrr s1, mstatus
		andi s1, s1, 8
		ebreak
handler:
		# inside the handler MIE must be off, MPIE on
		csrr s0, mstatus
		csrr t2, mepc
		addi t2, t2, 4
		csrw mepc, t2
		mret
	`)
	if reg(p, isa.S0)&8 != 0 {
		t.Error("MIE not cleared inside handler")
	}
	if reg(p, isa.S0)&0x80 == 0 {
		t.Error("MPIE not saved")
	}
	if reg(p, isa.S1) != 8 {
		t.Error("MIE not restored by mret")
	}
}

func TestLongStraightLineCrossesTBLimit(t *testing.T) {
	// 200 sequential addis exceed the 64-instruction TB limit; execution
	// must chain blocks transparently.
	var sb strings.Builder
	sb.WriteString("li a0, 0\n")
	for i := 0; i < 200; i++ {
		sb.WriteString("addi a0, a0, 1\n")
	}
	sb.WriteString("ebreak\n")
	p := runExpectEbreak(t, sb.String())
	if reg(p, isa.A0) != 200 {
		t.Errorf("a0 = %d", reg(p, isa.A0))
	}
	if p.Machine.CachedBlocks() < 3 {
		t.Errorf("expected several chained TBs, got %d", p.Machine.CachedBlocks())
	}
}

func TestLoadUseStallCycles(t *testing.T) {
	prof := timing.EdgeSmall()
	cycles := func(src string) uint64 {
		p, err := vp.New(vp.Config{Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.LoadSource(vp.Prelude + src); err != nil {
			t.Fatal(err)
		}
		if stop := p.Run(1000); stop.Reason != emu.StopEbreak {
			t.Fatalf("stop: %v", stop)
		}
		return p.Machine.Hart.Cycle
	}
	dependent := cycles(`
		la a0, buf
		lw a1, 0(a0)
		add a2, a1, a1      # load-use
		ebreak
buf:	.word 1
	`)
	independent := cycles(`
		la a0, buf
		lw a1, 0(a0)
		add a2, a3, a3      # no dependency
		ebreak
buf:	.word 1
	`)
	if dependent != independent+uint64(prof.LoadUseStall) {
		t.Errorf("dependent %d vs independent %d (stall %d)",
			dependent, independent, prof.LoadUseStall)
	}
}

func TestMIPSoftwareBitWithoutCLINT(t *testing.T) {
	// Without a CLINT the software-interrupt pending bit is directly
	// CSR-writable (useful for self-raised interrupts in tests).
	p := runExpectEbreak(t, `
		la t0, handler
		csrw mtvec, t0
		li t1, 8            # MSIE
		csrw mie, t1
		li s0, 0
		csrsi mip, 8        # raise MSIP by CSR write... requires no clint
		csrsi mstatus, 8
		nop
		ebreak
handler:
		li s0, 1
		csrci mip, 8
		mret
	`)
	// The platform wires a CLINT, which overrides mip.MSIP on every
	// poll; so here the interrupt must NOT fire and s0 stays 0.
	if reg(p, isa.S0) != 0 {
		t.Error("CLINT-present platform must derive MSIP from the CLINT, not the CSR")
	}
}

func TestEbreakTrapsWhenNotHalting(t *testing.T) {
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p.Machine.HaltOnEbreak = false
	if _, err := p.LoadSource(vp.Prelude + `
		la t0, handler
		csrw mtvec, t0
		li s0, 0
		ebreak
		j done
handler:
		li s0, 1
		csrr t1, mepc
		addi t1, t1, 4
		csrw mepc, t1
		mret
done:
		li a0, 0
		li t6, SYSCON_EXIT
		sw a0, 0(t6)
	`); err != nil {
		t.Fatal(err)
	}
	stop := p.Run(1000)
	if stop.Reason != emu.StopExit {
		t.Fatalf("stop = %v", stop)
	}
	if p.Machine.Hart.Reg(isa.S0) != 1 {
		t.Error("ebreak did not reach the breakpoint handler")
	}
	if p.Machine.Hart.Mcause != isa.ExcBreakpoint {
		t.Errorf("mcause = %d", p.Machine.Hart.Mcause)
	}
}

func TestResetClearsEverything(t *testing.T) {
	p, _ := vp.New(vp.Config{})
	p.LoadSource("li a0, 5\nebreak\n")
	p.Run(100)
	p.Machine.Reset(vp.RAMBase)
	h := &p.Machine.Hart
	if h.Reg(isa.A0) != 0 || h.Cycle != 0 || h.Instret != 0 || h.PC != vp.RAMBase {
		t.Errorf("reset incomplete: %+v", h)
	}
	if p.Machine.Stopped() != nil {
		t.Error("stop not cleared by reset")
	}
}

func TestICacheLocality(t *testing.T) {
	// With the I-cache model, a loop's second iteration hits in cache:
	// total cycles must be far below the all-miss static assumption and
	// above the cache-less dynamic time.
	src := vp.Prelude + `
		li a0, 100
1:		addi a0, a0, -1
		bnez a0, 1b
		ebreak
	`
	cycles := func(prof *timing.Profile) uint64 {
		p, _ := vp.New(vp.Config{Profile: prof})
		if _, err := p.LoadSource(src); err != nil {
			t.Fatal(err)
		}
		if stop := p.Run(10000); stop.Reason != emu.StopEbreak {
			t.Fatalf("stop: %v", stop)
		}
		return p.Machine.Hart.Cycle
	}
	plain := cycles(timing.EdgeSmall())
	cached := cycles(timing.EdgeCache())
	if cached <= plain {
		t.Errorf("I-cache misses should add cycles: %d vs %d", cached, plain)
	}
	// 100 iterations over one line: roughly one miss total, so the
	// cached run must cost much less than one miss per iteration.
	missBound := plain + 100*uint64(timing.EdgeCache().ICacheMissPenalty)
	if cached >= missBound {
		t.Errorf("no locality: %d cycles >= all-miss bound %d", cached, missBound)
	}
}
