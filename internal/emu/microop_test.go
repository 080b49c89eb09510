package emu_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// This file checks the two micro-ops that run interpreter definitions
// inside a deferred run — sbCSR (execCSR on the plain machine CSRs) and
// sbMulDyn (early-out mul/div costed by DynamicCost) — and the
// one-compare interrupt check their CSR writes feed: the compiled engine
// must leave every engine-visible field (the whole hart, RAM, the stop
// and the attempted-instruction count) exactly where single-stepping
// leaves it.

// plainCSRs are the machine CSRs sbCSR runs inline.
var plainCSRs = []string{"mstatus", "mie", "mip", "mtvec", "mscratch", "mepc", "mcause", "mtval"}

// csrFormsSrc exercises every Zicsr form on csr, including rd=x0,
// rs1=x0 and imm=0, and stores each value read. A write to mip is
// followed by a block boundary: the next interrupt poll re-mirrors the
// devices over the written bit, and single-stepping polls before every
// instruction where the block engines poll at boundaries.
func csrFormsSrc(csr string) string {
	forms := []string{
		"csrrw a0, %s, t0",
		"csrrs a1, %s, t1",
		"csrrc a2, %s, t0",
		"csrrwi a3, %s, 21",
		"csrrsi a4, %s, 10",
		"csrrci a5, %s, 5",
		"csrrw zero, %s, t2", // rd=x0: write only
		"csrrs a6, %s, zero", // rs1=x0: read only
		"csrrc a7, %s, zero",
		"csrrsi s2, %s, 0", // imm=0: read only
		"csrrci s3, %s, 0",
		"csrrwi zero, %s, 0",
		"csrrs zero, %s, t1",
		"csrrc s4, %s, t2",
	}
	var b strings.Builder
	b.WriteString(`
	li t0, 0x5a5a5a5a
	li t1, 0x0f0f0f0f
	li t2, -1
	la s0, out
	addi s5, zero, 3
`)
	for i, f := range forms {
		fmt.Fprintf(&b, "\t"+f+"\n", csr)
		if csr == "mip" {
			fmt.Fprintf(&b, "\tj b%d\nb%d:\n", i, i)
		}
	}
	for i, r := range []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4"} {
		fmt.Fprintf(&b, "\tsw %s, %d(s0)\n", r, 4*i)
	}
	b.WriteString(`
	ebreak
out:
	.space 64
`)
	return b.String()
}

// counterSrc reads the counters in the middle of a block, after an
// inline CSR access and an early-out multiply whose cycles go straight
// to the counter: the reads must see exact instret and cycle.
const counterSrc = `
	li t0, 7
	li t1, 1234567
	la s0, out
	mul a0, t0, t1
	csrrs a1, mscratch, t0
	csrr a2, mcycle
	csrr a3, minstret
	div a4, t1, t0
	csrw mscratch, a4
	csrr a5, cycle
	csrr a6, instret
	mulhu a7, t1, t1
	csrr s1, mcycleh
	sw a2, 0(s0)
	sw a3, 4(s0)
	sw a5, 8(s0)
	sw a6, 12(s0)
	ebreak
out:
	.space 16
`

// unknownCSRSrc raises illegal-instruction traps from the middle of
// blocks — an access to an unimplemented CSR and a write to a read-only
// one, each after inline CSR and mul/div work — whose handler records
// mepc, minstret, mcause and mtval and resumes past the faulting
// instruction with mret.
const unknownCSRSrc = `
_start:
	la t0, handler
	csrw mtvec, t0
	la s0, out
	li t1, 3
	mul t2, t1, t1
	csrw mscratch, t2
	csrr a0, 0x7c0
	div t3, t2, t1
	csrs mie, t3
	csrw mhartid, t1
	csrr a1, mscratch
	ebreak
handler:
	csrr t4, mepc
	sw t4, 0(s0)
	csrr t4, minstret
	sw t4, 4(s0)
	csrr t4, mcause
	sw t4, 8(s0)
	csrr t4, mtval
	sw t4, 12(s0)
	addi s0, s0, 16
	csrr t4, mepc
	addi t4, t4, 4
	csrw mepc, t4
	mret
out:
	.space 32
`

// mulDivSrc runs the M extension's early-out ops in a hot loop (traces
// form after a few iterations) over operands of every width: load-use
// stalls into rs1 and rs2, rd=x0, division by zero, INT_MIN/-1, and a
// device load after a dynamic op in the same block, whose slow path
// flushes and compensates the deferral around it.
func mulDivSrc() string {
	var words []string
	x := uint32(0x9e3779b9)
	for i := 0; i < 48; i++ {
		x = x*1664525 + 1013904223
		words = append(words, fmt.Sprint(x>>(x%32)))
	}
	return `
	la s0, data
	li s1, 24
	li s2, 0
	li t3, 0x80000000
	li t4, -1
	li t6, SENSOR_SAMPLE
loop:
	lw t1, 0(s0)
	mul a0, t1, s1
	lw t2, 4(s0)
	div a1, s1, t2
	mul zero, t1, t2
	div zero, t1, s1
	divu a2, t1, zero
	rem a3, t1, zero
	remu a4, s1, zero
	div a5, t3, t4
	rem a6, t3, t4
	mulh a7, t1, t3
	mulhsu s3, t3, t1
	mulhu s4, t1, t2
	lw s5, 0(t6)
	mul s6, s5, s1
	divu s7, t2, s1
	add s2, s2, a0
	xor s2, s2, a1
	add s2, s2, a2
	xor s2, s2, a3
	add s2, s2, a4
	xor s2, s2, a5
	add s2, s2, a6
	xor s2, s2, a7
	add s2, s2, s3
	xor s2, s2, s4
	add s2, s2, s6
	xor s2, s2, s7
	addi s0, s0, 8
	addi s1, s1, -1
	bnez s1, loop
	csrr a0, mcycle
	ebreak
data:
	.word ` + strings.Join(words, ", ") + `
`
}

// microState is every engine-visible field at the end of a run.
type microState struct {
	stop      emu.StopInfo
	hart      cpu.Hart
	attempted uint64
	ram       string
}

func runMicro(t *testing.T, src string, prof *timing.Profile, run func(p *vp.Platform) emu.StopInfo) microState {
	t.Helper()
	p, err := vp.New(vp.Config{Profile: prof, Sensor: []int16{5, -300, 77, 1 << 14, -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if _, err := p.LoadSource(vp.Prelude + src); err != nil {
		t.Fatal(err)
	}
	stop := run(p)
	return microState{stop, p.Machine.Hart, p.Machine.Attempted(), string(p.RAM.Bytes())}
}

func stepRun(budget uint64) func(p *vp.Platform) emu.StopInfo {
	return func(p *vp.Platform) emu.StopInfo {
		for n := uint64(0); n < budget; n++ {
			if s := p.Machine.Step(); s != nil {
				return *s
			}
		}
		return emu.StopInfo{Reason: emu.StopBudget, PC: p.Machine.Hart.PC}
	}
}

func engineRun(e emu.Engine, budget uint64) func(p *vp.Platform) emu.StopInfo {
	return func(p *vp.Platform) emu.StopInfo {
		p.Machine.Engine = e
		return p.Run(budget)
	}
}

func diffMicro(t *testing.T, what string, want, got microState) {
	t.Helper()
	if got.stop != want.stop {
		t.Errorf("%s: stop = %v, want %v", what, got.stop, want.stop)
	}
	if got.hart != want.hart {
		t.Errorf("%s: hart\n got %+v\nwant %+v", what, got.hart, want.hart)
	}
	if got.attempted != want.attempted {
		t.Errorf("%s: attempted = %d, want %d", what, got.attempted, want.attempted)
	}
	if got.ram != want.ram {
		t.Errorf("%s: RAM differs", what)
	}
}

// TestMicroOpDifferential runs every plain CSR in all six Zicsr forms, a
// mid-block counter read, trapping CSR accesses and the mul/div family
// under every timing profile, and requires the compiled engine (and the
// switch interpreter) to match single-stepping in every engine-visible
// field.
func TestMicroOpDifferential(t *testing.T) {
	type microCase struct {
		name, src string
		stop      emu.StopReason
	}
	var cases []microCase
	for _, c := range plainCSRs {
		cases = append(cases, microCase{"csr/" + c, csrFormsSrc(c), emu.StopEbreak})
	}
	cases = append(cases,
		microCase{"counter-mid-block", counterSrc, emu.StopEbreak},
		microCase{"unknown-csr", unknownCSRSrc, emu.StopEbreak},
		microCase{"muldiv", mulDivSrc(), emu.StopEbreak},
	)
	const budget = 100_000
	for _, c := range cases {
		for _, prof := range diffProfiles() {
			t.Run(c.name+"/"+prof.name, func(t *testing.T) {
				ref := runMicro(t, c.src, prof.p, stepRun(budget))
				if ref.stop.Reason != c.stop {
					t.Fatalf("step: stopped with %v, want %v", ref.stop, c.stop)
				}
				for _, e := range emu.Engines() {
					diffMicro(t, e.String(), ref, runMicro(t, c.src, prof.p, engineRun(e, budget)))
				}
			})
		}
	}
}

// TestMicroOpUnknownCSRTraps pins what the differential compares: both
// trapping accesses reach the handler with the faulting instruction in
// mepc, its encoding in mtval and exactly the instructions before it
// retired.
func TestMicroOpUnknownCSRTraps(t *testing.T) {
	for _, e := range emu.Engines() {
		p, err := vp.New(vp.Config{Profile: timing.EdgeSmall()})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := p.LoadSource(vp.Prelude + unknownCSRSrc)
		if err != nil {
			t.Fatal(err)
		}
		p.Machine.Engine = e
		if stop := p.Run(10_000); stop.Reason != emu.StopEbreak {
			t.Fatalf("%v: stopped with %v", e, stop)
		}
		out := prog.Symbols["out"] - vp.RAMBase
		word := func(i uint32) uint32 {
			b := p.RAM.Bytes()[out+4*i:]
			return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
		}
		// _start: la (2 insts), csrw, la (2), li, mul, csrw = 8 retire
		// before the first trap; the second follows the 13 handler
		// instructions up to and including mret, div and csrs. The
		// handler reads minstret after two instructions of its own.
		for i, want := range []struct{ mepc, instret uint32 }{
			{prog.Symbols["_start"] + 8*4, 8 + 2},
			{prog.Symbols["_start"] + 11*4, 8 + 13 + 2 + 2},
		} {
			if got := word(4 * uint32(i)); got != want.mepc {
				t.Errorf("%v: trap %d mepc = %#x, want %#x", e, i, got, want.mepc)
			}
			if got := word(4*uint32(i) + 1); got != want.instret {
				t.Errorf("%v: trap %d minstret = %d, want %d", e, i, got, want.instret)
			}
			if got := word(4*uint32(i) + 2); got != 2 {
				t.Errorf("%v: trap %d mcause = %d, want 2 (illegal instruction)", e, i, got)
			}
			if got := word(4*uint32(i) + 3); got == 0 {
				t.Errorf("%v: trap %d mtval = 0, want the instruction encoding", e, i)
			}
		}
		p.Release()
	}
}

// pendingTimerSrc has the timer pending before an inline csrsi enables
// MIE in the middle of a block: the interrupt is taken at the block's
// end boundary — mepc is next, and the rest of the block retired — as
// the block-boundary poll always took it.
const pendingTimerSrc = `
_start:
	la t0, handler
	csrw mtvec, t0
	li t0, CLINT_MTIMECMPH
	sw zero, 0(t0)
	li t0, CLINT_MTIMECMP
	sw zero, 0(t0)
	li t0, 0x80
	csrw mie, t0
	j wait
wait:
	addi a0, a0, 1
	csrsi mstatus, 8
	addi a1, a1, 1
	addi a2, a2, 1
	j next
next:
	li a3, 1
	ebreak
handler:
	csrr s0, mepc
	csrr s1, mcause
	ebreak
`

// TestCSRSetsMIEWithTimerPending checks that enabling MIE through the
// inline CSR micro-op with a timer already pending delivers the
// interrupt at the same block boundary on both engines and under every
// profile.
func TestCSRSetsMIEWithTimerPending(t *testing.T) {
	for _, prof := range diffProfiles() {
		var ref *microState
		for _, e := range emu.Engines() {
			p, err := vp.New(vp.Config{Profile: prof.p})
			if err != nil {
				t.Fatal(err)
			}
			prog, err := p.LoadSource(vp.Prelude + pendingTimerSrc)
			if err != nil {
				t.Fatal(err)
			}
			p.Machine.Engine = e
			stop := p.Run(1000)
			h := &p.Machine.Hart
			if stop.Reason != emu.StopEbreak || h.X[8] != prog.Symbols["next"] || h.X[9] != 1<<31|7 {
				t.Errorf("%s/%v: stop %v, mepc %#x mcause %#x; want the timer taken at next (%#x)",
					prof.name, e, stop, h.X[8], h.X[9], prog.Symbols["next"])
			}
			if h.X[11] != 1 || h.X[12] != 1 || h.X[13] != 0 {
				t.Errorf("%s/%v: a1=%d a2=%d a3=%d, want the block after csrsi retired and next not run",
					prof.name, e, h.X[11], h.X[12], h.X[13])
			}
			st := microState{stop, *h, p.Machine.Attempted(), string(p.RAM.Bytes())}
			if ref == nil {
				ref = &st
			} else {
				diffMicro(t, prof.name+"/"+e.String(), *ref, st)
			}
			p.Release()
		}
	}
}

// TestIdleLoopCompiledInline checks the point of sbCSR: the compiled
// wfi/critical-section idle loop of the pid_timer demonstrator — its
// blocks and the trace fused from them — holds no call into the
// interpreter.
func TestIdleLoopCompiledInline(t *testing.T) {
	w, ok := workloads.ByName("pid_timer")
	if !ok {
		t.Fatal("pid_timer missing")
	}
	for _, prof := range []*timing.Profile{nil, timing.EdgeSmall()} {
		p, err := vp.New(vp.Config{Profile: prof, Sensor: w.Sensor})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := p.LoadSource(vp.Prelude + w.Source)
		if err != nil {
			t.Fatal(err)
		}
		if stop := p.Run(w.Budget); stop.Reason != emu.StopExit || stop.Code != w.Expect {
			t.Fatalf("pid_timer stopped with %v", stop)
		}
		main := prog.Symbols["main"]
		for _, pc := range []uint32{main, main + 4} { // wfi ends a block
			block, trace, ok := emu.ExecOps(p.Machine, pc)
			if !ok {
				t.Fatalf("%v: no compiled block at %#x", prof, pc)
			}
			if block != 0 || trace != 0 {
				t.Errorf("%v: idle-loop block at %#x calls the interpreter %d times (its trace %d)", prof, pc, block, trace)
			}
		}
		p.Release()
	}
}

// TestMipWriteLastsToNextPoll pins how long a software write to mip's
// MSIP bit stands: the next interrupt poll point re-mirrors the CLINT's
// msip over it, even with no device event due, on both engines and
// under single-stepping.
func TestMipWriteLastsToNextPoll(t *testing.T) {
	const src = `
	csrsi mip, 8
	j next
next:
	csrr a1, mip
	ebreak
`
	drivers := map[string]func(p *vp.Platform) emu.StopInfo{"step": stepRun(100)}
	for _, e := range emu.Engines() {
		drivers[e.String()] = engineRun(e, 100)
	}
	for name, run := range drivers {
		st := runMicro(t, src, nil, run)
		if st.stop.Reason != emu.StopEbreak || st.hart.X[11] != 0 {
			t.Errorf("%s: stop %v, mip after the boundary = %#x, want 0 (the CLINT's msip)", name, st.stop, st.hart.X[11])
		}
	}
}
