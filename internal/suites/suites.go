// Package suites provides the three test-suite families of the coverage
// experiment — the architectural suite (one directed instance of every
// instruction, generated from the ISA tables), the unit suite
// (hand-written module tests), and the torture suite (random programs)
// — together with the runner that executes a suite under the coverage
// collector. Their characteristic, complementary coverage gaps are the
// point: none is complete alone, their union approaches full register
// coverage, reproducing the shape of the ecosystem's coverage study.
package suites

import (
	"fmt"
	"strings"

	"repro/internal/cover"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/torture"
	"repro/internal/vp"
)

// Program is one test in a suite.
type Program struct {
	Name   string
	Source string
	Budget uint64

	// MustExitZero marks self-checking programs: they report the index
	// of the first failing check through the syscon exit register, and
	// the runner treats any non-zero exit as a failure.
	MustExitZero bool
}

// Suite is a named family of programs.
type Suite struct {
	Name     string
	Programs []Program
}

// Run executes every program in the suite on a fresh platform with the
// coverage collector attached and returns the merged coverage. Each
// platform is released once its program has run.
func Run(s Suite, set isa.ExtSet) (*cover.Coverage, error) {
	total := cover.New(set)
	for _, prog := range s.Programs {
		c, err := runProgram(s.Name, prog, set)
		if err != nil {
			return nil, err
		}
		if err := total.Merge(c); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// runProgram runs one suite program with a coverage collector attached.
func runProgram(suite string, prog Program, set isa.ExtSet) (*cover.Coverage, error) {
	c := cover.New(set)
	p, err := vp.New(vp.Config{ISA: set})
	if err != nil {
		return nil, err
	}
	defer p.Release()
	if err := p.Machine.Hooks.Register(c); err != nil {
		return nil, err
	}
	if _, err := p.LoadSource(vp.Prelude + prog.Source); err != nil {
		return nil, fmt.Errorf("suites: %s/%s: %w", suite, prog.Name, err)
	}
	stop := p.Run(prog.Budget)
	switch stop.Reason {
	case emu.StopExit, emu.StopEbreak:
	default:
		return nil, fmt.Errorf("suites: %s/%s ended with %v", suite, prog.Name, stop)
	}
	if prog.MustExitZero && (stop.Reason != emu.StopExit || stop.Code != 0) {
		return nil, fmt.Errorf("suites: %s/%s failed self-check %d", suite, prog.Name, stop.Code)
	}
	return c, nil
}

// Architectural generates the directed per-instruction suite for the
// ISA configuration: every instruction appears in one canonical form
// over a deliberately small register set (the real architectural tests'
// well-known register-coverage gap).
func Architectural(set isa.ExtSet) Suite {
	var b strings.Builder
	b.WriteString(`
_start:
	la   t0, trap
	csrw mtvec, t0
	la   a1, buf
	li   a0, 42
	li   a2, 7
	j    main
trap:
	csrr t1, mepc
	addi t1, t1, 4
	csrw mepc, t1
	mret
main:
`)
	if set.Has(isa.ExtF) {
		b.WriteString("\tfcvt.s.w fa1, a0\n\tfcvt.s.w fa2, a2\n\tfcvt.s.w fa3, a2\n")
	}
	for _, op := range isa.OpsIn(set) {
		emitDirected(&b, op, set)
	}
	b.WriteString("\tebreak\n\t.align 4\nbuf:\t.space 64\n")
	return Suite{
		Name: "architectural",
		Programs: []Program{{
			Name:   "arch-" + set.String(),
			Source: b.String(),
			Budget: 10_000,
		}},
	}
}

// emitDirected writes one canonical instance of op.
func emitDirected(b *strings.Builder, op isa.Op, set isa.ExtSet) {
	w := func(format string, args ...any) { fmt.Fprintf(b, "\t"+format+"\n", args...) }
	switch op {
	// Ops needing special sequencing.
	case isa.OpEBREAK, isa.OpCEBREAK:
		return // the terminating ebreak covers it
	case isa.OpMRET:
		return // executed by the trap shim (via ecall)
	case isa.OpECALL:
		w("ecall")
		return
	case isa.OpJAL:
		w("jal ra, 1f")
		fmt.Fprintf(b, "1:\n")
		return
	case isa.OpJALR:
		w("la a2, 1f")
		w("jalr ra, 0(a2)")
		fmt.Fprintf(b, "1:\n")
		w("li a2, 7")
		return
	case isa.OpCJ:
		w("c.j 1f")
		fmt.Fprintf(b, "1:\n")
		return
	case isa.OpCJAL:
		w("c.jal 1f")
		fmt.Fprintf(b, "1:\n")
		return
	case isa.OpCJR:
		w("la a2, 1f")
		w("c.jr a2")
		fmt.Fprintf(b, "1:\n")
		w("li a2, 7")
		return
	case isa.OpCJALR:
		w("la a2, 1f")
		w("c.jalr a2")
		fmt.Fprintf(b, "1:\n")
		w("li a2, 7")
		return
	case isa.OpWFI:
		w("wfi")
		return
	case isa.OpFENCE:
		w("fence")
		return
	case isa.OpFENCEI:
		w("fence.i")
		return
	case isa.OpLUI:
		w("lui a0, 0x12")
		return
	case isa.OpAUIPC:
		w("auipc a0, 0")
		return
	case isa.OpCLUI:
		w("c.lui a0, 0x12")
		return
	case isa.OpCNOP:
		w("c.nop")
		return
	case isa.OpCADDI16SP:
		w("c.addi16sp 16")
		w("c.addi16sp -16")
		return
	case isa.OpCADDI4SPN:
		w("c.addi4spn a0, 8")
		w("li a0, 42")
		return
	case isa.OpCLWSP:
		w("c.addi16sp -16")
		w("c.swsp a0, 0(sp)")
		w("c.lwsp a0, 0(sp)")
		w("c.addi16sp 16")
		return
	case isa.OpCSWSP:
		return // covered by the c.lwsp sequence
	case isa.OpCLW:
		w("c.lw a0, 0(a1)")
		w("li a0, 42")
		return
	case isa.OpCSW:
		w("c.sw a0, 0(a1)")
		return
	case isa.OpCBEQZ:
		w("c.beqz a0, 1f")
		fmt.Fprintf(b, "1:\n")
		return
	case isa.OpCBNEZ:
		w("c.bnez a0, 1f")
		fmt.Fprintf(b, "1:\n")
		return
	}

	name := op.String()
	p, ok := isa.PatternFor(op)
	if !ok {
		// Remaining compressed forms: canonical two-operand shapes.
		switch op {
		case isa.OpCADDI, isa.OpCLI, isa.OpCANDI:
			w("%s a0, 1", name)
		case isa.OpCSLLI, isa.OpCSRLI, isa.OpCSRAI:
			w("%s a0, 1", name)
		case isa.OpCMV, isa.OpCADD, isa.OpCSUB, isa.OpCXOR, isa.OpCOR, isa.OpCAND:
			w("%s a0, a2", name)
		}
		return
	}
	fd, f1, f2 := isa.UsesFPRegs(op)
	rd, rs1, rs2 := "a0", "a0", "a2"
	if fd {
		rd = "fa0"
	}
	if f1 {
		rs1 = "fa1"
	}
	if f2 {
		rs2 = "fa2"
	}
	switch p.Fmt {
	case isa.FmtR:
		w("%s %s, %s, %s", name, rd, rs1, rs2)
	case isa.FmtR4:
		w("%s fa0, fa1, fa2, fa3", name)
	case isa.FmtI:
		switch op.Class() {
		case isa.ClassLoad, isa.ClassFPLoad:
			w("la a1, buf")
			w("%s %s, 0(a1)", name, rd)
		default:
			w("%s %s, %s, 1", name, rd, rs1)
		}
	case isa.FmtIShift:
		w("%s %s, %s, 1", name, rd, rs1)
	case isa.FmtS:
		w("la a1, buf")
		w("%s %s, 0(a1)", name, rs2)
	case isa.FmtB:
		w("%s a0, a2, 1f", name)
		fmt.Fprintf(b, "1:\n")
	case isa.FmtCSR:
		w("%s a0, mscratch, a2", name)
	case isa.FmtCSRI:
		w("%s a0, mscratch, 3", name)
	case isa.FmtRUnary:
		w("%s %s, %s", name, rd, rs1)
	}
}

// Unit returns the hand-written module tests. They use a wider register
// variety than the architectural suite but deliberately miss the exotic
// corners (fence.i, the immediate CSR forms, several FP and BMI ops) —
// the realistic profile of a hand-maintained unit suite.
func Unit(set isa.ExtSet) Suite {
	progs := []Program{
		{Name: "arith", Budget: 10_000, Source: `
_start:
	li s0, 100
	li s1, -3
	add s2, s0, s1
	sub s3, s0, s1
	xor s4, s0, s1
	or  s5, s0, s1
	and s6, s0, s1
	sll s7, s0, s1
	srl s8, s0, s1
	sra s9, s0, s1
	slt s10, s0, s1
	sltu s11, s0, s1
	addi t3, s0, 11
	andi t4, s0, 12
	ori  t5, s0, 13
	ebreak
`},
		{Name: "branch", Budget: 10_000, Source: `
_start:
	li t0, 1
	li t1, 2
	beq t0, t0, 1f
	li t2, 99
1:	bne t0, t1, 2f
	li t2, 98
2:	blt t0, t1, 3f
	li t2, 97
3:	bge t1, t0, 4f
	li t2, 96
4:	jal ra, 5f
5:	ebreak
`},
		{Name: "mem", Budget: 10_000, Source: `
_start:
	la s0, buf
	li s1, 0x12345678
	sw s1, 0(s0)
	sh s1, 4(s0)
	sb s1, 6(s0)
	lw a3, 0(s0)
	lh a4, 4(s0)
	lhu a5, 4(s0)
	lb a6, 6(s0)
	lbu a7, 6(s0)
	ebreak
	.align 4
buf:	.space 16
`},
		{Name: "csr", Budget: 10_000, Source: `
_start:
	li t0, 0x55
	csrw mscratch, t0
	csrr t1, mscratch
	csrs mscratch, t0
	csrc mscratch, t0
	rdcycle s2
	rdinstret s3
	ebreak
`},
	}
	if set.Has(isa.ExtM) {
		progs = append(progs, Program{Name: "muldiv", Budget: 10_000, Source: `
_start:
	li a2, 7
	li a3, -3
	mul a4, a2, a3
	mulh a5, a2, a3
	div a6, a2, a3
	rem a7, a2, a3
	divu s4, a2, a3
	remu s5, a2, a3
	ebreak
`})
	}
	if set.Has(isa.ExtF) {
		progs = append(progs, Program{Name: "fp", Budget: 10_000, Source: `
_start:
	li t0, 3
	li t1, 4
	fcvt.s.w ft0, t0
	fcvt.s.w ft1, t1
	fadd.s ft2, ft0, ft1
	fsub.s ft3, ft0, ft1
	fmul.s ft4, ft0, ft1
	fdiv.s ft5, ft0, ft1
	flt.s s6, ft0, ft1
	fle.s s7, ft0, ft1
	fcvt.w.s s8, ft2
	ebreak
`})
	}
	return Suite{Name: "unit", Programs: progs}
}

// Torture generates a random suite of n programs for the ISA
// configuration, seeded deterministically.
func Torture(set isa.ExtSet, n int, seed int64) Suite {
	s := Suite{Name: "torture"}
	for i := 0; i < n; i++ {
		p := torture.Generate(torture.Config{Seed: seed + int64(i), Insts: 300, ISA: set})
		s.Programs = append(s.Programs, Program{
			Name:   fmt.Sprintf("torture-%d", i),
			Source: p.Source,
			Budget: p.Budget,
		})
	}
	return s
}
