package emu_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/decode"
	"repro/internal/emu"
	"repro/internal/timing"
	"repro/internal/vp"
)

// This file checks the superblock engine's idle-trace fast-forward
// (execTrace skips the runs of a wfi loop that precede the next
// interrupt event): a skipped loop must leave every engine-visible field
// and the trap sequence where single-stepping and the switch
// interpreter leave them, and a loop outside the idle rule must never be
// skipped.

// idleLoop is one generated interrupt-driven idle loop. A CLINT timer
// fires every period cycles; its handler sets a RAM flag and re-arms the
// compare register drift-free. The loop clears MIE, runs head, tests the
// flag, waits in wfi, runs body and sets MIE again. After four served
// events the program stops at ebreak.
//
// MIE is set only at block starts (the cap block ends at its csrsi, then
// come the one-instruction block `j idle` and the loop head), so
// single-stepping, which polls before every instruction, and the block
// engines, which poll at block boundaries, deliver each interrupt at the
// same instruction: the whole run is comparable with Step.
type idleLoop struct {
	head   []string // MIE clear, before the flag test; may hold a wfi
	body   []string // the cap block, before its csrsi; no terminator
	period int
}

func (l idleLoop) source() string {
	var b strings.Builder
	fmt.Fprintf(&b, `
	.equ PERIOD, %d
_start:
	la t0, handler
	csrw mtvec, t0
	la s1, flag
	li s0, CLINT_MTIMECMP
	li s9, CLINT_MTIME
	li s10, UART_TX
	li t0, PERIOD
	sw t0, 0(s0)
	sw zero, 4(s0)
	li s2, 0x5a5a1234       # loop inputs: never written by the loop
	li s3, 7
	li s4, -3
	li s5, 0x80
	fcvt.s.w ft1, s3
	li s6, 4                # timer events to serve
	li s7, 0
	li s8, 0
	li t0, 0x80             # MTIE
	csrw mie, t0
	j idle
idle:
	csrci mstatus, 8
`, l.period)
	for _, op := range l.head {
		b.WriteString("\t" + op + "\n")
	}
	b.WriteString("\tlw t0, 0(s1)\n\tbnez t0, serve\n\twfi\n")
	for i := 0; i < emu.MaxTBInsts-1; i++ {
		op := "nop"
		if i < len(l.body) {
			op = l.body[i]
		}
		b.WriteString("\t" + op + "\n")
	}
	b.WriteString(`	csrsi mstatus, 8        # the cap block's last instruction
	j idle
serve:
	sw zero, 0(s1)
	addi s7, s7, 1
	blt s7, s6, idle
	ebreak
handler:
	li t5, 1
	sw t5, 0(s1)
	lw t6, 0(s0)
	li t5, PERIOD
	add t6, t6, t5
	sw t6, 0(s0)
	mret
flag:
	.word 0, 0x11, 0x22, 0x33, 0
`)
	return b.String()
}

// idleOp renders one fuzz byte as a loop instruction. Most kinds keep
// the loop idle when their sources are the inputs s2-s5 or scratch
// registers (a2-a5) the run already wrote; the others break the idle
// rule (a loop-carried counter, RAM and UART stores, a counter CSR read,
// device loads, an FP accumulation through the interpreter), so the
// fuzzer also drives loops the engine must not skip. A wfi ends a
// block, so it is emitted only in the head.
func idleOp(b byte, head bool) string {
	src := []string{"s2", "s3", "s4", "s5", "a2", "a3", "a4", "a5"}
	r := int(b / 13)
	d, s, s2 := src[4+r%4], src[r%8], src[(r/3)%8]
	switch b % 13 {
	case 0:
		return fmt.Sprintf("addi %s, %s, %d", d, s, r-11)
	case 1:
		return fmt.Sprintf("xor %s, %s, %s", d, s, s2)
	case 2:
		return fmt.Sprintf("slli %s, %s, %d", d, s, r)
	case 3:
		return fmt.Sprintf("lw %s, %d(s1)", d, 4*(r%4))
	case 4:
		return fmt.Sprintf("mul %s, %s, %s", d, s, s2)
	case 5:
		return "csrs mie, " + s
	case 6:
		return "addi s8, s8, 1"
	case 7:
		return fmt.Sprintf("sw %s, 16(s1)", s)
	case 8:
		return []string{"rdcycle ", "rdtime "}[r%2] + d
	case 9:
		return "lw " + d + []string{", 0(s0)", ", 0(s9)"}[r%2] // mtimecmp, mtime
	case 10:
		return "sw " + s + ", 0(s10)" // UART transmit
	case 11:
		return "fadd.s ft0, ft0, ft1"
	default:
		if head {
			return "wfi"
		}
		return "nop"
	}
}

// idleRun is the outcome of one run of a generated program.
type idleRun struct {
	st    microState
	traps *trapCycles
	out   string // UART output
	stats emu.EngineStats
}

// runIdle runs src under prof with run, recording every trap; setup, if
// non-nil, prepares the machine first.
func runIdle(t *testing.T, src string, prof *timing.Profile, run func(p *vp.Platform) emu.StopInfo, setup func(m *emu.Machine)) idleRun {
	t.Helper()
	p, err := vp.New(vp.Config{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if _, err := p.LoadSource(vp.Prelude + src); err != nil {
		t.Fatal(err)
	}
	traps := &trapCycles{m: p.Machine}
	if err := p.Machine.Hooks.Register(traps); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(p.Machine)
	}
	stop := run(p)
	return idleRun{
		st:    microState{stop, p.Machine.Hart, p.Machine.Attempted(), string(p.RAM.Bytes())},
		traps: traps,
		out:   p.Output(),
		stats: p.Machine.Stats(),
	}
}

// diffIdle compares two runs field for field and trap for trap.
func diffIdle(t *testing.T, what string, want, got idleRun) {
	t.Helper()
	diffMicro(t, what, want.st, got.st)
	if fmt.Sprint(got.traps.causes, got.traps.cycles) != fmt.Sprint(want.traps.causes, want.traps.cycles) {
		t.Errorf("%s: trap causes and cycles\n got %v %v\nwant %v %v", what,
			got.traps.causes, got.traps.cycles, want.traps.causes, want.traps.cycles)
	}
	if got.out != want.out {
		t.Errorf("%s: UART output %q, want %q", what, got.out, want.out)
	}
}

// FuzzIdleLoop generates interrupt-driven idle loops from invariant ALU
// and constant ops, RAM-flag loads, csrci/csrsi pairs, wfi and the
// idle-rule breakers of idleOp, under the unit or edge-small timing
// model, with any CLINT period and a budget that may end mid-loop. The
// superblock engine, fast-forwarding whatever it finds idle, must match
// the switch interpreter exactly and single-stepping in every
// engine-visible field, the UART output and the trap sequence. Two
// granularity exceptions apply to Step, which polls the devices before
// every instruction where the engines poll at block boundaries: mip at
// a budget stop (a timer that came due since the last boundary shows in
// Step's mip first), and a loop that loads mtime, whose clock advances
// at poll points.
func FuzzIdleLoop(f *testing.F) {
	f.Add([]byte{0x00, 0x0d, 0x03}, uint16(600), false, uint32(19_999))
	f.Fuzz(func(t *testing.T, ops []byte, period uint16, edge bool, budget uint32) {
		l := idleLoop{period: 16 + int(period)%4000}
		for i, b := range ops {
			if i%2 == 0 && len(l.head) < 16 {
				l.head = append(l.head, idleOp(b, true))
			} else if len(l.body) < emu.MaxTBInsts-1 {
				l.body = append(l.body, idleOp(b, false))
			}
		}
		var prof *timing.Profile
		if edge {
			prof = timing.EdgeSmall()
		}
		n := 1 + uint64(budget)%20_000
		src := l.source()
		sb := runIdle(t, src, prof, engineRun(emu.EngineSuperblock, n), nil)
		diffIdle(t, "superblock vs switch", runIdle(t, src, prof, engineRun(emu.EngineSwitch, n), nil), sb)
		if !strings.Contains(src, "0(s9)") {
			step := runIdle(t, src, prof, stepRun(n), nil)
			if step.st.stop.Reason == emu.StopBudget {
				step.st.hart.Mip, sb.st.hart.Mip = 0, 0
			}
			diffIdle(t, "superblock vs step", step, sb)
		}
		if t.Failed() {
			t.Logf("program:\n%s", src)
		}
	})
}

// idleBody is a loop body inside the idle rule: invariant ALU work on
// the inputs and a RAM load, each scratch register written before use.
var idleBody = []string{"addi a2, s2, 5", "lw a3, 4(s1)", "xor a4, a2, a3", "mul a5, a4, s3"}

// insnHook is an instruction hook, which turns compiled code off.
type insnHook struct{}

func (insnHook) Name() string                   { return "insn-hook" }
func (insnHook) OnInsnExec(uint32, decode.Inst) {}

// TestIdleLoopNoSkip checks that the engine fast-forwards only loops
// inside the idle rule: the same timer-driven wfi loop is skipped as
// given and never once it carries a counter register, loads the CLINT's
// mtime, stores, reads cycle or time, runs under the I-cache profile or
// runs with hooks registered. Each run must still match the switch
// interpreter exactly.
func TestIdleLoopNoSkip(t *testing.T) {
	with := func(op string) []string { return append(append([]string(nil), idleBody...), op) }
	hooks := func(m *emu.Machine) {
		if err := m.Hooks.Register(insnHook{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		body  []string
		prof  *timing.Profile
		setup func(m *emu.Machine)
		skip  bool
	}{
		{"idle", idleBody, nil, nil, true},
		{"idle-edge-small", idleBody, timing.EdgeSmall(), nil, true},
		{"counter", with("addi s8, s8, 1"), nil, nil, false},
		{"mtime-load", with("lw a5, 0(s9)"), nil, nil, false},
		{"store", with("sw a2, 16(s1)"), nil, nil, false},
		{"rdcycle", with("rdcycle a5"), nil, nil, false},
		{"rdtime", with("rdtime a5"), nil, nil, false},
		{"edge-cache", idleBody, timing.EdgeCache(), nil, false},
		{"hooks", idleBody, nil, hooks, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := idleLoop{body: c.body, period: 600}.source()
			const budget = 100_000
			sb := runIdle(t, src, c.prof, engineRun(emu.EngineSuperblock, budget), c.setup)
			if sb.st.stop.Reason != emu.StopEbreak || sb.st.hart.X[23] != 4 {
				t.Fatalf("stop %v after %d events, want ebreak after 4", sb.st.stop, sb.st.hart.X[23])
			}
			if got := sb.stats.IdleInsts > 0; got != c.skip {
				t.Errorf("IdleInsts = %d, want skipping %v", sb.stats.IdleInsts, c.skip)
			}
			diffIdle(t, "superblock vs switch", runIdle(t, src, c.prof, engineRun(emu.EngineSwitch, budget), c.setup), sb)
		})
	}
}

// TestIdleLoopBudget ends the timer-driven idle loop at every budget in
// a span across its first two events, under both timing models: the
// fast-forward must stop where the budget gate would, and the compiled
// engine must match the switch interpreter at every stop.
func TestIdleLoopBudget(t *testing.T) {
	src := idleLoop{body: idleBody, period: 600}.source()
	for _, prof := range []diffProfile{{"unit", nil}, {"edge-small", timing.EdgeSmall()}} {
		skipped := false
		for n := uint64(100); n < 1400; n += 7 {
			sb := runIdle(t, src, prof.p, engineRun(emu.EngineSuperblock, n), nil)
			diffIdle(t, fmt.Sprintf("%s budget %d", prof.name, n), runIdle(t, src, prof.p, engineRun(emu.EngineSwitch, n), nil), sb)
			skipped = skipped || sb.stats.IdleInsts > 0
		}
		if !skipped {
			t.Errorf("%s: no budget let the loop fast-forward", prof.name)
		}
	}
}
