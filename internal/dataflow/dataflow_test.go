package dataflow_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/isa"
)

func buildGraph(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	prog, err := asm.AssembleAt(src, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(prog.Bytes, prog.Org, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func inferBounds(t *testing.T, src string) map[uint32]int {
	t.Helper()
	g := buildGraph(t, src)
	loops, err := g.NaturalLoops(g.Entry)
	if err != nil {
		t.Fatal(err)
	}
	return dataflow.InferLoopBounds(g, g.Entry, loops)
}

// singleBound asserts exactly one loop got a bound and returns it.
func singleBound(t *testing.T, src string) int {
	t.Helper()
	bounds := inferBounds(t, src)
	if len(bounds) != 1 {
		t.Fatalf("bounds = %v, want exactly one", bounds)
	}
	for _, b := range bounds {
		return b
	}
	return 0
}

func TestIntervalBasics(t *testing.T) {
	if !dataflow.Top().IsTop() {
		t.Error("Top not top")
	}
	c := dataflow.Const(-5)
	if lo, hi, ok := c.U32(); !ok || lo != 0xffff_fffb || hi != lo {
		t.Errorf("Const(-5).U32() = %x..%x %v", lo, hi, ok)
	}
	sum := dataflow.Const(10).Add(dataflow.Interval{Lo: 0, Hi: 5})
	if sum.Lo != 10 || sum.Hi != 15 {
		t.Errorf("sum = %v", sum)
	}
	w := dataflow.Interval{Lo: 0, Hi: 1}.Widen(dataflow.Interval{Lo: 0, Hi: 2})
	if !w.IsTop() {
		t.Errorf("widen should blow the moving bound to top, got %v", w)
	}
	stable := dataflow.Interval{Lo: 0, Hi: 2}.Widen(dataflow.Interval{Lo: 0, Hi: 2})
	if stable != (dataflow.Interval{Lo: 0, Hi: 2}) {
		t.Errorf("widen of stable interval changed it: %v", stable)
	}
}

func TestIntervalSignedView(t *testing.T) {
	iv := dataflow.Const(0x8000_0000)
	if lo, hi, ok := iv.S32(); !ok || lo != -(1<<31) || hi != lo {
		t.Errorf("S32 of 0x80000000 = %d..%d %v", lo, hi, ok)
	}
	if lo, hi, ok := iv.U32(); !ok || lo != 0x8000_0000 || hi != lo {
		t.Errorf("U32 of 0x80000000 = %x..%x %v", lo, hi, ok)
	}
}

// The solver must track li/lui/addi address formation exactly through
// straight-line code and joins.
func TestIntervalSolveStraightLine(t *testing.T) {
	g := buildGraph(t, `
		li   a0, 0x80000000
		addi a0, a0, 16
		li   a1, 3
		slli a1, a1, 4
		ebreak
	`)
	res := dataflow.Solve(g, g.Entry, dataflow.NewIntervalDomain(dataflow.UnknownEntry()))
	out, ok := res.Out[g.Entry]
	if !ok {
		t.Fatal("entry block has no out state")
	}
	if v, ok := out.Get(isa.A0).Singleton(); !ok || v != 0x8000_0010 {
		t.Errorf("a0 = %v, want 0x80000010", out.Get(isa.A0))
	}
	if v, ok := out.Get(isa.A1).Singleton(); !ok || v != 48 {
		t.Errorf("a1 = %v, want 48", out.Get(isa.A1))
	}
}

// Branch refinement: on the fallthrough of blt a0, x0 the value is known
// non-negative.
func TestIntervalBranchRefinement(t *testing.T) {
	g := buildGraph(t, `
		blt  a0, zero, neg
		addi a1, a0, 0
		ebreak
neg:	ebreak
	`)
	res := dataflow.Solve(g, g.Entry, dataflow.NewIntervalDomain(dataflow.UnknownEntry()))
	eb := g.Blocks[g.Entry]
	for _, s := range eb.Succs {
		in, ok := res.EdgeState(g.Entry, s.Addr)
		if !ok {
			t.Fatalf("edge to %x infeasible", s.Addr)
		}
		lo, hi, sok := in.Get(isa.A0).S32()
		if s.Kind == cfg.EdgeFall {
			if !sok || lo < 0 {
				t.Errorf("fallthrough a0 = %v, want >= 0", in.Get(isa.A0))
			}
		} else if !sok || hi >= 0 {
			t.Errorf("taken a0 = %v, want < 0", in.Get(isa.A0))
		}
	}
}

func TestInitDomainJoin(t *testing.T) {
	d := dataflow.NewInitDomain(dataflow.InitState{})
	a := dataflow.InitState{May: 0b0110 | 1, Must: 0b0110 | 1}
	b := dataflow.InitState{May: 0b1010 | 1, Must: 0b1010 | 1}
	j := d.Join(a, b)
	if j.May != (0b1110 | 1) {
		t.Errorf("May = %b", j.May)
	}
	if j.Must != (0b0010 | 1) {
		t.Errorf("Must = %b", j.Must)
	}
}

// Up-counting loop with a slti/bnez latch: a down-count-only matcher
// cannot bound this, the interval inferencer must.
func TestLoopBoundUpCount(t *testing.T) {
	if b := singleBound(t, `
		li   a0, 0
loop:	addi a0, a0, 1
		slti t0, a0, 8
		bnez t0, loop
		ebreak
	`); b != 8 {
		t.Errorf("bound = %d, want 8", b)
	}
}

// Up-count with the test BEFORE the increment in the latch block: the
// tested value lags one step, giving one extra head execution.
func TestLoopBoundTestBeforeIncrement(t *testing.T) {
	if b := singleBound(t, `
		li   a0, 0
loop:	slti t0, a0, 8
		addi a0, a0, 1
		bnez t0, loop
		ebreak
	`); b != 9 {
		t.Errorf("bound = %d, want 9", b)
	}
}

func TestLoopBoundUpCountStride(t *testing.T) {
	if b := singleBound(t, `
		li   a0, 0
loop:	addi a0, a0, 3
		slti t0, a0, 10
		bnez t0, loop
		ebreak
	`); b != 4 {
		// values at test: 3, 6, 9, 12 -> 4 head executions
		t.Errorf("bound = %d, want 4", b)
	}
}

func TestLoopBoundBltLatch(t *testing.T) {
	if b := singleBound(t, `
		li   a0, 5
		li   a1, 20
loop:	addi a0, a0, 1
		blt  a0, a1, loop
		ebreak
	`); b != 15 {
		t.Errorf("bound = %d, want 15", b)
	}
}

func TestLoopBoundRejectsUnknownLimitRegister(t *testing.T) {
	// a1 is never initialized, so its interval is Top: no bound.
	bounds := inferBounds(t, `
		li   a0, 0
loop:	bge  a0, a1, done
		addi a0, a0, 1
		j    loop
done:	ebreak
	`)
	if len(bounds) != 0 {
		t.Errorf("unknown limit must not be bounded: %v", bounds)
	}
}

func TestLoopBoundBltuDownToZeroRejected(t *testing.T) {
	// bgeu against 0 never exits; must not be bounded.
	bounds := inferBounds(t, `
		li   a0, 10
loop:	addi a0, a0, -1
		bgeu a0, zero, loop
		ebreak
	`)
	if len(bounds) != 0 {
		t.Errorf("unsound bound for bgeu-vs-zero loop: %v", bounds)
	}
}

func TestLoopBoundClassicDownCount(t *testing.T) {
	if b := singleBound(t, `
		li   a0, 10
loop:	addi a0, a0, -1
		bnez a0, loop
		ebreak
	`); b != 10 {
		t.Errorf("bound = %d, want 10", b)
	}
}

func TestLoopBoundHeadExitWhileStyle(t *testing.T) {
	if b := singleBound(t, `
		li   a0, 0
		li   a1, 10
loop:	bge  a0, a1, done
		addi a0, a0, 1
		j    loop
done:	ebreak
	`); b != 11 {
		t.Errorf("bound = %d, want 11 (10 passing tests + final failing head execution)", b)
	}
}

func TestLoopBoundRejectsDynamicLimit(t *testing.T) {
	bounds := inferBounds(t, `
loop:	addi a0, a0, 1
		blt  a0, a1, loop
		ebreak
	`)
	if len(bounds) != 0 {
		t.Errorf("dynamic init and limit must not be bounded: %v", bounds)
	}
}

func TestLoopBoundRejectsCallInLoop(t *testing.T) {
	bounds := inferBounds(t, `
		li   a0, 0
loop:	addi a0, a0, 1
		jal  ra, helper
		slti t0, a0, 8
		bnez t0, loop
		ebreak
helper:	ret
	`)
	if len(bounds) != 0 {
		t.Errorf("call in loop can clobber the counter, got %v", bounds)
	}
}

func TestLoopBoundNestedInnerConstant(t *testing.T) {
	// Inner loop has constant bounds; outer counter is incremented
	// outside the inner loop. Both must be bounded.
	bounds := inferBounds(t, `
		li   a0, 0
outer:	li   a1, 0
inner:	addi a1, a1, 1
		slti t0, a1, 4
		bnez t0, inner
		addi a0, a0, 1
		slti t0, a0, 3
		bnez t0, outer
		ebreak
	`)
	if len(bounds) != 2 {
		t.Fatalf("bounds = %v, want 2 loops", bounds)
	}
	got := map[int]bool{}
	for _, b := range bounds {
		got[b] = true
	}
	if !got[4] || !got[3] {
		t.Errorf("bounds = %v, want {4, 3}", bounds)
	}
}
