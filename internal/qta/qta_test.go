package qta_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/decode"
	"repro/internal/emu"
	"repro/internal/flow"
	"repro/internal/isa"
	"repro/internal/qta"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/wcet"
	"repro/internal/workloads"
)

// analyze runs the flow's static analysis over src with the given loop
// bounds and no inference.
func analyze(t *testing.T, src string, prof *timing.Profile, bounds map[string]int) *flow.Analysis {
	t.Helper()
	prog, err := asm.AssembleAt(vp.Prelude+src, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	a, err := flow.Analyze(context.Background(), prog, prof, bounds, false)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSoundnessAcrossAllWorkloads is the headline property of the whole
// flow (experiment E2's invariant): for every workload and every timing
// profile, static WCET >= QTA accumulated worst case >= dynamic cycles.
func TestSoundnessAcrossAllWorkloads(t *testing.T) {
	profiles := []*timing.Profile{timing.Unit(), timing.EdgeSmall(), timing.EdgeFast(), timing.EdgeCache()}
	for _, prof := range profiles {
		for _, w := range workloads.All() {
			t.Run(prof.Name()+"/"+w.Name, func(t *testing.T) {
				res, err := flow.RunQTA(context.Background(), w, prof, asm.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Sound() {
					t.Errorf("soundness violated: static=%d qta=%d dyn=%d",
						res.StaticWCET, res.QTATime, res.Dynamic)
				}
				if res.Dynamic == 0 || res.Insts == 0 {
					t.Error("empty run")
				}
			})
		}
	}
}

// QTA must observe the loop-head blocks exactly as often as the loop
// bounds say for the fixed-trip-count kernels.
func TestVisitCountsMatchLoopBounds(t *testing.T) {
	w, ok := workloads.ByName("xtea")
	if !ok {
		t.Fatal("xtea missing")
	}
	a := analyze(t, w.Source, timing.EdgeSmall(), w.LoopBounds)
	q := qta.New(a.Annotated)
	if _, stop, err := flow.RunWith(w, timing.EdgeSmall(), q); err != nil || stop.Reason != emu.StopExit {
		t.Fatalf("run: %v %v", stop, err)
	}
	round := a.Program.Symbols["round"]
	if q.Visits[round] != 32 {
		t.Errorf("round block visited %d times, want 32", q.Visits[round])
	}
}

// Every deterministic run must observe a subset of the annotated blocks
// and very few unannotated transitions.
func TestCoverageAndMissingTransitions(t *testing.T) {
	for _, w := range workloads.All() {
		res, err := flow.RunQTA(context.Background(), w, timing.EdgeSmall(), asm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.BlocksSeen == 0 || res.BlocksSeen > res.BlocksTotal {
			t.Errorf("%s: blocks seen %d / %d", w.Name, res.BlocksSeen, res.BlocksTotal)
		}
		if res.Missing != 0 {
			t.Errorf("%s: %d unannotated transitions (trap-free run should have none)",
				w.Name, res.Missing)
		}
	}
}

func TestResultString(t *testing.T) {
	r := qta.Result{Program: "x", Profile: "unit", StaticWCET: 100, QTATime: 80, Dynamic: 60}
	s := r.String()
	for _, frag := range []string{"x", "static=100", "qta=80", "dyn=60"} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary %q missing %q", s, frag)
		}
	}
	if !r.Sound() {
		t.Error("100>=80>=60 should be sound")
	}
	bad := qta.Result{StaticWCET: 10, QTATime: 20, Dynamic: 5}
	if bad.Sound() {
		t.Error("10>=20 should not be sound")
	}
}

func TestAnalyzerProfileOutput(t *testing.T) {
	w, _ := workloads.ByName("sort")
	a := analyze(t, w.Source, timing.Unit(), w.LoopBounds)
	q := qta.New(a.Annotated)
	if _, _, err := flow.RunWith(w, timing.Unit(), q); err != nil {
		t.Fatal(err)
	}
	q.Finish()
	prof := q.Profile()
	if !strings.Contains(prof, "visits") || len(strings.Split(prof, "\n")) < 3 {
		t.Errorf("profile output too thin:\n%s", prof)
	}
}

func TestFinishIdempotent(t *testing.T) {
	an := &wcet.Annotated{
		Entry:  0x100,
		Blocks: []wcet.BlockCost{{Start: 0x100, End: 0x108, Cost: 5}},
	}
	q := qta.New(an)
	q.OnInsnExec(0x100, decode.Inst{Op: isa.OpADDI, Size: 4})
	first := q.Finish()
	if first != 5 {
		t.Errorf("Finish = %d, want 5", first)
	}
	if q.Finish() != first {
		t.Error("Finish must be idempotent")
	}
}

func TestUnannotatedTransitionFallback(t *testing.T) {
	// Two blocks with no edge between them: the fallback must charge the
	// source block cost plus the worst penalty in the annotation.
	an := &wcet.Annotated{
		Entry: 0x100,
		Blocks: []wcet.BlockCost{
			{Start: 0x100, End: 0x104, Cost: 3},
			{Start: 0x200, End: 0x204, Cost: 7},
		},
		Edges: []wcet.EdgeCost{
			{From: 0x100, To: 0x100, Cost: 5, Kind: "taken"}, // penalty 2
		},
	}
	q := qta.New(an)
	nop := decode.Inst{Op: isa.OpADDI, Size: 4}
	q.OnInsnExec(0x100, nop)
	q.OnInsnExec(0x200, nop) // no edge 0x100->0x200
	if q.Missing != 1 {
		t.Errorf("missing = %d", q.Missing)
	}
	got := q.Finish()
	// 0x100 cost 3 + max penalty 2, then final block 7 = 12.
	if got != 12 {
		t.Errorf("accumulated = %d, want 12", got)
	}
}

// The QTA/dynamic gap must come from real pessimism sources: on the
// edge-small profile with its early-out multiplier, mul-heavy kernels
// should show QTA strictly above dynamic.
func TestPessimismGapOnEarlyOutCores(t *testing.T) {
	w, _ := workloads.ByName("matmul")
	res, err := flow.RunQTA(context.Background(), w, timing.EdgeSmall(), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.QTATime <= res.Dynamic {
		t.Errorf("expected worst-case gap: qta=%d dynamic=%d", res.QTATime, res.Dynamic)
	}
}

// Trap handlers are invisible to static CFG discovery (reached via
// mtvec, not control flow), so a run that traps must be flagged: the
// analyzer counts the traps and Sound refuses to bless the bound.
func TestTrapsInvalidateTheBound(t *testing.T) {
	src := `
_start:
	la   t0, handler
	csrw mtvec, t0
	li   s0, 0
	ecall                     # detour through unannotated code
	li   t6, SYSCON_EXIT
	sw   s0, 0(t6)
1:	j 1b
handler:
	li   s0, 1
	csrr t1, mepc
	addi t1, t1, 4
	csrw mepc, t1
	mret
`
	a := analyze(t, src, timing.EdgeSmall(), nil)
	q := qta.New(a.Annotated)
	w := workloads.Workload{Name: "trapdemo", Source: src, Budget: 1000, Expect: 1}
	if _, stop, err := flow.RunWith(w, timing.EdgeSmall(), q); err != nil || stop.Reason != emu.StopExit {
		t.Fatalf("%v %v", stop, err)
	}
	res := q.NewResult("trapdemo", 0, 0)
	if res.Traps == 0 {
		t.Fatal("trap not observed")
	}
	if res.Sound() {
		t.Error("a trapping run must not be declared sound")
	}
}

// Sanity check of the checker itself: an under-declared loop bound must
// surface as an unsound result (static below dynamic), proving the
// soundness test can actually fail.
func TestUnderDeclaredBoundIsDetected(t *testing.T) {
	w, _ := workloads.ByName("xtea")
	lied := make(map[string]int, len(w.LoopBounds))
	for k, v := range w.LoopBounds {
		lied[k] = v
	}
	lied["round"] = 4 // the real trip count is 32
	a := analyze(t, w.Source, timing.EdgeSmall(), lied)
	q := qta.New(a.Annotated)
	if _, stop, err := flow.RunWith(w, timing.EdgeSmall(), q); err != nil || stop.Reason != emu.StopExit {
		t.Fatalf("%v %v", stop, err)
	}
	p, _, err := flow.RunWith(w, timing.EdgeSmall())
	if err != nil {
		t.Fatal(err)
	}
	res := q.NewResult(w.Name, p.Machine.Hart.Cycle, p.Machine.Hart.Instret)
	if res.Sound() {
		t.Errorf("lying flow facts went undetected: static=%d qta=%d dyn=%d",
			res.StaticWCET, res.QTATime, res.Dynamic)
	}
	if res.StaticWCET >= res.QTATime {
		t.Errorf("static bound %d should fall below the observed worst case %d",
			res.StaticWCET, res.QTATime)
	}
}

// The full timing flow must stay sound over RVC-compressed binaries:
// mixed 16/32-bit code through CFG reconstruction, static analysis and
// co-simulation.
func TestSoundnessOnCompressedBuilds(t *testing.T) {
	for _, name := range []string{"xtea", "sort", "pid", "conv3x3", "histogram"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		for _, prof := range []*timing.Profile{timing.EdgeSmall(), timing.EdgeCache()} {
			res, err := flow.RunQTA(context.Background(), w, prof, asm.Options{Compress: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, prof.Name(), err)
			}
			if !res.Sound() {
				t.Errorf("%s/%s unsound: static=%d qta=%d dyn=%d",
					name, prof.Name(), res.StaticWCET, res.QTATime, res.Dynamic)
			}
			if res.Missing != 0 {
				t.Errorf("%s/%s: %d unannotated transitions", name, prof.Name(), res.Missing)
			}
		}
	}
}
