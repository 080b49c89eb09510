package wcet_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/wcet"
	"repro/internal/workloads"
)

// inferAnalyze runs the analysis with inference on and no explicit
// bounds except the given ones.
func inferAnalyze(t *testing.T, src string, explicit map[string]int) (*wcet.Annotated, error) {
	t.Helper()
	prog, err := asm.AssembleAt(src, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(prog.Bytes, prog.Org, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	return wcet.Analyze(g, wcet.Config{
		Profile:     timing.Unit(),
		Bounds:      explicit,
		Symbols:     prog.Symbols,
		InferBounds: true,
	})
}

func TestInferSimpleDownCount(t *testing.T) {
	an, err := inferAnalyze(t, `
		li a0, 10
loop:	addi a0, a0, -1
		bnez a0, loop
		ebreak
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same as the explicit-bound case: li(1) + 10*2 + ebreak(1) = 22.
	if an.WCET != 22 {
		t.Errorf("WCET = %d, want 22", an.WCET)
	}
	if len(an.Bounds) != 1 {
		t.Fatalf("bounds: %v", an.Bounds)
	}
	for _, b := range an.Bounds {
		if b != 10 {
			t.Errorf("inferred bound %d, want 10", b)
		}
	}
}

func TestInferStride(t *testing.T) {
	an, err := inferAnalyze(t, `
		li a0, 12
loop:	addi a0, a0, -3
		bnez a0, loop
		ebreak
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range an.Bounds {
		if b != 4 {
			t.Errorf("inferred bound %d, want 4 (12/3)", b)
		}
	}
}

func TestInferRejectsNonDividingStride(t *testing.T) {
	// 10 steps of -3 never hits zero exactly: the loop would wrap, so
	// inference must refuse and demand an annotation.
	_, err := inferAnalyze(t, `
		li a0, 10
loop:	addi a0, a0, -3
		bnez a0, loop
		ebreak
	`, nil)
	if err == nil {
		t.Error("non-dividing stride must not be inferred")
	}
}

func TestInferRejectsCounterClobber(t *testing.T) {
	_, err := inferAnalyze(t, `
		li a0, 10
loop:	addi a0, a0, -1
		add a0, a0, a1      # second write to the counter
		bnez a0, loop
		ebreak
	`, nil)
	if err == nil {
		t.Error("clobbered counter must not be inferred")
	}
}

func TestInferRejectsConditionalDecrement(t *testing.T) {
	// The decrement is inside a conditionally executed block, so an
	// iteration may skip it: unbounded under this idiom.
	_, err := inferAnalyze(t, `
		li a0, 10
loop:	beqz a1, skip
		addi a0, a0, -1
skip:	add a2, a2, a1
		beq a2, a2, back    # unconditional-ish filler
back:	bnez a0, loop
		ebreak
	`, nil)
	if err == nil {
		t.Error("conditional decrement must not be inferred")
	}
}

func TestInferRejectsDynamicInit(t *testing.T) {
	_, err := inferAnalyze(t, `
		add a0, a1, a2      # data-dependent trip count
loop:	addi a0, a0, -1
		bnez a0, loop
		ebreak
	`, nil)
	if err == nil {
		t.Error("dynamic init must not be inferred")
	}
}

func TestExplicitBoundWinsOverInference(t *testing.T) {
	// The user says 20; inference would say 10; explicit wins (it may
	// encode knowledge about a re-entered loop).
	an, err := inferAnalyze(t, `
		li a0, 10
loop:	addi a0, a0, -1
		bnez a0, loop
		ebreak
	`, map[string]int{"loop": 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range an.Bounds {
		if b != 20 {
			t.Errorf("bound %d, want explicit 20", b)
		}
	}
}

func TestInferUpCountSltiLatch(t *testing.T) {
	an, err := inferAnalyze(t, `
		li a0, 0
loop:	addi a0, a0, 1
		slti t0, a0, 8
		bnez t0, loop
		ebreak
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range an.Bounds {
		if b != 8 {
			t.Errorf("inferred bound %d, want 8", b)
		}
	}
	if len(an.Bounds) != 1 {
		t.Fatalf("bounds: %v", an.Bounds)
	}
}

func TestInferUpCountStride(t *testing.T) {
	an, err := inferAnalyze(t, `
		li a0, 0
loop:	addi a0, a0, 3
		slti t0, a0, 10
		bnez t0, loop
		ebreak
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Counter values at the test: 3, 6, 9, 12 — four head executions.
	for _, b := range an.Bounds {
		if b != 4 {
			t.Errorf("inferred bound %d, want 4", b)
		}
	}
}

func TestInferBltLatch(t *testing.T) {
	an, err := inferAnalyze(t, `
		li a0, 5
		li a1, 20
loop:	addi a0, a0, 1
		blt a0, a1, loop
		ebreak
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range an.Bounds {
		if b != 15 {
			t.Errorf("inferred bound %d, want 15", b)
		}
	}
}

// The flagship use: most workload loops follow the idiom, so inference
// alone must bound them with exactly the same result as the hand-written
// flow facts wherever both apply.
func TestInferenceMatchesAnnotationsOnWorkloads(t *testing.T) {
	prelude := "\t.equ SYSCON_EXIT, 0x00100000\n\t.equ SENSOR_SAMPLE, 0x10010000\n\t.equ SENSOR_COUNT, 0x10010004\n\t.equ UART_TX, 0x10000000\n"
	for _, name := range []string{"xtea", "popcount_bmi", "parity_base", "byteswap_base", "clamp_base"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		prog, err := asm.AssembleAt(prelude+w.Source, 0x8000_0000)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cfg.Build(prog.Bytes, prog.Org, prog.Entry)
		if err != nil {
			t.Fatal(err)
		}
		withAnnots, err := wcet.Analyze(g, wcet.Config{
			Profile: timing.EdgeSmall(), Bounds: w.LoopBounds, Symbols: prog.Symbols,
		})
		if err != nil {
			t.Fatalf("%s annotated: %v", name, err)
		}
		inferred, err := wcet.Analyze(g, wcet.Config{
			Profile: timing.EdgeSmall(), Symbols: prog.Symbols, InferBounds: true,
		})
		if err != nil {
			t.Fatalf("%s inferred: %v", name, err)
		}
		if withAnnots.WCET != inferred.WCET {
			t.Errorf("%s: annotated WCET %d != inferred %d", name, withAnnots.WCET, inferred.WCET)
		}
	}
}

// analyzeWorkload assembles a workload under the platform prelude and
// runs the analysis with the given bounds.
func analyzeWorkload(t *testing.T, w workloads.Workload, bounds map[string]int, infer bool) (*wcet.Annotated, error) {
	t.Helper()
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(prog.Bytes, prog.Org, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	return wcet.Analyze(g, wcet.Config{
		Profile:     timing.EdgeSmall(),
		Bounds:      bounds,
		Symbols:     prog.Symbols,
		InferBounds: infer,
	})
}

// Inference must never loosen a bound: for every workload where the
// inference-only analysis succeeds at all, each inferred loop bound must
// not exceed the hand-written annotation, and neither may the WCET.
func TestInferenceNeverLoosensWorkloadBounds(t *testing.T) {
	succeeded := 0
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			ann, err := analyzeWorkload(t, w, w.LoopBounds, false)
			if err != nil {
				t.Fatalf("annotated analysis failed: %v", err)
			}
			inf, err := analyzeWorkload(t, w, nil, true)
			if err != nil {
				// Data-dependent loops (sort, pid, ...) legitimately
				// defeat inference; the never-loosen claim is about the
				// ones it does bound.
				t.Skipf("inference-only: %v", err)
			}
			succeeded++
			if inf.WCET > ann.WCET {
				t.Errorf("inferred WCET %d looser than annotated %d", inf.WCET, ann.WCET)
			}
			prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
			if err != nil {
				t.Fatal(err)
			}
			for label, annB := range w.LoopBounds {
				if b, ok := inf.Bounds[prog.Symbols[label]]; ok && b > annB {
					t.Errorf("loop %s: inferred bound %d > annotation %d", label, b, annB)
				}
			}
		})
	}
	if succeeded < 10 {
		t.Errorf("inference-only analysis succeeded on %d workloads, want >= 10", succeeded)
	}
}

// Acceptance check for the interval inferencer: loops that previously
// required explicit Bounds entries (up-counting or blt-terminated, which
// a down-count-only matcher cannot handle) are now bounded
// automatically, with the program WCET unchanged.
func TestIntervalInferenceReplacesAnnotations(t *testing.T) {
	cases := []struct {
		workload string
		dropped  []string // annotations removed and expected to be re-derived
	}{
		{"fir", []string{"oloop"}},             // blt-latch up-count, bound 57
		{"matmul", []string{"iloop", "jloop"}}, // slti-latch up-counts, bound 8
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			w, ok := workloads.ByName(c.workload)
			if !ok {
				t.Fatalf("%s missing", c.workload)
			}
			ann, err := analyzeWorkload(t, w, w.LoopBounds, false)
			if err != nil {
				t.Fatal(err)
			}
			partial := map[string]int{}
			for label, b := range w.LoopBounds {
				partial[label] = b
			}
			for _, label := range c.dropped {
				if _, ok := partial[label]; !ok {
					t.Fatalf("workload has no %q annotation to drop", label)
				}
				delete(partial, label)
			}
			// Without inference the stripped analysis must fail...
			if _, err := analyzeWorkload(t, w, partial, false); err == nil {
				t.Fatalf("analysis without %v should require the annotations", c.dropped)
			}
			// ...and with the interval inferencer it must reproduce the
			// annotated result exactly.
			inf, err := analyzeWorkload(t, w, partial, true)
			if err != nil {
				t.Fatalf("inference did not recover %v: %v", c.dropped, err)
			}
			if inf.WCET != ann.WCET {
				t.Errorf("WCET with inferred bounds %d, want annotated %d", inf.WCET, ann.WCET)
			}
			prog, _ := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
			for _, label := range c.dropped {
				head := prog.Symbols[label]
				if got := inf.Bounds[head]; got != w.LoopBounds[label] {
					t.Errorf("loop %s: inferred bound %d, want %d", label, got, w.LoopBounds[label])
				}
			}
		})
	}
}
