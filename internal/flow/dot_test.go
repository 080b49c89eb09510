package flow_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/flow"
	"repro/internal/subset"
	"repro/internal/vp"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The fixture exercises every annotation kind: an inferred loop bound,
// a user-supplied loop bound, and a lint finding inside a block.
const annotateFixture = `
	li   a0, 0
iloop:	addi a0, a0, 1
	slti t0, a0, 4
	bnez t0, iloop
	lw   a1, -4(sp)
uloop:	addi a1, a1, -1
	add  zero, a0, a1
	bnez a1, uloop
	ebreak
`

func TestAnnotatedDOTGolden(t *testing.T) {
	prog, err := asm.AssembleAt(vp.Prelude+annotateFixture, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := subset.Resolve(prog.Bytes, prog.Org, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	got := flow.AnnotatedDOT(prog, g, map[string]int{"uloop": 9})

	golden := filepath.Join("testdata", "annotated.dot")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("annotated DOT drifted from golden file (run with -update to regenerate):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// Structural checks that do not depend on exact addresses, so the
// intent survives a golden regeneration.
func TestAnnotatedDOTNotes(t *testing.T) {
	prog, err := asm.AssembleAt(vp.Prelude+annotateFixture, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := subset.Resolve(prog.Bytes, prog.Org, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	got := flow.AnnotatedDOT(prog, g, map[string]int{"uloop": 9})
	for _, frag := range []string{
		"loop head (depth 1): bound 4 (inferred)",
		"loop head (depth 1): bound 9 (user)",
		"lint info x0-write",
		"iloop:",
		"uloop:",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("annotated DOT missing %q:\n%s", frag, got)
		}
	}
	// Without the user bound the second loop is reported unbounded.
	got = flow.AnnotatedDOT(prog, g, nil)
	if !strings.Contains(got, "no bound") {
		t.Errorf("unbounded loop not marked:\n%s", got)
	}
	if !strings.Contains(got, "lint possible unbounded-loop") {
		t.Errorf("unbounded-loop finding not attached:\n%s", got)
	}
}

// A finding outside every block (here dead code the jump skips) has no
// block label to join, so it is listed in the graph's own label.
func TestAnnotatedDOTUnreachable(t *testing.T) {
	prog, err := asm.AssembleAt(vp.Prelude+`
	li   a0, 1
	j    done
	addi a0, a0, 1
done:	ebreak
`, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := subset.Resolve(prog.Bytes, prog.Org, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	got := flow.AnnotatedDOT(prog, g, nil)
	dead := prog.Entry + 8
	want := fmt.Sprintf("  label=\"# lint definite unreachable @ %08x: instruction is not reachable from the entry point\\l\";\n", dead)
	if !strings.Contains(got, want) {
		t.Errorf("annotated DOT lacks the graph-level note %q:\n%s", want, got)
	}
	if strings.Contains(got, fmt.Sprintf("%08x: addi", dead)) {
		t.Errorf("dead instruction drawn as a block:\n%s", got)
	}
}
