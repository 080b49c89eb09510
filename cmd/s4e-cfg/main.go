// Command s4e-cfg reconstructs the control-flow graph of an assembly
// program, closed over its resolvable indirect jumps and calls the way
// every whole-program analysis sees it (subset.Resolve), and writes it
// in Graphviz DOT format. With -annotate, each
// block label additionally carries the static-analysis facts: loop
// heads with their depth and (user or inferred) bound, and lint
// findings.
//
// Usage:
//
//	s4e-cfg [-annotate] [-bounds loop=32] [-o prog.dot] prog.s
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/flow"
	"repro/internal/subset"
	"repro/internal/vp"
)

func main() {
	out := flag.String("o", "", "output file (default: stdout)")
	annotate := flag.Bool("annotate", false, "add loop, bound and lint notes to each block")
	boundsFlag := flag.String("bounds", "", "loop bounds for -annotate: label=N,label=N,...")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: s4e-cfg [-annotate] [-o out.dot] prog.s")
		os.Exit(2)
	}
	bounds, err := flow.ParseBounds(*boundsFlag)
	if err != nil {
		fatal(err)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asm.AssembleAt(vp.Prelude+string(src), vp.RAMBase)
	if err != nil {
		fatal(err)
	}
	g, _, err := subset.Resolve(prog.Bytes, prog.Org, prog.Entry)
	if err != nil {
		fatal(err)
	}
	var dot string
	if *annotate {
		dot = flow.AnnotatedDOT(prog, g, bounds)
	} else {
		symByAddr := map[uint32]string{}
		for name, addr := range prog.Symbols {
			symByAddr[addr] = name
		}
		dot = g.DOT(symByAddr)
	}
	if *out == "" {
		fmt.Print(dot)
		return
	}
	if err := os.WriteFile(*out, []byte(dot), 0o644); err != nil {
		fatal(err)
	}
	loops, err := g.NaturalLoops(g.Entry)
	if err == nil {
		var heads []string
		for _, l := range loops {
			heads = append(heads, fmt.Sprintf("0x%08x(depth %d)", l.Head, l.Depth))
		}
		fmt.Printf("%s: %d blocks, %d loops %s\n",
			*out, len(g.Blocks), len(loops), strings.Join(heads, " "))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s4e-cfg:", err)
	os.Exit(1)
}
