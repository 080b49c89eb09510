// Command s4e-wcet runs the static WCET analysis over an assembly
// program and writes the WCET-annotated CFG (the QTA input artifact).
//
// Usage:
//
//	s4e-wcet [-profile edge-small] [-bounds loop=32,fill=16] [-o prog.qta.json] [-dot prog.dot] prog.s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/flow"
	"repro/internal/lint"
	"repro/internal/timing"
	"repro/internal/vp"
)

func main() {
	profName := flag.String("profile", "edge-small", "timing profile")
	boundsFlag := flag.String("bounds", "", "loop bounds: label=N,label=N,...")
	out := flag.String("o", "", "annotated CFG output (default: input + .qta.json)")
	dot := flag.String("dot", "", "also write the CFG in Graphviz format")
	report := flag.Bool("report", false, "print the full per-block analysis report")
	infer := flag.Bool("infer", true, "infer bounds of counted loops automatically")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: s4e-wcet [flags] prog.s")
		flag.PrintDefaults()
		os.Exit(2)
	}
	prof, ok := timing.Profiles()[*profName]
	if !ok {
		usage(fmt.Errorf("unknown profile %q", *profName))
	}
	bounds, err := flow.ParseBounds(*boundsFlag)
	if err != nil {
		usage(err)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asm.AssembleAt(vp.Prelude+string(src), vp.RAMBase)
	if err != nil {
		fatal(err)
	}
	a, err := flow.Analyze(context.Background(), prog, prof, bounds, *infer)
	if err != nil {
		fatal(err)
	}
	for _, f := range lint.Graph(a.Graph, prog.Lines, flow.LintConfig(prog, bounds)) {
		if f.Severity >= lint.Possible {
			fmt.Fprintf(os.Stderr, "s4e-wcet: lint: %s\n", f)
		}
	}
	name := *out
	if name == "" {
		name = strings.TrimSuffix(flag.Arg(0), ".s") + ".qta.json"
	}
	data, err := a.Annotated.Encode()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(name, data, 0o644); err != nil {
		fatal(err)
	}
	if *dot != "" {
		symByAddr := map[uint32]string{}
		for n, addr := range a.Program.Symbols {
			symByAddr[addr] = n
		}
		if err := os.WriteFile(*dot, []byte(a.Graph.DOT(symByAddr)), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%s: %d blocks, %d edges, %d bounded loops\n",
		name, len(a.Annotated.Blocks), len(a.Annotated.Edges), len(a.Annotated.Bounds))
	fmt.Printf("WCET bound: %d cycles (profile %s)\n", a.Annotated.WCET, prof.Name())
	if *report {
		symByAddr := map[uint32]string{}
		for n, addr := range a.Program.Symbols {
			symByAddr[addr] = n
		}
		fmt.Print(a.Annotated.Report(symByAddr))
	}
}

func usage(err error) {
	fmt.Fprintln(os.Stderr, "s4e-wcet:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s4e-wcet:", err)
	os.Exit(1)
}
