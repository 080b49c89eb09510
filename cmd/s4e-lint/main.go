// Command s4e-lint runs the guest-binary linter over an assembly
// program: dataflow-backed checks for uninitialized register reads,
// unreachable code, dead stores, out-of-map and misaligned accesses,
// self-modifying stores without fence.i, and unbounded loops.
//
// Usage:
//
//	s4e-lint [-bounds loop=32] [-min possible] [-fail definite] [-json] prog.s
//
// With -json the findings (after -min filtering) are emitted as one
// JSON document on stdout for machine consumption. The exit code is 1
// when a finding at or above the -fail severity is present, 0
// otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/flow"
	"repro/internal/lint"
	"repro/internal/vp"
)

func parseSeverity(s string) (lint.Severity, error) {
	switch s {
	case "info":
		return lint.Info, nil
	case "possible":
		return lint.Possible, nil
	case "definite":
		return lint.Definite, nil
	}
	return 0, fmt.Errorf("unknown severity %q (want info, possible or definite)", s)
}

func main() {
	boundsFlag := flag.String("bounds", "", "loop bounds: label=N,label=N,...")
	minFlag := flag.String("min", "info", "lowest severity to report")
	failFlag := flag.String("fail", "definite", "lowest severity that fails the run")
	compress := flag.Bool("rvc", false, "lint the RVC-compressed build")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: s4e-lint [flags] prog.s")
		flag.PrintDefaults()
		os.Exit(2)
	}
	minSev, err := parseSeverity(*minFlag)
	if err != nil {
		usage(err)
	}
	failSev, err := parseSeverity(*failFlag)
	if err != nil {
		usage(err)
	}
	bounds, err := flow.ParseBounds(*boundsFlag)
	if err != nil {
		usage(err)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asm.AssembleAtOpt(vp.Prelude+string(src), vp.RAMBase,
		asm.Options{Compress: *compress})
	if err != nil {
		fatal(err)
	}
	findings, err := flow.LintProgram(prog, bounds)
	if err != nil {
		fatal(err)
	}
	// Report line numbers relative to the user's file, not the
	// prepended platform prelude.
	preludeOff := strings.Count(vp.Prelude, "\n")
	type jsonFinding struct {
		Check    string `json:"check"`
		Severity string `json:"severity"`
		Addr     uint32 `json:"addr"`
		Line     int    `json:"line,omitempty"`
		Msg      string `json:"msg"`
	}
	var jfs []jsonFinding
	reported, failing := 0, 0
	for _, f := range findings {
		if f.Line > preludeOff {
			f.Line -= preludeOff
		}
		if f.Severity >= failSev {
			failing++
		}
		if f.Severity >= minSev {
			reported++
			if *jsonOut {
				jfs = append(jfs, jsonFinding{
					Check: f.Check, Severity: f.Severity.String(),
					Addr: f.Addr, Line: f.Line, Msg: f.Msg,
				})
			} else {
				fmt.Printf("%s: %s\n", flag.Arg(0), f)
			}
		}
	}
	if *jsonOut {
		doc := struct {
			File     string        `json:"file"`
			Findings []jsonFinding `json:"findings"`
			Total    int           `json:"total"`
			Failing  int           `json:"failing"`
		}{flag.Arg(0), jfs, len(findings), failing}
		if doc.Findings == nil {
			doc.Findings = []jsonFinding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("%s: %d findings (%d reported, %d at fail level)\n",
			flag.Arg(0), len(findings), reported, failing)
	}
	if failing > 0 {
		os.Exit(1)
	}
}

func usage(err error) {
	fmt.Fprintln(os.Stderr, "s4e-lint:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s4e-lint:", err)
	os.Exit(1)
}
