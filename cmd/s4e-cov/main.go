// Command s4e-cov runs the instruction/register coverage analysis: over
// the built-in suite families, or over explicit assembly programs.
//
// Usage:
//
//	s4e-cov [-isa rv32imf] -suites              # three-family study + union
//	s4e-cov [-isa rv32imf] prog1.s prog2.s ...  # coverage of given programs
//
// -ext adds a per-extension-group breakdown (I, M, Zicsr, Xbmi/Zbb,
// Xbmi/Zbs, ...) using the same grouping tables as the subset analyzer.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cover"
	"repro/internal/exp"
	"repro/internal/isa"
	"repro/internal/suites"
)

func main() {
	isaName := flag.String("isa", "rv32imf", "ISA configuration the coverage is scored against")
	suitesFlag := flag.Bool("suites", false, "run the built-in architectural/unit/torture study")
	missing := flag.Bool("missing", false, "list uncovered instruction types")
	byExt := flag.Bool("ext", false, "break coverage down per extension group")
	flag.Parse()

	set, err := isa.ParseExtSet(*isaName)
	if err != nil {
		fatal(err)
	}

	if *suitesFlag {
		_, table, err := exp.E4Coverage(set)
		if err != nil {
			fatal(err)
		}
		fmt.Print(table)
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: s4e-cov [-isa cfg] -suites | prog.s ...")
		os.Exit(2)
	}
	var programs []suites.Program
	for _, name := range flag.Args() {
		src, err := os.ReadFile(name)
		if err != nil {
			fatal(err)
		}
		programs = append(programs, suites.Program{Name: name, Source: string(src), Budget: 10_000_000})
	}
	c, err := suites.Run(suites.Suite{Name: "cli", Programs: programs}, set)
	if err != nil {
		fatal(err)
	}
	r := c.Report()
	fmt.Println(r)
	if *byExt {
		for _, g := range r.Groups {
			fmt.Printf("  %-10s %d/%d (%.1f%%)", g.Group, g.Covered, g.Total,
				cover.Pct(g.Covered, g.Total))
			if *missing && len(g.MissingOps) > 0 {
				fmt.Printf("  missing: %v", g.MissingOps)
			}
			fmt.Println()
		}
	}
	if *missing {
		fmt.Println("missing instruction types:", r.MissingOps)
		fmt.Println("untouched GPRs:", r.MissingGPR)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s4e-cov:", err)
	os.Exit(1)
}
