// Command s4e-experiments regenerates the deterministic evaluation
// tables (E1, E2, E4, E5, E7 and E9 in EXPERIMENTS.md).
//
// Usage:
//
//	s4e-experiments             # run everything
//	s4e-experiments -exp e2,e7  # selected experiments
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	which := flag.String("exp", "", "comma-separated experiment ids ("+strings.Join(exp.IDs, ",")+"); empty = all")
	flag.Parse()
	var ids []string
	if *which != "" {
		ids = strings.Split(*which, ",")
	}
	out, err := exp.All(ids)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s4e-experiments:", err)
		if errors.Is(err, exp.ErrUnknownID) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	fmt.Print(out)
}
