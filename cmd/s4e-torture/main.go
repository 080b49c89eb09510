// Command s4e-torture generates random terminating RISC-V test programs.
//
// Usage:
//
//	s4e-torture [-n 10] [-insts 300] [-isa rv32imf] [-seed S] [-dir out/]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/isa"
	"repro/internal/torture"
)

func main() {
	n := flag.Int("n", 10, "number of programs")
	insts := flag.Int("insts", 300, "body instructions per program")
	isaName := flag.String("isa", "rv32im", "ISA configuration")
	seed := flag.Int64("seed", 1, "base seed")
	dir := flag.String("dir", "", "output directory (default: stdout, first program only)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: s4e-torture [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	set, err := isa.ParseExtSet(*isaName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s4e-torture:", err)
		os.Exit(2)
	}

	if *dir == "" {
		p := torture.Generate(torture.Config{Seed: *seed, Insts: *insts, ISA: set})
		fmt.Print(p.Source)
		return
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	for i := 0; i < *n; i++ {
		p := torture.Generate(torture.Config{Seed: *seed + int64(i), Insts: *insts, ISA: set})
		name := filepath.Join(*dir, fmt.Sprintf("torture-%04d.s", i))
		if err := os.WriteFile(name, []byte(p.Source), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wrote %d programs to %s\n", *n, *dir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s4e-torture:", err)
	os.Exit(1)
}
