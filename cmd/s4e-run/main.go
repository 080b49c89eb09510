// Command s4e-run executes a RISC-V program (ELF or assembly source) on
// the edge virtual platform.
//
// Usage:
//
//	s4e-run [-profile edge-small] [-isa rv32imfc] [-engine superblock|switch] [-itrace] [-budget N]
//	        [-cpuprofile FILE] prog.{s,elf}
//
// Exit status: the guest's exit code (nonzero codes are clamped to stay
// nonzero after the 7-bit mask), 1 on runtime failure, 2 on usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/plugin"
	"repro/internal/timing"
	"repro/internal/vp"
)

func main() {
	profName := flag.String("profile", "unit", "timing profile: unit, edge-small, edge-fast")
	isaName := flag.String("isa", "full", "ISA configuration: rv32i(m)(f)(b)(c), full")
	engName := flag.String("engine", emu.Engines()[0].String(),
		"execution engine: "+emu.EngineList())
	itrace := flag.Bool("itrace", false, "print an instruction trace to stderr")
	budget := flag.Uint64("budget", 100_000_000, "instruction budget")
	stats := flag.Bool("stats", true, "print run statistics")
	metricsPath := flag.String("metrics", "", "write engine/bus metrics to `file` after the run (.json for JSON, - for stdout, else Prometheus text)")
	tracePath := flag.String("trace", "", "write structured trace events (JSONL) to `file`")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run (runtime/pprof) to `file`")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: s4e-run [flags] prog.{s,elf}")
		flag.PrintDefaults()
		os.Exit(2)
	}

	prof, ok := timing.Profiles()[*profName]
	if !ok {
		usage(fmt.Errorf("unknown profile %q", *profName))
	}
	set, err := isa.ParseExtSet(*isaName)
	if err != nil {
		usage(err)
	}

	p, err := vp.New(vp.Config{Profile: prof, ISA: set, ConsoleOut: os.Stdout})
	if err != nil {
		fatal(err)
	}
	engine, err := emu.ParseEngine(strings.ToLower(*engName))
	if err != nil {
		usage(err)
	}
	p.Machine.Engine = engine
	if *itrace {
		if err := p.Machine.Hooks.Register(&plugin.Tracer{W: os.Stderr}); err != nil {
			fatal(err)
		}
	}

	var tr *obs.Trace
	var closeTrace func() error
	if *tracePath != "" {
		tr, closeTrace, err = obs.NewFileTrace(*tracePath, obs.DefaultRing)
		if err != nil {
			fatal(err)
		}
	}

	in := flag.Arg(0)
	data, err := os.ReadFile(in)
	if err != nil {
		fatal(err)
	}
	if strings.HasSuffix(in, ".s") || strings.HasSuffix(in, ".S") {
		if _, err := p.LoadSource(vp.Prelude + string(data)); err != nil {
			fatal(err)
		}
	} else {
		prog, err := vp.ProgramFromELF(data)
		if err != nil {
			fatal(err)
		}
		if err := p.LoadProgram(prog); err != nil {
			fatal(err)
		}
	}

	stopProfile, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		fatal(err)
	}
	tr.Emit("run-start", "prog", in, "budget", *budget, "engine", *engName, "profile", *profName)
	stop := p.Run(*budget)
	if err := stopProfile(); err != nil {
		fatal(err)
	}
	h := &p.Machine.Hart
	tr.Emit("run-end", "reason", stop.Reason.String(), "code", stop.Code,
		"insts", h.Instret, "cycles", h.Cycle)

	if *stats {
		fmt.Fprintf(os.Stderr, "stop:    %v\ninsts:   %d\ncycles:  %d (%s)\nengine:  %s\nblocks:  %d cached\n",
			stop, h.Instret, h.Cycle, prof.Name(), p.Machine.Engine, p.Machine.CachedBlocks())
	}
	if *metricsPath != "" {
		reg := obs.NewRegistry()
		p.RecordStats(reg)
		if err := reg.WriteFile(*metricsPath); err != nil {
			fatal(err)
		}
	}
	if closeTrace != nil {
		if err := closeTrace(); err != nil {
			fatal(err)
		}
	}
	if stop.Reason == emu.StopExit {
		// The shell convention keeps 7 bits of exit status; a nonzero
		// guest code must never collapse to "success" under the mask.
		code := int(stop.Code & 0x7f)
		if code == 0 && stop.Code != 0 {
			code = 1
		}
		os.Exit(code)
	}
}

func usage(err error) {
	fmt.Fprintln(os.Stderr, "s4e-run:", err)
	fmt.Fprintln(os.Stderr, "usage: s4e-run [flags] prog.{s,elf}")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s4e-run:", err)
	os.Exit(1)
}
