// Command s4e-fault runs a fault-injection campaign against an assembly
// program and prints the outcome classification table.
//
// Usage:
//
//	s4e-fault [-gpr 200] [-mem 100] [-code 100] [-workers N] [-seed S]
//	          [-engine superblock|switch] [-pool=true] [-cpuprofile FILE] prog.s
//	s4e-fault -workload pid_timer -isr handler -latency 3000 [flags]
//
// The second form campaigns against a built-in workload (the interrupt
// demonstrators bring their own device stimuli); -isr concentrates the
// plan on the named handler's code and the ISR stack window, and
// -latency classifies benign mutants that blow the cycle budget for
// interrupt service as latency violations.
//
// Exit status: 0 on a clean campaign, 1 on runtime failure, 2 on usage
// error. Mutants the harness cannot run are reported as "errored" in
// the table; the campaign still completes and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/vp"
	"repro/internal/workloads"
)

func main() {
	gpr := flag.Int("gpr", 200, "transient register bit-flip count")
	gprPerm := flag.Int("gprperm", 0, "permanent (stuck-at) register fault count")
	mem := flag.Int("mem", 100, "permanent memory bit-flip count")
	code := flag.Int("code", 100, "instruction-word bit-flip count")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel workers")
	seed := flag.Int64("seed", 1, "fault plan seed")
	budget := flag.Uint64("budget", 10_000_000, "instruction budget per mutant")
	engName := flag.String("engine", emu.Engines()[0].String(),
		"execution engine: "+emu.EngineList())
	pool := flag.Bool("pool", true,
		"share the golden run's compiled translation pool across workers (false: each worker cold-compiles privately)")
	guided := flag.Bool("guided", false,
		"derive the plan from a coverage-instrumented golden run (targets only used registers and executed code)")
	metricsPath := flag.String("metrics", "", "write campaign and engine metrics to `file` after the run (.json for JSON, - for stdout, else Prometheus text)")
	tracePath := flag.String("trace", "", "write per-mutant trace events (JSONL) to `file`")
	progress := flag.Bool("progress", false, "print a live campaign progress line to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign (runtime/pprof) to `file`")
	workloadName := flag.String("workload", "",
		"campaign against a built-in workload instead of a source file (the interrupt demonstrators pid_timer, dma_stream, uart_cmd bring their own stimuli and budget)")
	isr := flag.String("isr", "",
		"target the plan at the interrupt handler rooted at this `symbol`: code flips land in the handler, memory faults in the ISR stack window")
	latency := flag.Uint64("latency", 0,
		"interrupt-service latency budget in `cycles`: benign mutants exceeding it classify latency-viol (0 disables)")
	flag.Parse()
	budgetSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "budget" {
			budgetSet = true
		}
	})
	if *guided && *isr != "" {
		fmt.Fprintln(os.Stderr, "s4e-fault: -guided and -isr are mutually exclusive")
		os.Exit(2)
	}

	var src string
	var w workloads.Workload
	switch {
	case *workloadName != "":
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: s4e-fault -workload name [flags]  (no source file)")
			os.Exit(2)
		}
		var ok bool
		w, ok = workloads.ByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "s4e-fault: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		src = w.Source
		if !budgetSet {
			*budget = w.Budget
		}
		if *isr == "" && w.Handler != "" {
			*isr = w.Handler
		}
	case flag.NArg() == 1:
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(b)
	default:
		fmt.Fprintln(os.Stderr, "usage: s4e-fault [flags] prog.s")
		flag.PrintDefaults()
		os.Exit(2)
	}
	prog, err := asm.AssembleAt(vp.Prelude+src, vp.RAMBase)
	if err != nil {
		fatal(err)
	}
	tg := &fault.Target{
		Program: prog, Budget: *budget,
		Sensor: w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn,
		LatencyBudget: *latency,
	}
	engine, err := emu.ParseEngine(*engName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s4e-fault:", err)
		os.Exit(2)
	}
	tg.Engine = engine

	// One golden run per campaign: Prepare's, whose translation pool the
	// workers warm-start from, or a plain one when the pool is off. The
	// guided plan's golden is Prepare's under the coverage plugin; with
	// the pool off, the campaign drops its pool.
	opts := fault.Options{Workers: *workers, NoSharedPool: !*pool}
	var plan fault.Plan
	if *guided && *isr == "" {
		var cfg fault.PlanConfig
		cfg, opts.Golden, opts.Pool, err = fault.GuidedPlanConfig(tg, *seed, *gpr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("guided plan: %d used registers, code 0x%08x..0x%08x\n",
			len(cfg.UsedRegs), cfg.CodeStart, cfg.CodeEnd)
		plan = fault.NewPlan(cfg)
	} else {
		if *pool {
			opts.Golden, opts.Pool, err = fault.Prepare(tg)
		} else {
			opts.Golden, err = fault.RunGolden(tg)
		}
		if err != nil {
			fatal(err)
		}
		if *isr != "" {
			plan, err = fault.NewISRPlan(prog, *isr, fault.ISRPlanConfig{
				Seed:         *seed,
				GPRTransient: *gpr,
				GPRPermanent: *gprPerm,
				MemPermanent: *mem,
				CodeBitflip:  *code,
				GoldenInsts:  opts.Golden.Insts,
				StackTop:     tg.StackTop(),
			})
			if err != nil {
				fatal(err)
			}
			start, end, _ := fault.ISRRegion(prog, *isr)
			fmt.Printf("isr plan: handler %s code 0x%08x..0x%08x, stack window 64 bytes below 0x%08x\n",
				*isr, start, end, tg.StackTop())
		} else {
			end := vp.RAMBase + uint32(len(prog.Bytes))
			plan = fault.NewPlan(fault.PlanConfig{
				Seed:         *seed,
				GPRTransient: *gpr,
				GPRPermanent: *gprPerm,
				MemPermanent: *mem,
				CodeBitflip:  *code,
				GoldenInsts:  opts.Golden.Insts,
				CodeStart:    vp.RAMBase,
				CodeEnd:      end,
				DataStart:    vp.RAMBase,
				DataEnd:      end,
			})
		}
	}
	fmt.Printf("golden: %v, %d instructions\n", opts.Golden.Stop, opts.Golden.Insts)

	if *metricsPath != "" {
		opts.Metrics = obs.NewRegistry()
	}
	var closeTrace func() error
	if *tracePath != "" {
		opts.Trace, closeTrace, err = obs.NewFileTrace(*tracePath, obs.DefaultRing)
		if err != nil {
			fatal(err)
		}
	}
	if *progress {
		opts.Progress = os.Stderr
	}

	stopProfile, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		fatal(err)
	}
	res, err := fault.CampaignOpt(tg, plan, opts)
	if perr := stopProfile(); perr != nil {
		fatal(perr)
	}
	if res == nil {
		fatal(err)
	}
	fmt.Print(res)
	poolState := "shared pool"
	if !*pool {
		poolState = "private caches"
	}
	fmt.Printf("%d mutants in %v (%.0f mutants/sec, %d workers, %s engine, %s)\n",
		res.Total, res.Duration.Round(time.Millisecond),
		float64(res.Total)/res.Duration.Seconds(), *workers, *engName, poolState)

	if opts.Metrics != nil {
		if werr := opts.Metrics.WriteFile(*metricsPath); werr != nil {
			fatal(werr)
		}
	}
	if closeTrace != nil {
		if werr := closeTrace(); werr != nil {
			fatal(werr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "s4e-fault: %d mutants errored:\n%v\n", res.Errored(), err)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s4e-fault:", err)
	os.Exit(1)
}
