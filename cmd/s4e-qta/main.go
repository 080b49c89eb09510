// Command s4e-qta performs the timing-annotated co-simulation: it loads
// an assembly program together with its WCET-annotated CFG (produced by
// s4e-wcet) and reports the observed worst-case time against the static
// bound and the dynamic cycle count.
//
// Usage:
//
//	s4e-qta [-profile edge-small] [-annot prog.qta.json] [-blockprofile] prog.s
//	s4e-qta -irq [-samples 32] [-seed 1] [-engine superblock] [workload ...]
//
// The -irq mode switches to interrupt-response-time qualification: for
// each named interrupt demonstrator (default: all of them) it computes
// the static IRT bound and attacks the program with adversarially timed
// interrupts, reporting bound vs. observed worst case.
//
// Exit status: 0 on success, 1 on runtime failure (including an unsound
// IRT bound), 2 on usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/emu"
	"repro/internal/flow"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/qta"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/wcet"
	"repro/internal/workloads"
)

func main() {
	profName := flag.String("profile", "edge-small", "timing profile (must match the annotation)")
	annot := flag.String("annot", "", "annotated CFG (default: input + .qta.json)")
	budget := flag.Uint64("budget", 100_000_000, "instruction budget")
	blockProfile := flag.Bool("blockprofile", false, "print the per-block visit profile")
	metricsPath := flag.String("metrics", "", "write analysis timing and engine metrics to `file` (.json for JSON, - for stdout, else Prometheus text)")
	tracePath := flag.String("trace", "", "write structured trace events (JSONL) to `file`")
	progress := flag.Bool("progress", false, "print a periodic progress line to stderr")
	irq := flag.Bool("irq", false, "interrupt-response-time qualification over the named interrupt workloads")
	samples := flag.Int("samples", 32, "adversarial trigger points per workload (-irq)")
	seed := flag.Uint64("seed", 1, "trigger-jitter seed (-irq)")
	engName := flag.String("engine", "superblock",
		"execution engine for -irq: "+emu.EngineList())
	flag.Parse()
	prof, ok := timing.Profiles()[*profName]
	if !ok {
		fmt.Fprintf(os.Stderr, "s4e-qta: unknown profile %q\n", *profName)
		os.Exit(2)
	}
	if *irq {
		runIRQ(prof, *engName, *samples, *seed, flag.Args())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: s4e-qta [flags] prog.s")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var tr *obs.Trace
	var closeTrace func() error
	if *tracePath != "" {
		var err error
		tr, closeTrace, err = obs.NewFileTrace(*tracePath, obs.DefaultRing)
		if err != nil {
			fatal(err)
		}
	}

	name := *annot
	if name == "" {
		name = strings.TrimSuffix(flag.Arg(0), ".s") + ".qta.json"
	}
	decodeStart := time.Now()
	annotData, err := os.ReadFile(name)
	if err != nil {
		fatal(err)
	}
	an, err := wcet.Decode(annotData)
	if err != nil {
		fatal(err)
	}
	decodeSecs := time.Since(decodeStart).Seconds()
	if an.Profile != prof.Name() {
		fmt.Fprintf(os.Stderr, "s4e-qta: warning: annotation was computed for profile %s\n", an.Profile)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	p, err := vp.New(vp.Config{Profile: prof, ConsoleOut: os.Stdout})
	if err != nil {
		fatal(err)
	}
	q := qta.New(an)
	if err := p.Machine.Hooks.Register(q); err != nil {
		fatal(err)
	}
	prog, err := p.LoadSource(vp.Prelude + string(src))
	if err != nil {
		fatal(err)
	}
	if findings, err := flow.LintProgram(prog, nil); err == nil {
		for _, f := range findings {
			if f.Severity >= lint.Possible {
				fmt.Fprintf(os.Stderr, "s4e-qta: lint: %s\n", f)
			}
		}
	}
	tr.Emit("qta-start", "prog", flag.Arg(0), "annot", name, "blocks", len(an.Blocks))
	runStart := time.Now()
	stop := run(p, *budget, *progress)
	runSecs := time.Since(runStart).Seconds()
	if stop.Reason != emu.StopExit && stop.Reason != emu.StopEbreak {
		fatal(fmt.Errorf("program ended with %v", stop))
	}
	res := q.NewResult(flag.Arg(0), p.Machine.Hart.Cycle, p.Machine.Hart.Instret)
	tr.Emit("qta-end", "static_wcet", res.StaticWCET, "qta_time", res.QTATime,
		"dynamic", res.Dynamic, "sound", res.Sound(), "run_seconds", runSecs)
	fmt.Println(res)
	fmt.Printf("blocks executed: %d/%d, unannotated transitions: %d, sound: %v\n",
		res.BlocksSeen, res.BlocksTotal, res.Missing, res.Sound())
	if *blockProfile {
		fmt.Print(q.Profile())
	}

	if *metricsPath != "" {
		reg := obs.NewRegistry()
		reg.Gauge("s4e_qta_decode_seconds", "annotation decode time").Set(decodeSecs)
		reg.Gauge("s4e_qta_run_seconds", "co-simulation run time").Set(runSecs)
		reg.Gauge("s4e_qta_static_wcet_cycles", "static WCET bound").Set(float64(res.StaticWCET))
		reg.Gauge("s4e_qta_observed_cycles", "QTA-observed worst-case time").Set(float64(res.QTATime))
		reg.Gauge("s4e_qta_dynamic_cycles", "emulator dynamic cycle count").Set(float64(res.Dynamic))
		reg.Counter("s4e_qta_missing_transitions_total", "transitions without an annotated edge").Add(res.Missing)
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
}

// run executes the program, optionally in budget chunks with a live
// progress line between them.
func run(p *vp.Platform, budget uint64, progress bool) emu.StopInfo {
	if !progress {
		return p.Run(budget)
	}
	const chunk = 50_000_000
	start := time.Now()
	for {
		step := uint64(chunk)
		if budget > 0 {
			rem := budget - p.Machine.Hart.Instret
			if rem == 0 {
				return emu.StopInfo{Reason: emu.StopBudget, PC: p.Machine.Hart.PC}
			}
			if rem < step {
				step = rem
			}
		}
		stop := p.Run(step)
		done := p.Machine.Hart.Instret
		if stop.Reason != emu.StopBudget || (budget > 0 && done >= budget) {
			return stop
		}
		secs := time.Since(start).Seconds()
		mips := 0.0
		if secs > 0 {
			mips = float64(done) / 1e6 / secs
		}
		fmt.Fprintf(os.Stderr, "s4e-qta: %d insts (%.0f MIPS)\n", done, mips)
	}
}

// runIRQ is the -irq mode: IRT qualification over interrupt workloads.
func runIRQ(prof *timing.Profile, engName string, samples int, seed uint64, names []string) {
	engine, err := emu.ParseEngine(engName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s4e-qta:", err)
		os.Exit(2)
	}
	var ws []workloads.Workload
	if len(names) == 0 {
		ws = workloads.Interrupt()
	} else {
		for _, n := range names {
			w, ok := workloads.ByName(n)
			if !ok || w.Handler == "" {
				fmt.Fprintf(os.Stderr, "s4e-qta: %q is not an interrupt workload\n", n)
				os.Exit(2)
			}
			ws = append(ws, w)
		}
	}
	allSound := true
	for _, w := range ws {
		res, err := flow.RunIRT(context.Background(), w, prof, flow.IRTConfig{
			Engine:  engine,
			Samples: samples,
			Seed:    seed,
		})
		if err != nil {
			fatal(err)
		}
		s := res.Static
		fmt.Printf("%s: IRT bound %d = blocking %d (critical %d, %d sites) + chain %d + entry %d + handler %d + mret %d\n",
			w.Name, s.Bound, s.Blocking, s.CriticalMax, s.CriticalSites,
			s.Chain, s.TrapCost, s.HandlerWCET, s.MretPenalty)
		m := res.Measured
		fmt.Printf("%s: observed max %d @ cycle %d (%d delivered, %d skipped of %d over %d cycles), ratio %.2f, sound: %v\n",
			w.Name, m.MaxLatency, m.MaxTrigger, m.Delivered, m.Skipped, m.Samples,
			m.GoldenCycles, res.Ratio, res.Sound)
		if m.Mismatches != 0 {
			fmt.Printf("%s: WARNING: %d perturbed runs broke the checksum\n", w.Name, m.Mismatches)
			allSound = false
		}
		allSound = allSound && res.Sound
	}
	if !allSound {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s4e-qta:", err)
	os.Exit(1)
}
