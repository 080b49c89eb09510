// Package exp regenerates the deterministic evaluation tables: one
// function per experiment (E1, E2, E4, E5, E7 and E9 in EXPERIMENTS.md),
// each returning structured rows plus the formatted table the tooling
// prints. The cmd/s4e-experiments binary is a thin wrapper over this
// package.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"repro/internal/asm"
	"repro/internal/cover"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/isa"
	"repro/internal/qta"
	"repro/internal/suites"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// E1Inventory reports the ecosystem component table (the DATE'22 paper's
// overview content): every subsystem and its implementation status.
func E1Inventory() string {
	rows := [][2]string{
		{"instruction-set emulator (QEMU role)", "internal/emu: RV32IMFC+Zicsr+Zifencei+Xbmi, TB cache, interrupts"},
		{"plugin API (TCG plugin role)", "internal/plugin: translate/block/insn/mem/trap hooks, in-process"},
		{"virtual platform", "internal/vp: RAM, UART, CLINT, syscon, sensor at fixed memory map"},
		{"assembler / toolchain", "internal/asm: two-pass, pseudo-instructions, numeric labels"},
		{"object format", "internal/elf: ELF32 RISC-V writer/reader with symbols"},
		{"CFG reconstruction", "internal/cfg: leaders, calls, dominators, natural loops, DOT"},
		{"timing models", "internal/timing: edge-small / edge-fast / edge-cache / unit profiles"},
		{"static WCET analysis (aiT role)", "internal/wcet: block costs, flow facts + inferred bounds, longest path"},
		{"QTA co-simulation (core contribution)", "internal/qta: WCET-annotated execution, per-block profile"},
		{"coverage qualification", "internal/cover: instruction-type + GPR/FPR/CSR metric"},
		{"test suites", "internal/suites: architectural / unit / torture / compliance families"},
		{"random test generation (Torture role)", "internal/torture: seeded, terminating, WCET-boundable"},
		{"fault effect analysis", "internal/fault: 4 bit-flip models, coverage-guided plans, parallel campaigns"},
		{"memory/IO access analysis", "internal/watch: non-invasive access-policy monitor (lock-control scenario)"},
		{"demonstrator workloads", "internal/workloads: crypto, DSP/vision, control, sorting, BMI pairs"},
	}
	var sb strings.Builder
	sb.WriteString("E1: Scale4Edge ecosystem component inventory\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-40s %s\n", r[0], r[1])
	}
	return sb.String()
}

// E2QTA runs the QTA three-way comparison (static WCET / QTA / dynamic)
// for every workload on the given profile.
func E2QTA(prof *timing.Profile) ([]qta.Result, string, error) {
	var rows []qta.Result
	var sb strings.Builder
	fmt.Fprintf(&sb, "E2: WCET-annotated co-simulation (profile %s)\n", prof.Name())
	fmt.Fprintf(&sb, "  %-14s %10s %10s %10s %11s %9s  %s\n",
		"program", "static", "qta", "dynamic", "static/dyn", "qta/dyn", "sound")
	for _, w := range workloads.All() {
		r, err := flow.RunQTA(context.TODO(), w, prof, asm.Options{})
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, r)
		fmt.Fprintf(&sb, "  %-14s %10d %10d %10d %11.2f %9.2f  %v\n",
			r.Program, r.StaticWCET, r.QTATime, r.Dynamic,
			float64(r.StaticWCET)/float64(r.Dynamic),
			float64(r.QTATime)/float64(r.Dynamic), r.Sound())
	}
	return rows, sb.String(), nil
}

// CoverageRow is one suite's coverage report.
type CoverageRow struct {
	Suite  string
	Report cover.Report
}

// E4Coverage reproduces the three-suite coverage study and its union.
func E4Coverage(set isa.ExtSet) ([]CoverageRow, string, error) {
	fams := []struct {
		name  string
		suite suites.Suite
	}{
		{"architectural", suites.Architectural(set)},
		{"unit", suites.Unit(set)},
		{"torture", suites.Torture(set, 8, 1000)},
	}
	union := cover.New(set)
	var rows []CoverageRow
	var sb strings.Builder
	fmt.Fprintf(&sb, "E4: suite coverage on %s\n", set)
	fmt.Fprintf(&sb, "  %-14s %12s %9s %9s %7s\n", "suite", "insn types", "GPR", "FPR", "CSR")
	emit := func(name string, c *cover.Coverage) {
		r := c.Report()
		rows = append(rows, CoverageRow{Suite: name, Report: r})
		fpr := "-"
		if r.FPRTotal > 0 {
			fpr = fmt.Sprintf("%.1f%%", cover.Pct(r.FPRCovered, r.FPRTotal))
		}
		fmt.Fprintf(&sb, "  %-14s %11.1f%% %8.1f%% %9s %3d/%2d\n",
			name, cover.Pct(r.OpsCovered, r.OpsTotal), cover.Pct(r.GPRCovered, 32),
			fpr, r.CSRCovered, r.CSRTotal)
	}
	for _, f := range fams {
		c, err := suites.Run(f.suite, set)
		if err != nil {
			return nil, "", err
		}
		if err := union.Merge(c); err != nil {
			return nil, "", err
		}
		emit(f.name, c)
	}
	emit("union", union)
	return rows, sb.String(), nil
}

// E5Faults runs the fault classification campaign per fault model.
func E5Faults(workload string, n int) (*fault.Results, string, error) {
	w, ok := workloads.ByName(workload)
	if !ok {
		return nil, "", fmt.Errorf("exp: unknown workload %q", workload)
	}
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		return nil, "", err
	}
	tg := &fault.Target{Program: prog, Budget: w.Budget, Sensor: w.Sensor}
	g, pool, err := fault.Prepare(tg)
	if err != nil {
		return nil, "", err
	}
	// Code faults target the text (up to the first data symbol); memory
	// faults target pre-initialized data that the program actually
	// consumes (key material, coefficients), so a stuck cell can matter.
	imageEnd := vp.RAMBase + uint32(len(prog.Bytes))
	codeEnd := imageEnd
	dataStart := imageEnd
	for _, sym := range []string{"key", "coef", "buf", "data"} {
		if addr, ok := prog.Symbol(sym); ok && addr < codeEnd {
			codeEnd = addr
		}
		if addr, ok := prog.Symbol(sym); ok && addr < dataStart {
			dataStart = addr
		}
	}
	plan := fault.NewPlan(fault.PlanConfig{
		Seed:         99,
		GPRTransient: n,
		MemPermanent: n / 2,
		CodeBitflip:  n / 2,
		GoldenInsts:  g.Insts,
		CodeStart:    vp.RAMBase,
		CodeEnd:      codeEnd,
		DataStart:    dataStart,
		DataEnd:      imageEnd,
	})
	res, err := fault.CampaignOpt(tg, plan, fault.Options{Workers: runtime.NumCPU(), Golden: g, Pool: pool})
	if err != nil {
		return nil, "", err
	}
	return res, fmt.Sprintf("E5: fault classification, workload %s, %d mutants\n%s",
		workload, res.Total, res.String()), nil
}

// SpeedupRow is one base-vs-BMI kernel comparison.
type SpeedupRow struct {
	Kernel     string
	BaseCycles uint64
	BMICycles  uint64
	Speedup    float64
}

// E7BMI reproduces the bit-manipulation speedup table on the edge-small
// profile.
func E7BMI(prof *timing.Profile) ([]SpeedupRow, string, error) {
	var rows []SpeedupRow
	var sb strings.Builder
	fmt.Fprintf(&sb, "E7: Xbmi speedup (profile %s)\n", prof.Name())
	fmt.Fprintf(&sb, "  %-16s %12s %12s %9s\n", "kernel", "base cycles", "bmi cycles", "speedup")
	for _, pair := range workloads.Pairs() {
		base, bmi := pair[0], pair[1]
		cb, err := cyclesOf(base, prof)
		if err != nil {
			return nil, "", err
		}
		cx, err := cyclesOf(bmi, prof)
		if err != nil {
			return nil, "", err
		}
		name := strings.TrimSuffix(base.Name, "_base")
		r := SpeedupRow{Kernel: name, BaseCycles: cb, BMICycles: cx,
			Speedup: float64(cb) / float64(cx)}
		rows = append(rows, r)
		fmt.Fprintf(&sb, "  %-16s %12d %12d %8.2fx\n", r.Kernel, r.BaseCycles, r.BMICycles, r.Speedup)
	}
	return rows, sb.String(), nil
}

func cyclesOf(w workloads.Workload, prof *timing.Profile) (uint64, error) {
	p, stop, err := flow.RunWith(w, prof)
	if p != nil {
		defer p.Release()
	}
	if err != nil {
		return 0, err
	}
	if stop.Reason != emu.StopExit {
		return 0, fmt.Errorf("exp: %s stopped with %v", w.Name, stop)
	}
	return p.Machine.Hart.Cycle, nil
}

// DensityRow is one code-density measurement.
type DensityRow struct {
	Program   string
	PlainText int
	RVCText   int
	Reduction float64 // percent
}

// E9Density measures the text-size reduction of RVC relaxation per
// workload (the C-extension code-density argument for edge devices),
// verifying each compressed build still produces the reference checksum.
func E9Density() ([]DensityRow, string, error) {
	var rows []DensityRow
	var sb strings.Builder
	sb.WriteString("E9: RVC code density (text bytes)\n")
	fmt.Fprintf(&sb, "  %-14s %10s %10s %10s\n", "program", "plain", "rvc", "saved")
	var tp, tc int
	for _, w := range workloads.All() {
		plain, err := asm.AssembleAtOpt(vp.Prelude+w.Source, vp.RAMBase, asm.Options{})
		if err != nil {
			return nil, "", err
		}
		comp, err := asm.AssembleAtOpt(vp.Prelude+w.Source, vp.RAMBase, asm.Options{Compress: true})
		if err != nil {
			return nil, "", err
		}
		// The compressed build must still compute the reference result.
		p, err := vp.New(vp.Config{Sensor: w.Sensor})
		if err != nil {
			return nil, "", err
		}
		if err := p.LoadProgram(comp); err != nil {
			p.Release()
			return nil, "", err
		}
		stop := p.Run(w.Budget)
		p.Release()
		if stop.Reason != emu.StopExit || stop.Code != w.Expect {
			return nil, "", fmt.Errorf("exp: %s compressed build broke: %v", w.Name, stop)
		}
		r := DensityRow{
			Program:   w.Name,
			PlainText: plain.TextBytes,
			RVCText:   comp.TextBytes,
			Reduction: 100 * (1 - float64(comp.TextBytes)/float64(plain.TextBytes)),
		}
		rows = append(rows, r)
		tp += r.PlainText
		tc += r.RVCText
		fmt.Fprintf(&sb, "  %-14s %10d %10d %9.1f%%\n", r.Program, r.PlainText, r.RVCText, r.Reduction)
	}
	fmt.Fprintf(&sb, "  %-14s %10d %10d %9.1f%%\n", "total", tp, tc,
		100*(1-float64(tc)/float64(tp)))
	return rows, sb.String(), nil
}

// IDs lists the experiment ids All accepts, in the order it runs them.
// Every one is deterministic. The speed experiments (E3, E6, E8 and
// E10-E13) are measured by the repository benchmark (perfbench) and the
// go test benchmarks instead.
var IDs = []string{"e1", "e2", "e4", "e5", "e7", "e9"}

// ErrUnknownID is wrapped by the error All returns for an id not in IDs.
var ErrUnknownID = errors.New("unknown experiment id")

// All runs every experiment and concatenates the tables; the experiment
// ids may be restricted to a subset of IDs.
func All(ids []string) (string, error) {
	want := map[string]bool{}
	for _, id := range ids {
		id = strings.ToLower(id)
		if !slices.Contains(IDs, id) {
			return "", fmt.Errorf("%w %q (valid: %s)", ErrUnknownID, id, strings.Join(IDs, ", "))
		}
		want[id] = true
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }
	var sb strings.Builder
	add := func(s string) {
		sb.WriteString(s)
		sb.WriteString("\n")
	}
	if sel("e1") {
		add(E1Inventory())
	}
	if sel("e2") {
		for _, prof := range []*timing.Profile{timing.EdgeSmall(), timing.EdgeFast(), timing.EdgeCache()} {
			_, s, err := E2QTA(prof)
			if err != nil {
				return "", err
			}
			add(s)
		}
	}
	if sel("e4") {
		for _, set := range []isa.ExtSet{isa.RV32IMF, isa.RV32IM} {
			_, s, err := E4Coverage(set)
			if err != nil {
				return "", err
			}
			add(s)
		}
	}
	if sel("e5") {
		_, s, err := E5Faults("xtea", 400)
		if err != nil {
			return "", err
		}
		add(s)
	}
	if sel("e7") {
		_, s, err := E7BMI(timing.EdgeSmall())
		if err != nil {
			return "", err
		}
		add(s)
	}
	if sel("e9") {
		_, s, err := E9Density()
		if err != nil {
			return "", err
		}
		add(s)
	}
	return sb.String(), nil
}
