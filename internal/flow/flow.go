// Package flow wires the ecosystem's tool chain end to end: assemble a
// program, reconstruct its CFG, run the static WCET analysis, execute it
// on the virtual platform with the QTA plugin attached, and collect the
// three-way timing comparison. The command-line tools, the examples and
// the experiment harness are thin wrappers over this package.
package flow

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/dev"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/plugin"
	"repro/internal/qta"
	"repro/internal/subset"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/wcet"
	"repro/internal/workloads"
)

// Analysis is the static half of the flow.
type Analysis struct {
	Program   *asm.Program
	Graph     *cfg.Graph
	Annotated *wcet.Annotated
}

// PlatformRegions is the virtual platform's data-access map, as lint
// regions.
func PlatformRegions() []lint.Region {
	return []lint.Region{
		{Base: vp.SysConBase, Size: 0x1000, Name: "syscon"},
		{Base: vp.CLINTBase, Size: dev.CLINTSize, Name: "clint"},
		{Base: vp.UARTBase, Size: 0x1000, Name: "uart"},
		{Base: vp.SensorBase, Size: 0x1000, Name: "sensor"},
		{Base: vp.RAMBase, Size: vp.DefaultRAMSize, Name: "ram"},
	}
}

// LintConfig builds the platform lint configuration for an assembled
// program: the VP memory map, the program's own image as the code range,
// and the loader contract (sp points at the top of RAM on entry).
func LintConfig(prog *asm.Program, bounds map[string]int) lint.Config {
	return lint.Config{
		Regions:   PlatformRegions(),
		CodeStart: prog.Org,
		CodeEnd:   prog.Org + uint32(len(prog.Bytes)),
		Bounds:    bounds,
		Symbols:   prog.Symbols,
		EntryRegs: map[isa.Reg]dataflow.Interval{
			isa.SP: dataflow.Const(int64(vp.RAMBase) + vp.DefaultRAMSize),
		},
		EntryInit: []isa.Reg{isa.SP},
	}
}

// LintProgram runs the linter over an assembled program under the
// platform configuration. The CFG is closed by the subset analyzer
// first, so indirect jumps through proven-constant targets resolve and
// no longer demote unreachable-code findings to Possible.
func LintProgram(prog *asm.Program, bounds map[string]int) ([]lint.Finding, error) {
	g, _, err := subset.Resolve(prog.Bytes, prog.Org, prog.Entry)
	if err != nil {
		return nil, err
	}
	return lint.Graph(g, prog.Lines, LintConfig(prog, bounds)), nil
}

// AnnotatedDOT renders a program's CFG in Graphviz format with static-
// analysis notes per block: loop heads with their depth and bound
// (user-supplied or inferred by the interval analysis), and the lint
// findings that land in the block. Findings outside every block, such as
// unreachable code, are listed in one graph-level note. It needs no
// timing profile and does not fail on unbounded loops, so it works on
// programs the WCET analysis would reject.
func AnnotatedDOT(prog *asm.Program, g *cfg.Graph, bounds map[string]int) string {
	notes := map[uint32][]string{}

	boundByAddr := map[uint32]int{}
	for label, b := range bounds {
		if addr, ok := prog.Symbols[label]; ok {
			boundByAddr[addr] = b
		}
	}
	for _, entry := range subset.Functions(g) {
		loops, err := g.NaturalLoops(entry)
		if err != nil {
			continue
		}
		inferred := dataflow.InferLoopBounds(g, entry, loops)
		for _, l := range loops {
			note := fmt.Sprintf("loop head (depth %d): ", l.Depth)
			switch {
			case boundByAddr[l.Head] > 0:
				note += fmt.Sprintf("bound %d (user)", boundByAddr[l.Head])
			case inferred[l.Head] > 0:
				note += fmt.Sprintf("bound %d (inferred)", inferred[l.Head])
			default:
				note += "no bound"
			}
			notes[l.Head] = append(notes[l.Head], note)
		}
	}
	var outside []string
	for _, f := range lint.Graph(g, prog.Lines, LintConfig(prog, bounds)) {
		blk, ok := g.BlockAt(f.Addr)
		if !ok {
			// Unreachable code has no block to hang the note on.
			outside = append(outside,
				fmt.Sprintf("lint %s %s @ %08x: %s", f.Severity, f.Check, f.Addr, f.Msg))
			continue
		}
		notes[blk.Start] = append(notes[blk.Start],
			fmt.Sprintf("lint %s %s: %s", f.Severity, f.Check, f.Msg))
	}

	symByAddr := map[uint32]string{}
	for n, addr := range prog.Symbols {
		symByAddr[addr] = n
	}
	return g.DOTAnnotated(symByAddr, notes, outside)
}

// Analyze is the static half of the flow and the one place a program
// becomes an analysis: it closes the program's interprocedural CFG with
// subset.Resolve (jumps and calls through proven-constant targets become
// edges) and runs the cancellable WCET analysis over that graph with the
// given loop bounds, inferring the missing ones when infer is set.
func Analyze(ctx context.Context, prog *asm.Program, prof *timing.Profile, bounds map[string]int, infer bool) (*Analysis, error) {
	g, _, err := subset.Resolve(prog.Bytes, prog.Org, prog.Entry)
	if err != nil {
		return nil, err
	}
	an, err := wcet.AnalyzeContext(ctx, g, wcet.Config{
		Profile:     prof,
		Bounds:      bounds,
		Symbols:     prog.Symbols,
		InferBounds: infer,
	})
	if err != nil {
		return nil, err
	}
	return &Analysis{Program: prog, Graph: g, Annotated: an}, nil
}

// RunQTA performs the full QTA flow for one workload: assemble it (the
// RVC-compressed build when opt.Compress is set), analyze it, then
// co-simulate it with the timing-annotated CFG on the edge platform.
func RunQTA(ctx context.Context, w workloads.Workload, prof *timing.Profile, opt asm.Options) (qta.Result, error) {
	prog, err := asm.AssembleAtOpt(vp.Prelude+w.Source, vp.RAMBase, opt)
	if err != nil {
		return qta.Result{}, fmt.Errorf("flow: %s: %w", w.Name, err)
	}
	a, err := Analyze(ctx, prog, prof, w.LoopBounds, false)
	if err != nil {
		return qta.Result{}, fmt.Errorf("flow: %s: %w", w.Name, err)
	}
	p, err := vp.New(vp.Config{Profile: prof, Sensor: w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn})
	if err != nil {
		return qta.Result{}, err
	}
	defer p.Release()
	if err := p.LoadProgram(prog); err != nil {
		return qta.Result{}, err
	}
	q, stop, err := qta.CoSim(ctx, a.Annotated, p, w.Budget)
	if err != nil {
		return qta.Result{}, err
	}
	if stop.Reason != emu.StopExit {
		return qta.Result{}, fmt.Errorf("flow: %s stopped with %v", w.Name, stop)
	}
	if stop.Code != w.Expect {
		return qta.Result{}, fmt.Errorf("flow: %s produced 0x%08x, want 0x%08x",
			w.Name, stop.Code, w.Expect)
	}
	name := w.Name
	if opt.Compress {
		name += "(rvc)"
	}
	return q.NewResult(name, p.Machine.Hart.Cycle, p.Machine.Hart.Instret), nil
}

// RunWith executes a workload with the given plugins attached and
// verifies the checksum. The caller owns the returned platform and
// releases it (vp.Platform.Release) when done with it.
func RunWith(w workloads.Workload, prof *timing.Profile, plugins ...plugin.Plugin) (*vp.Platform, emu.StopInfo, error) {
	p, err := vp.New(vp.Config{Profile: prof, Sensor: w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn})
	if err != nil {
		return nil, emu.StopInfo{}, err
	}
	for _, pl := range plugins {
		if err := p.Machine.Hooks.Register(pl); err != nil {
			p.Release()
			return nil, emu.StopInfo{}, err
		}
	}
	if _, err := p.LoadSource(vp.Prelude + w.Source); err != nil {
		p.Release()
		return nil, emu.StopInfo{}, err
	}
	stop := p.Run(w.Budget)
	if stop.Reason == emu.StopExit && stop.Code != w.Expect {
		return p, stop, fmt.Errorf("flow: %s produced 0x%08x, want 0x%08x",
			w.Name, stop.Code, w.Expect)
	}
	return p, stop, nil
}

// ParseBounds parses the tools' -bounds flag, "label=N,label=N,...",
// into loop bounds keyed by label; every N must be at least 1.
func ParseBounds(s string) (map[string]int, error) {
	out := map[string]int{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad bound %q (want label=N)", part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad bound count %q", kv[1])
		}
		out[strings.TrimSpace(kv[0])] = n
	}
	return out, nil
}
