// Package lint is the guest-binary linter of the ecosystem: a set of
// static checks over the reconstructed CFG, powered by the dataflow
// layer's interval and initialized-register analyses. It flags the bug
// classes a bare-metal RISC-V programmer actually hits on this platform:
// reads of never-written registers, unreachable code, dead register
// writes, accesses outside the memory map or misaligned, stores into the
// code image without a fence.i, and loops the WCET analysis will refuse.
package lint

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/decode"
	"repro/internal/isa"
	"repro/internal/subset"
)

// Severity grades how certain a finding is.
type Severity uint8

const (
	// Info marks style-grade findings (dead stores, writes to x0).
	Info Severity = iota
	// Possible marks findings that hold on some abstraction of the
	// program but may not occur on any real path.
	Possible
	// Definite marks findings proven on every concretization: a definite
	// finding on an executed path is a soundness bug in the linter.
	Definite
)

func (s Severity) String() string {
	switch s {
	case Definite:
		return "definite"
	case Possible:
		return "possible"
	}
	return "info"
}

// Finding is one diagnostic.
type Finding struct {
	Check    string // stable check identifier, e.g. "uninit-read"
	Severity Severity
	Addr     uint32 // instruction address (block start for block-level checks)
	Line     int    // 1-based source line, 0 if unknown
	Msg      string
}

func (f Finding) String() string {
	loc := fmt.Sprintf("0x%08x", f.Addr)
	if f.Line > 0 {
		loc += fmt.Sprintf(" (line %d)", f.Line)
	}
	return fmt.Sprintf("%s: %s: %s: %s", loc, f.Severity, f.Check, f.Msg)
}

// Region is one valid data-access range of the platform.
type Region struct {
	Base, Size uint32
	Name       string
}

// Config parametrizes a lint run.
type Config struct {
	// Regions lists the valid data-access ranges; empty disables the
	// out-of-map and misalignment checks' region reasoning.
	Regions []Region
	// CodeStart/CodeEnd delimit the loaded image for the self-modifying
	// store check (end exclusive; equal values disable the check).
	CodeStart, CodeEnd uint32
	// Bounds and Symbols resolve user-supplied loop bounds, as in
	// wcet.Config.
	Bounds  map[string]int
	Symbols map[string]uint32
	// EntryRegs gives registers with known values at program entry (the
	// loader points sp at the top of RAM); EntryInit the registers that
	// are defined at entry. x0 is always defined.
	EntryRegs map[isa.Reg]dataflow.Interval
	EntryInit []isa.Reg
}

// Graph lints a reconstructed CFG. lines maps instruction addresses to
// source lines (may be nil).
func Graph(g *cfg.Graph, lines map[uint32]int, conf Config) []Finding {
	l := &linter{g: g, lines: lines, conf: conf}
	l.run()
	sort.SliceStable(l.findings, func(i, j int) bool {
		if l.findings[i].Addr != l.findings[j].Addr {
			return l.findings[i].Addr < l.findings[j].Addr
		}
		return l.findings[i].Check < l.findings[j].Check
	})
	return l.findings
}

type linter struct {
	g        *cfg.Graph
	lines    map[uint32]int
	conf     Config
	findings []Finding
	// reachesFence holds the blocks from which a fence.i is reachable;
	// nil when the self-modifying store check is off.
	reachesFence map[uint32]bool
}

func (l *linter) add(check string, sev Severity, addr uint32, format string, args ...any) {
	l.findings = append(l.findings, Finding{
		Check:    check,
		Severity: sev,
		Addr:     addr,
		Line:     l.lines[addr],
		Msg:      fmt.Sprintf(format, args...),
	})
}

func (l *linter) run() {
	if l.conf.CodeEnd > l.conf.CodeStart {
		l.reachesFence = fenceReachers(l.g)
	}
	for i, entry := range subset.Functions(l.g) {
		l.checkFunction(entry, i == 0)
	}
	l.checkUnreachable()
}

// checkFunction runs the per-function dataflow-backed checks. isEntry
// selects the program-entry register assumptions; callees are analyzed
// with everything defined and unknown (their callers own the contract).
func (l *linter) checkFunction(entry uint32, isEntry bool) {
	ivEntry := dataflow.UnknownEntry()
	initEntry := dataflow.AllInit()
	if isEntry {
		for r, iv := range l.conf.EntryRegs {
			ivEntry[r] = iv
		}
		initEntry = dataflow.InitState{}
		for _, r := range l.conf.EntryInit {
			initEntry.May |= 1 << uint(r)
			initEntry.Must |= 1 << uint(r)
		}
	}
	ivs := dataflow.Solve(l.g, entry, dataflow.NewIntervalDomain(ivEntry))
	inits := dataflow.Solve(l.g, entry, dataflow.NewInitDomain(initEntry))

	var regs []isa.Reg
	for _, u := range ivs.Order {
		b := l.g.Blocks[u]
		ivState, okIv := ivs.In[u]
		initState, okInit := inits.In[u]
		for i, in := range b.Insts {
			pc := b.Addrs[i]
			if okInit {
				regs = in.ReadsRegs(regs[:0])
				for _, r := range regs {
					if !initState.MayInit(r) {
						l.add("uninit-read", Definite, pc,
							"%s reads %s, which is never written on any path from entry", in.Op, r)
					} else if !initState.MustInit(r) {
						l.add("uninit-read", Possible, pc,
							"%s reads %s, which is not written on some path from entry", in.Op, r)
					}
				}
				if rd, ok := in.WritesReg(); ok {
					initState.May |= 1 << uint(rd)
					initState.Must |= 1 << uint(rd)
				}
			}
			if okIv {
				l.checkAccess(pc, in, ivState)
				l.checkSelfModifyingStore(u, pc, in, ivState)
				dataflow.ApplyInst(&ivState, pc, in)
			}
			l.checkX0Write(pc, in)
		}
	}

	l.checkDeadStores(entry)
	l.checkLoopBounds(entry)
}

// accessWidth returns the access size in bytes of a load/store and
// whether in is one.
func accessWidth(in decode.Inst) (uint32, bool) {
	switch in.Op {
	case isa.OpLW, isa.OpSW, isa.OpFLW, isa.OpFSW,
		isa.OpCLW, isa.OpCSW, isa.OpCLWSP, isa.OpCSWSP:
		return 4, true
	case isa.OpLH, isa.OpLHU, isa.OpSH:
		return 2, true
	case isa.OpLB, isa.OpLBU, isa.OpSB:
		return 1, true
	}
	return 0, false
}

// checkAccess flags statically out-of-map and misaligned accesses.
func (l *linter) checkAccess(pc uint32, in decode.Inst, s dataflow.IntervalState) {
	width, ok := accessWidth(in)
	if !ok {
		return
	}
	addrIv := s.Get(in.Rs1).AddConst(int64(in.Imm))
	if a, ok := addrIv.Singleton(); ok && width > 1 && a%width != 0 {
		l.add("misaligned", Definite, pc,
			"%s accesses 0x%08x, not %d-byte aligned", in.Op, a, width)
	}
	if len(l.conf.Regions) == 0 {
		return
	}
	ranges, ok := addrIv.U32Ranges()
	if !ok {
		return // unbounded address: nothing provable
	}
	anyInside := false
	allInside := true
	for _, r := range ranges {
		// The access covers [lo, hi+width-1].
		in1, all1 := rangeVsRegions(r[0], uint64(r[1])+uint64(width)-1, l.conf.Regions)
		anyInside = anyInside || in1
		allInside = allInside && all1
	}
	if !anyInside {
		l.add("oob-access", Definite, pc,
			"%s address %s is outside every mapped region", in.Op, addrIv)
	} else if !allInside {
		l.add("oob-access", Possible, pc,
			"%s address %s may fall outside the mapped regions", in.Op, addrIv)
	}
}

// rangeVsRegions reports whether [lo, last] intersects any region, and
// whether it is fully contained in a single region.
func rangeVsRegions(lo uint32, last uint64, regions []Region) (intersects, contained bool) {
	for _, reg := range regions {
		rLast := uint64(reg.Base) + uint64(reg.Size) - 1
		if last >= uint64(reg.Base) && uint64(lo) <= rLast {
			intersects = true
			if uint64(lo) >= uint64(reg.Base) && last <= rLast {
				contained = true
			}
		}
	}
	return intersects, contained
}

// checkX0Write flags computations whose result is discarded into x0.
func (l *linter) checkX0Write(pc uint32, in decode.Inst) {
	if !in.Valid() || in.Rd != isa.Zero {
		return
	}
	switch in.Op.Class() {
	case isa.ClassALU, isa.ClassShift, isa.ClassMul, isa.ClassDiv,
		isa.ClassBMI, isa.ClassLoad:
	default:
		return
	}
	fd, _, _ := isa.UsesFPRegs(in.Op)
	if fd {
		return
	}
	// The canonical nop encoding (addi x0, x0, 0) and compressed hints
	// are deliberate.
	if (in.Op == isa.OpADDI && in.Rs1 == isa.Zero && in.Imm == 0) ||
		in.Op == isa.OpCNOP {
		return
	}
	// Stores and branches reuse the field differently; their formats have
	// no rd. Formats were filtered by class above.
	l.add("x0-write", Info, pc, "%s discards its result into x0", in.Op)
}

// checkLoopBounds flags loops with neither a user-supplied bound nor an
// inferable one.
func (l *linter) checkLoopBounds(entry uint32) {
	loops, err := l.g.NaturalLoops(entry)
	if err != nil {
		l.add("unbounded-loop", Possible, entry, "irreducible control flow: %v", err)
		return
	}
	if len(loops) == 0 {
		return
	}
	inferred := dataflow.InferLoopBounds(l.g, entry, loops)
	bounded := map[uint32]bool{}
	for label, b := range l.conf.Bounds {
		if addr, ok := l.conf.Symbols[label]; ok && b >= 1 {
			bounded[addr] = true
		}
	}
	for _, lp := range loops {
		if bounded[lp.Head] {
			continue
		}
		if _, ok := inferred[lp.Head]; ok {
			continue
		}
		l.add("unbounded-loop", Possible, lp.Head,
			"loop has no user-supplied bound and none could be inferred")
	}
}

// checkUnreachable flags assembled instructions that no reachable block
// covers. When the program contains indirect jumps or calls with
// statically unknown targets, or installs a trap vector, the finding is
// demoted to possible (the CFG may simply not see the path).
func (l *linter) checkUnreachable() {
	if len(l.lines) == 0 {
		return
	}
	sev := Definite
	for _, u := range l.g.Order {
		b := l.g.Blocks[u]
		last := b.Insts[len(b.Insts)-1]
		switch {
		case b.Term == cfg.TermRet && last.Rs1 != isa.RA:
			sev = Possible // computed goto, not a return
		case b.Term == cfg.TermCall && b.CallTarget == 0 && len(b.CallTargets) == 0:
			sev = Possible // indirect call with no proven targets
		}
		for _, in := range b.Insts {
			if in.CSR == isa.CSRMtvec && in.Op.Class() == isa.ClassCSR {
				sev = Possible // a trap handler is reachable via traps
			}
		}
	}
	addrs := make([]uint32, 0, len(l.lines))
	for a := range l.lines {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		if _, ok := l.g.BlockAt(a); !ok {
			l.add("unreachable", sev, a, "instruction is not reachable from the entry point")
		}
	}
}

// fenceReachers returns the blocks from which a fence.i is reachable,
// following fallthrough, branch, jump and call edges: a backward search
// from the blocks that hold one.
func fenceReachers(g *cfg.Graph) map[uint32]bool {
	preds := map[uint32][]uint32{}
	reach := map[uint32]bool{}
	var work []uint32
	for _, u := range g.Order {
		b := g.Blocks[u]
		for _, s := range b.Succs {
			preds[s.Addr] = append(preds[s.Addr], u)
		}
		if b.Term == cfg.TermCall {
			if b.CallTarget != 0 {
				preds[b.CallTarget] = append(preds[b.CallTarget], u)
			}
			for _, c := range b.CallTargets {
				preds[c] = append(preds[c], u)
			}
		}
		for _, in := range b.Insts {
			if in.Op == isa.OpFENCEI && !reach[u] {
				reach[u] = true
				work = append(work, u)
			}
		}
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range preds[u] {
			if !reach[p] {
				reach[p] = true
				work = append(work, p)
			}
		}
	}
	return reach
}

// checkSelfModifyingStore flags a store in block u whose address range
// overlaps the code image with no fence.i on any forward path: the
// emulator's TB invalidation handles this dynamically, but on real
// silicon the stale-icache hazard is a bug unless followed by fence.i.
func (l *linter) checkSelfModifyingStore(u, pc uint32, in decode.Inst, s dataflow.IntervalState) {
	if l.reachesFence == nil || l.reachesFence[u] {
		return
	}
	cls := in.Op.Class()
	width, isAcc := accessWidth(in)
	if !isAcc || (cls != isa.ClassStore && cls != isa.ClassFPStore) {
		return
	}
	addrIv := s.Get(in.Rs1).AddConst(int64(in.Imm))
	ranges, bounded := addrIv.U32Ranges()
	if !bounded {
		return
	}
	for _, r := range ranges {
		if uint64(r[1])+uint64(width) > uint64(l.conf.CodeStart) && r[0] < l.conf.CodeEnd {
			l.add("selfmod-store", Possible, pc,
				"%s may write the code image (%s) with no fence.i on any following path", in.Op, addrIv)
			return
		}
	}
}
