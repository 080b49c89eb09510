package wcet

// Interrupt-response-time (IRT) analysis: the static bound on the
// latency from an interrupt-request assert to the completion of its
// service routine, the qualification quantity of the reactive edge
// demonstrators. The bound decomposes as
//
//	IRT = Blocking + Chain + TrapPenalty + HandlerWCET + MretPenalty
//
// where Blocking covers the worst case of the request arriving while
// interrupts are disabled (the longest mstatus.MIE-off region: either a
// software critical section or an in-flight handler), Chain covers the
// emulator's delivery granularity (interrupts are polled at translated-
// block boundaries, so up to one maximal straight-line block chain may
// retire between assert and poll — superblock traces preserve these
// poll points at former block boundaries), and the remaining terms are
// the trap entry cost, the longest path through the handler itself, and
// the return transfer. Each term is a worst case of an independent
// mechanism, so their sum dominates every interleaving; the qta IRT
// co-sim cross-checks the bound against measured latencies from
// adversarially timed interrupts.

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/decode"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/timing"
)

// IRTConfig parametrizes an interrupt-response-time analysis.
type IRTConfig struct {
	// Profile is the core timing model (required).
	Profile *timing.Profile

	// HandlerEntry is the address of the interrupt service routine (the
	// mtvec target). The handler must reach mret on every path.
	HandlerEntry uint32

	// Entry is the program entry; the main-flow CFG rooted here is
	// scanned for critical sections and block chains.
	Entry uint32

	// Bounds, InferBounds and Symbols parametrize the handler WCET
	// computation exactly as in Config.
	Bounds      map[string]int
	InferBounds bool
	Symbols     map[string]uint32
}

// IRTReport is the result of an IRT analysis: the bound and its terms.
type IRTReport struct {
	Bound       uint64 `json:"bound"`        // the static IRT bound
	Blocking    uint64 `json:"blocking"`     // worst interrupts-disabled wait
	CriticalMax uint64 `json:"critical_max"` // longest software critical section
	Chain       uint64 `json:"chain"`        // worst poll-granularity delay
	TrapCost    uint64 `json:"trap_cost"`    // trap entry penalty
	HandlerWCET uint64 `json:"handler_wcet"` // longest handler path (incl. mret)
	MretPenalty uint64 `json:"mret_penalty"` // return transfer cost

	Handler       *Annotated `json:"handler"`        // annotated handler CFG
	CriticalSites int        `json:"critical_sites"` // MIE-clearing sites found
}

// AnalyzeIRT computes the static interrupt-response-time bound for the
// program in image (loaded at base) with the given handler.
func AnalyzeIRT(image []byte, base uint32, conf IRTConfig) (*IRTReport, error) {
	if conf.Profile == nil {
		return nil, fmt.Errorf("wcet: timing profile required")
	}
	if conf.HandlerEntry == 0 {
		return nil, fmt.Errorf("wcet: handler entry required")
	}

	// Handler WCET: the handler is a function whose CFG closes at mret
	// (TermHalt), so the standard structural analysis bounds it.
	hg, err := cfg.Build(image, base, conf.HandlerEntry)
	if err != nil {
		return nil, fmt.Errorf("wcet: handler cfg: %w", err)
	}
	han, err := Analyze(hg, Config{
		Profile:     conf.Profile,
		Bounds:      conf.Bounds,
		InferBounds: conf.InferBounds,
		Symbols:     conf.Symbols,
	})
	if err != nil {
		return nil, fmt.Errorf("wcet: handler: %w", err)
	}

	// Main-flow CFG for the chain and blocking terms. The handler is
	// reachable only through mtvec, so scan both graphs.
	mg, err := cfg.Build(image, base, conf.Entry)
	if err != nil {
		return nil, fmt.Errorf("wcet: main cfg: %w", err)
	}
	graphs := []*cfg.Graph{mg, hg}

	var chain uint64
	for _, g := range graphs {
		if c := maxBlockChain(g, conf.Profile); c > chain {
			chain = c
		}
	}

	var critMax uint64
	var sites int
	for _, g := range graphs {
		c, n, err := maxCriticalSection(g, conf.Profile)
		if err != nil {
			return nil, err
		}
		sites += n
		if c > critMax {
			critMax = c
		}
	}

	r := &IRTReport{
		CriticalMax:   critMax,
		Chain:         chain,
		TrapCost:      uint64(conf.Profile.TrapPenalty),
		HandlerWCET:   han.WCET,
		MretPenalty:   uint64(conf.Profile.JumpPenalty),
		Handler:       han,
		CriticalSites: sites,
	}
	// A request arriving mid-handler waits for the rest of that
	// invocation (at most the full handler cost); one arriving inside a
	// critical section waits for the enable. The two regions cannot
	// nest — the handler runs with MIE hardware-cleared.
	handlerCost := r.TrapCost + r.HandlerWCET + r.MretPenalty
	r.Blocking = critMax
	if handlerCost > r.Blocking {
		r.Blocking = handlerCost
	}
	r.Bound = r.Blocking + r.Chain + handlerCost
	return r, nil
}

// maxBlockChain bounds the cycles the emulator can retire between two
// interrupt polls: polls happen when a translated block ends (control
// flow, serializing instruction, or the instruction cap), so the worst
// case is the costliest maximal fallthrough chain of CFG blocks, capped
// at the translation limit, plus the final transfer penalty.
func maxBlockChain(g *cfg.Graph, prof *timing.Profile) uint64 {
	maxPen := prof.BranchTakenPenalty
	if prof.JumpPenalty > maxPen {
		maxPen = prof.JumpPenalty
	}
	var best uint64
	for _, start := range g.Order {
		insts := 0
		var cost uint64
		for b := g.Blocks[start]; b != nil; {
			take := len(b.Insts)
			if insts+take > emu.MaxTBInsts {
				take = emu.MaxTBInsts - insts
			}
			cost += prof.BlockCost(b.Insts[:take])
			insts += take
			if insts >= emu.MaxTBInsts || b.Term != cfg.TermFall || len(b.Succs) == 0 {
				break
			}
			b = g.Blocks[b.Succs[0].Addr]
		}
		cost += uint64(maxPen)
		if cost > best {
			best = cost
		}
	}
	return best
}

// mstatus CSR-write classification for the blocking analysis.
func disablesMIE(in decode.Inst) bool {
	if in.CSR != isa.CSRMstatus {
		return false
	}
	switch in.Op {
	case isa.OpCSRRCI:
		return in.Imm&isa.MstatusMIE != 0
	case isa.OpCSRRC, isa.OpCSRRW, isa.OpCSRRWI:
		// Register-operand clears and whole-register writes may drop
		// MIE; treat them as openings conservatively (csrrwi with the
		// MIE bit set is an enable, handled first by enablesMIE).
		return !enablesMIE(in)
	}
	return false
}

func enablesMIE(in decode.Inst) bool {
	if in.Op == isa.OpMRET {
		// mret restores MIE from MPIE: the end of any handler-side
		// disabled region.
		return true
	}
	if in.CSR != isa.CSRMstatus {
		return false
	}
	switch in.Op {
	case isa.OpCSRRSI:
		return in.Imm&isa.MstatusMIE != 0
	case isa.OpCSRRWI:
		return in.Imm&isa.MstatusMIE != 0
	case isa.OpCSRRS:
		// Register-operand set: the demonstrator idiom is csrsi, but a
		// csrs from a register is still a plausible enable; treating it
		// as one is safe because the walk continues from *every*
		// disable site — an enable that doesn't actually set MIE just
		// means the real region extends to the next one, which is
		// covered by the later disable site's own walk only if MIE was
		// cleared again. To stay sound we do NOT treat csrrs as an
		// enable.
		return false
	}
	return false
}

// maxCriticalSection bounds the longest interrupts-disabled software
// region: from every MIE-clearing instruction, the costliest path to an
// MIE-setting instruction (or a halting block — after which no delivery
// is observable anyway). A cycle reachable while disabled makes the
// region unbounded and is an error.
func maxCriticalSection(g *cfg.Graph, prof *timing.Profile) (uint64, int, error) {
	type pos struct {
		block uint32
		idx   int
	}
	memo := map[pos]uint64{}
	onPath := map[pos]bool{}

	var walk func(p pos) (uint64, error)
	walk = func(p pos) (uint64, error) {
		if v, ok := memo[p]; ok {
			return v, nil
		}
		if onPath[p] {
			return 0, fmt.Errorf("wcet: interrupts-disabled region at 0x%08x contains a cycle (unbounded blocking)", p.block)
		}
		onPath[p] = true
		defer delete(onPath, p)

		b := g.Blocks[p.block]
		if b == nil || p.idx >= len(b.Insts) {
			return 0, nil
		}
		in := b.Insts[p.idx]
		cost := uint64(prof.StaticCost(in))
		if enablesMIE(in) {
			memo[p] = cost
			return cost, nil
		}
		var worst uint64
		if p.idx+1 < len(b.Insts) {
			w, err := walk(pos{p.block, p.idx + 1})
			if err != nil {
				return 0, err
			}
			worst = w
		} else if b.Term == cfg.TermHalt || b.Term == cfg.TermRet {
			// The region runs off the end of the program (or escapes
			// through an indirect jump): nothing left to delay.
			worst = 0
		} else {
			for _, s := range b.Succs {
				if g.Blocks[s.Addr] == nil {
					continue
				}
				w, err := walk(pos{s.Addr, 0})
				if err != nil {
					return 0, err
				}
				w += uint64(transferPenalty(prof, b, s.Kind))
				if w > worst {
					worst = w
				}
			}
		}
		total := cost + worst
		memo[p] = total
		return total, nil
	}

	var best uint64
	sites := 0
	for _, start := range g.Order {
		b := g.Blocks[start]
		for i, in := range b.Insts {
			if !disablesMIE(in) {
				continue
			}
			sites++
			w, err := walk(pos{start, i})
			if err != nil {
				return 0, sites, err
			}
			if w > best {
				best = w
			}
		}
	}
	return best, sites, nil
}
