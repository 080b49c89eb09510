// Package timing defines the cycle-cost models shared by the dynamic
// pipeline simulation in the emulator and the static WCET analysis. A
// Profile describes one core configuration: per-class base costs,
// control-flow penalties, the load-use interlock, and whether the
// multiplier/divider have operand-dependent (early-out) latency.
//
// The contract between the two consumers is the WCET soundness invariant:
// for every instruction, StaticCost is an upper bound of DynamicCost over
// all operand values, and the static analyzer additionally charges every
// block entry with the worst-case load-use stall so cross-block hazards
// can never make dynamic execution slower than the static bound.
package timing

import (
	"fmt"
	"math/bits"

	"repro/internal/decode"
	"repro/internal/isa"
)

// Profile is one core timing configuration.
type Profile struct {
	ProfileName string

	// Base cycle cost per instruction class, indexed by isa.Class.
	// Classes with zero entries default to 1 cycle.
	Class [isa.NumClasses]uint32

	// BranchTakenPenalty is the pipeline flush cost added when a
	// conditional branch is taken (static not-taken prediction).
	BranchTakenPenalty uint32

	// JumpPenalty is the refill cost of unconditional jumps (jal, jalr
	// and their compressed forms).
	JumpPenalty uint32

	// LoadUseStall is the interlock cost when an instruction consumes
	// the destination of the immediately preceding load.
	LoadUseStall uint32

	// TrapPenalty is the cost of entering or leaving a trap handler.
	TrapPenalty uint32

	// EarlyOutMulDiv enables operand-dependent latency for mul/div:
	// dynamic cost shrinks with the magnitude of the operands, while
	// the static bound stays at the full-width worst case. This is the
	// canonical source of WCET-vs-observed gap on small cores.
	EarlyOutMulDiv bool

	// Instruction cache model: when ICacheMissPenalty is non-zero the
	// emulator simulates a direct-mapped I-cache (ICacheLines lines of
	// ICacheLineBytes each) and charges the penalty per miss, while the
	// static analysis assumes every block's lines miss — the classic
	// cache pessimism of WCET analysis. Line size must be a power of
	// two and at least 4.
	ICacheLines       uint32
	ICacheLineBytes   uint32
	ICacheMissPenalty uint32
}

// HasICache reports whether the profile models an instruction cache.
func (p *Profile) HasICache() bool {
	return p.ICacheMissPenalty > 0 && p.ICacheLines > 0 && p.ICacheLineBytes >= 4
}

// Name returns the profile name.
func (p *Profile) Name() string { return p.ProfileName }

// base returns the base cost of a class (default 1).
func (p *Profile) base(c isa.Class) uint32 {
	if v := p.Class[c]; v != 0 {
		return v
	}
	return 1
}

// StaticCost returns the worst-case cycle cost of one instruction,
// excluding control-transfer penalties (those are charged to CFG edges)
// and load-use stalls (charged separately by block analysis).
func (p *Profile) StaticCost(in decode.Inst) uint32 {
	return p.base(in.Op.Class())
}

// DynamicCost returns the operand-aware cycle cost of one instruction
// for the dynamic pipeline model, again excluding transfer penalties and
// stalls. rs1v and rs2v are the source operand values.
func (p *Profile) DynamicCost(in decode.Inst, rs1v, rs2v uint32) uint32 {
	c := p.base(in.Op.Class())
	if !p.EarlyOutMulDiv {
		return c
	}
	switch in.Op.Class() {
	case isa.ClassMul:
		if c < 2 {
			return c
		}
		// Early-out multiplier: latency scales with the effective width
		// of the second operand, 1..base cycles.
		w := uint32(32 - bits.LeadingZeros32(rs2v))
		cost := 1 + w*(c-1)/32
		if cost > c {
			cost = c
		}
		return cost
	case isa.ClassDiv:
		if c < 3 {
			return c
		}
		// Radix-2 divider with early termination on small dividends.
		w := uint32(32 - bits.LeadingZeros32(rs1v))
		cost := 2 + w*(c-2)/32
		if cost > c {
			cost = c
		}
		return cost
	}
	return c
}

// TransferPenalty returns the pipeline penalty of a control transfer by
// the given instruction: taken reports whether a conditional branch was
// taken. Non-control-flow instructions cost nothing here.
func (p *Profile) TransferPenalty(op isa.Op, taken bool) uint32 {
	switch op.Class() {
	case isa.ClassBranch:
		if taken {
			return p.BranchTakenPenalty
		}
		return 0
	case isa.ClassJump:
		return p.JumpPenalty
	}
	return 0
}

func (p *Profile) String() string { return fmt.Sprintf("profile(%s)", p.ProfileName) }

// EdgeSmall models a small in-order 3-stage edge core: slow iterative
// multiplier and divider with early-out, modest branch penalty. This is
// the default demonstrator configuration.
func EdgeSmall() *Profile {
	return &Profile{
		ProfileName: "edge-small",
		Class: [isa.NumClasses]uint32{
			isa.ClassMul:     8,
			isa.ClassDiv:     33,
			isa.ClassLoad:    2,
			isa.ClassStore:   2,
			isa.ClassFPLoad:  2,
			isa.ClassFPStore: 2,
			isa.ClassFPALU:   4,
			isa.ClassFPMul:   5,
			isa.ClassFPDiv:   20,
			isa.ClassFPCmp:   2,
			isa.ClassFPCvt:   3,
			isa.ClassCSR:     3,
			isa.ClassSystem:  3,
			isa.ClassBMI:     1,
		},
		BranchTakenPenalty: 2,
		JumpPenalty:        2,
		LoadUseStall:       1,
		TrapPenalty:        4,
		EarlyOutMulDiv:     true,
	}
}

// EdgeFast models a 5-stage core with a pipelined single-cycle multiplier
// and forwarding: higher branch cost, cheap arithmetic.
func EdgeFast() *Profile {
	return &Profile{
		ProfileName: "edge-fast",
		Class: [isa.NumClasses]uint32{
			isa.ClassMul:     1,
			isa.ClassDiv:     16,
			isa.ClassLoad:    1,
			isa.ClassStore:   1,
			isa.ClassFPLoad:  1,
			isa.ClassFPStore: 1,
			isa.ClassFPALU:   2,
			isa.ClassFPMul:   2,
			isa.ClassFPDiv:   10,
			isa.ClassFPCmp:   1,
			isa.ClassFPCvt:   2,
			isa.ClassCSR:     2,
			isa.ClassSystem:  2,
			isa.ClassBMI:     1,
		},
		BranchTakenPenalty: 3,
		JumpPenalty:        1,
		LoadUseStall:       1,
		TrapPenalty:        5,
		EarlyOutMulDiv:     false,
	}
}

// Unit is the trivial 1-cycle-per-instruction model used when no
// microarchitectural timing is wanted (pure functional emulation).
func Unit() *Profile {
	return &Profile{ProfileName: "unit"}
}

// EdgeCache is the edge-small core with a modelled instruction cache
// (64 direct-mapped lines of 16 bytes, 3-cycle line refill). The static
// analysis must assume every line misses, so this profile demonstrates
// the classic cache-induced WCET pessimism while the dynamic model
// benefits from locality.
func EdgeCache() *Profile {
	p := EdgeSmall()
	p.ProfileName = "edge-cache"
	p.ICacheLines = 64
	p.ICacheLineBytes = 16
	p.ICacheMissPenalty = 3
	return p
}

// Profiles returns the built-in profiles by name.
func Profiles() map[string]*Profile {
	return map[string]*Profile{
		"edge-small": EdgeSmall(),
		"edge-fast":  EdgeFast(),
		"edge-cache": EdgeCache(),
		"unit":       Unit(),
	}
}
