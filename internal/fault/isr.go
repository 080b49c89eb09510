package fault

// ISR-targeted fault planning: campaigns over reactive firmware want
// their injections concentrated where a fault is most dangerous — the
// interrupt service routine's code and the stack frame it spills the
// interrupted context into — rather than diluted over the whole image.

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/vp"
)

// StackTop returns the initial stack pointer of the target's platform
// (the top of its RAM), the anchor for ISR stack-frame fault windows.
func (t *Target) StackTop() uint32 {
	return vp.RAMBase + t.ramSize()
}

// ISRRegion computes the code range [start, end) covered by the
// interrupt handler rooted at the given symbol: every block reachable
// from the handler entry, which for the demonstrators is the ISR body
// through its mret.
func ISRRegion(prog *asm.Program, handler string) (uint32, uint32, error) {
	entry, ok := prog.Symbols[handler]
	if !ok {
		return 0, 0, fmt.Errorf("fault: handler symbol %q not found", handler)
	}
	g, err := cfg.Build(prog.Bytes, prog.Org, entry)
	if err != nil {
		return 0, 0, fmt.Errorf("fault: handler cfg: %w", err)
	}
	start, end := entry, entry
	for _, addr := range g.Order {
		b := g.Blocks[addr]
		if b == nil {
			continue
		}
		if addr < start {
			start = addr
		}
		if b.End() > end {
			end = b.End()
		}
	}
	if end <= start {
		return 0, 0, fmt.Errorf("fault: empty handler region at 0x%08x", entry)
	}
	return start, end, nil
}

// ISRPlanConfig controls ISR-targeted fault-list generation. Counts and
// seed mirror PlanConfig; the injection regions are derived from the
// handler instead of being given.
type ISRPlanConfig struct {
	Seed                                                  int64
	GPRTransient, GPRPermanent, MemPermanent, CodeBitflip int
	// GoldenInsts bounds transient triggers, as in PlanConfig.
	GoldenInsts uint64
	// StackTop anchors the stack-frame window; use Target.StackTop().
	StackTop uint32
	// StackBytes is the window below StackTop covering the ISR's spill
	// frame and the interrupted context (default 64). It must be a
	// multiple of 4: memory faults flip bits of whole words in it.
	StackBytes uint32
}

// NewISRPlan generates a deterministic fault list concentrated on the
// handler's code range and the ISR stack frame. Code bit flips land
// only in handler instructions; memory faults land only in the stack
// window the handler spills into.
func NewISRPlan(prog *asm.Program, handler string, conf ISRPlanConfig) (Plan, error) {
	start, end, err := ISRRegion(prog, handler)
	if err != nil {
		return Plan{}, err
	}
	stackBytes := conf.StackBytes
	if stackBytes == 0 {
		stackBytes = 64
	}
	if stackBytes%4 != 0 {
		return Plan{}, fmt.Errorf("fault: ISR stack window of %d bytes is not a whole number of words", stackBytes)
	}
	if conf.StackTop == 0 {
		return Plan{}, fmt.Errorf("fault: ISR plan needs StackTop (use Target.StackTop)")
	}
	return NewPlan(PlanConfig{
		Seed:         conf.Seed,
		GPRTransient: conf.GPRTransient,
		GPRPermanent: conf.GPRPermanent,
		MemPermanent: conf.MemPermanent,
		CodeBitflip:  conf.CodeBitflip,
		GoldenInsts:  conf.GoldenInsts,
		CodeStart:    start,
		CodeEnd:      end,
		DataStart:    conf.StackTop - stackBytes,
		DataEnd:      conf.StackTop,
	}), nil
}
