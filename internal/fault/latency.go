package fault

// Interrupt-service latency observation for fault campaigns: a
// trap-watcher-only plugin (no per-instruction hooks, so mutants keep
// their translated-engine speed) that timestamps how long each
// interrupt was pending before its trap was taken. Campaigns over the
// interrupt demonstrators use it to surface faults that leave values
// intact but wreck the response time — LatencyViol.

import (
	"repro/internal/isa"
	"repro/internal/vp"
)

// latencyWatcher measures per-trap pending time on one platform. The
// assert instant is recovered from the interrupting device itself:
// mtimecmp for the timer, the DMA completion cycle or the PLIC test
// trigger for external lines. Sources without a defined assert instant
// (the UART's level line, pre-fed before reset) are skipped rather
// than guessed.
type latencyWatcher struct {
	p     *vp.Platform
	worst uint64 // longest observed pending-to-trap latency
}

func (l *latencyWatcher) Name() string { return "fault-latency" }

// OnTrap implements plugin.TrapWatcher.
func (l *latencyWatcher) OnTrap(cause, tval, pc uint32) {
	cycle := l.p.Machine.Hart.Cycle
	var lat uint64
	switch cause {
	case 1<<31 | isa.IntMachineTimer:
		cmp := l.p.Clint.Snapshot().Mtimecmp
		if cycle >= cmp {
			lat = cycle - cmp
		}
	case 1<<31 | isa.IntMachineExternal:
		// Attribute to the earliest still-pending line with a defined
		// assert cycle.
		const noAssert = ^uint64(0)
		at := uint64(noAssert)
		if l.p.DMA.IRQ() {
			at = l.p.DMA.AssertCycle()
		}
		if trig, ok := l.p.Plic.TriggerCycle(); ok && trig < at {
			at = trig
		}
		if at != noAssert && cycle >= at {
			lat = cycle - at
		}
	}
	if lat > l.worst {
		l.worst = lat
	}
}

// latencyOutcome folds an observed worst latency into a value-based
// classification: benign-looking runs that blew the budget become
// LatencyViol; runs that already failed keep their harder verdict.
func latencyOutcome(out Outcome, worst, budget uint64) Outcome {
	if budget == 0 || worst <= budget {
		return out
	}
	if out == Masked || out == SDC {
		return LatencyViol
	}
	return out
}
