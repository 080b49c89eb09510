package qta

// Interrupt-response-time co-simulation: the measurement side of the
// IRT qualification flow. The static side (wcet.AnalyzeIRT) derives a
// bound from the program alone; this side attacks the same program with
// interrupts asserted at adversarially chosen cycles — via the PLIC's
// host-armed test-trigger line — and measures each response from assert
// to handler completion. A sound bound dominates every measurement; the
// ratio between them is the pessimism the E13 experiment tabulates.

import (
	"context"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/decode"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/vp"
)

// IRTMeter is the latency-measurement plugin: it watches for the first
// external-interrupt trap taken at or after the trigger's assert cycle
// — that invocation's claim drain is the one that services the trigger,
// even when a different line caused the entry — and timestamps the
// first instruction after the handler's mret, when every cycle of the
// response has been paid. A trigger claimed opportunistically by an
// invocation already in flight when it asserted leaves no trap to arm
// on; such samples report undelivered and are skipped, never
// mis-measured.
type IRTMeter struct {
	hart    *cpu.Hart
	trigger uint64

	inHandler bool
	sawMret   bool

	// Delivered reports whether a full assert-to-completion response
	// was observed; Done is the cycle the handler completed at.
	Delivered bool
	Done      uint64
	// Entry is the cycle the trap was taken at (pre-entry-penalty).
	Entry uint64
}

// NewIRTMeter builds a meter reading time from the given hart, for an
// interrupt asserted at the trigger cycle.
func NewIRTMeter(h *cpu.Hart, trigger uint64) *IRTMeter {
	return &IRTMeter{hart: h, trigger: trigger}
}

// Name implements plugin.Plugin.
func (m *IRTMeter) Name() string { return "irt-meter" }

// OnTrap implements plugin.TrapWatcher.
func (m *IRTMeter) OnTrap(cause, tval, pc uint32) {
	if m.Delivered || m.inHandler || m.hart.Cycle < m.trigger {
		return
	}
	if cause == 1<<31|isa.IntMachineExternal {
		m.inHandler = true
		m.Entry = m.hart.Cycle
	}
}

// OnInsnExec implements plugin.InsnExecer. The hook runs before each
// instruction executes, so the instruction after mret sees the cycle
// counter with the whole handler (and the mret transfer) charged.
func (m *IRTMeter) OnInsnExec(pc uint32, in decode.Inst) {
	if m.sawMret {
		m.sawMret = false
		m.inHandler = false
		m.Delivered = true
		m.Done = m.hart.Cycle
		return
	}
	if m.inHandler && in.Op == isa.OpMRET {
		// MIE is hardware-cleared in the handler, so the first mret
		// after entry is the handler's own return.
		m.sawMret = true
	}
}

// IRTObservation is one adversarial sample.
type IRTObservation struct {
	Trigger uint64 `json:"trigger"` // cycle the IRQ was asserted at
	Latency uint64 `json:"latency"` // assert to handler completion
}

// IRTMeasurement aggregates an adversarial campaign.
type IRTMeasurement struct {
	GoldenCycles uint64           `json:"golden_cycles"` // undisturbed run length
	Samples      int              `json:"samples"`       // trigger points attempted
	Delivered    int              `json:"delivered"`     // full responses observed
	Skipped      int              `json:"skipped"`       // trigger never completed (program exited first)
	Mismatches   int              `json:"mismatches"`    // perturbed runs with a wrong checksum
	MaxLatency   uint64           `json:"max_latency"`
	MaxTrigger   uint64           `json:"max_trigger"` // the point achieving MaxLatency
	Observations []IRTObservation `json:"observations"`
}

// MeasureIRT runs the adversarial campaign: a golden run fixes the
// program's cycle span and checksum, then `samples` deterministic
// trigger points — stratified over the span, jittered by an LCG on
// seed — each get a fresh platform with the test line armed at that
// exact cycle. build must return a freshly loaded platform; expect is
// the checksum the program must still produce under perturbation.
func MeasureIRT(ctx context.Context, build func() (*vp.Platform, error),
	budget uint64, expect uint32, samples int, seed uint64) (*IRTMeasurement, error) {

	golden, err := build()
	if err != nil {
		return nil, err
	}
	stop, err := golden.RunContext(ctx, budget)
	res := &IRTMeasurement{
		GoldenCycles: golden.Machine.Hart.Cycle,
		Samples:      samples,
	}
	golden.Release()
	if err != nil {
		return nil, err
	}
	if stop.Reason != emu.StopExit {
		return nil, fmt.Errorf("qta: irt golden run stopped with %v", stop)
	}
	if stop.Code != expect {
		return nil, fmt.Errorf("qta: irt golden run produced 0x%08x, want 0x%08x",
			stop.Code, expect)
	}
	if samples <= 0 {
		return res, nil
	}

	span := res.GoldenCycles
	stratum := span / uint64(samples)
	if stratum == 0 {
		stratum = 1
	}
	x := seed*6364136223846793005 + 1442695040888963407
	for i := 0; i < samples; i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		x = x*6364136223846793005 + 1442695040888963407
		at := uint64(i) * stratum
		if at >= span {
			at = span - 1
		}
		at += (x >> 33) % stratum

		p, err := build()
		if err != nil {
			return nil, err
		}
		meter := NewIRTMeter(&p.Machine.Hart, at)
		if err := p.Machine.Hooks.Register(meter); err != nil {
			return nil, err
		}
		p.Plic.TriggerAt(at)
		pstop, err := p.RunContext(ctx, budget)
		p.Release()
		if err != nil {
			return res, err
		}
		if pstop.Reason == emu.StopExit && pstop.Code != expect {
			res.Mismatches++
		}
		if !meter.Delivered {
			// The program retired (or ran out of budget) before the
			// trigger's response completed: no latency to qualify.
			res.Skipped++
			continue
		}
		res.Delivered++
		lat := meter.Done - at
		res.Observations = append(res.Observations, IRTObservation{Trigger: at, Latency: lat})
		if lat > res.MaxLatency {
			res.MaxLatency, res.MaxTrigger = lat, at
		}
	}
	return res, nil
}
