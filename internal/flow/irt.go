package flow

// The IRT qualification flow: static interrupt-response-time bound
// (wcet.AnalyzeIRT) cross-checked against the adversarial co-sim
// (qta.MeasureIRT) for one interrupt-driven workload. The s4e-qta -irq
// mode, the serve "irt" job and the E13 experiment are wrappers over
// RunIRT.

import (
	"context"
	"fmt"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/qta"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/wcet"
	"repro/internal/workloads"
)

// IRTResult pairs the static bound with the measured campaign.
type IRTResult struct {
	Name     string              `json:"name"`
	Static   *wcet.IRTReport     `json:"static"`
	Measured *qta.IRTMeasurement `json:"measured"`
	// Sound reports whether the bound dominated every observation.
	Sound bool `json:"sound"`
	// Ratio is Bound / MaxLatency, the pessimism factor (0 when no
	// response was observed).
	Ratio float64 `json:"ratio"`
}

// IRTConfig parametrizes an IRT qualification run.
type IRTConfig struct {
	Engine  emu.Engine // execution engine for the co-sim
	Samples int        // adversarial trigger points (default 32)
	Seed    uint64     // trigger-jitter seed
}

// RunIRT qualifies one interrupt-driven workload: assemble, derive the
// static IRT bound from the handler and main-flow CFGs, then attack the
// program with adversarially timed interrupts and compare.
func RunIRT(ctx context.Context, w workloads.Workload, prof *timing.Profile, conf IRTConfig) (*IRTResult, error) {
	if w.Handler == "" {
		return nil, fmt.Errorf("flow: %s: not an interrupt workload (no handler symbol)", w.Name)
	}
	if conf.Samples == 0 {
		conf.Samples = 32
	}
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		return nil, fmt.Errorf("flow: %s: %w", w.Name, err)
	}
	hentry, ok := prog.Symbols[w.Handler]
	if !ok {
		return nil, fmt.Errorf("flow: %s: handler symbol %q not found", w.Name, w.Handler)
	}
	rep, err := wcet.AnalyzeIRT(prog.Bytes, prog.Org, wcet.IRTConfig{
		Profile:      prof,
		HandlerEntry: hentry,
		Entry:        prog.Entry,
		Bounds:       w.LoopBounds,
		Symbols:      prog.Symbols,
	})
	if err != nil {
		return nil, fmt.Errorf("flow: %s: %w", w.Name, err)
	}

	p, err := vp.New(vp.Config{
		Profile: prof,
		Sensor:  w.Sensor,
		Stream:  w.Stream,
		UARTIn:  w.UARTIn,
	})
	if err != nil {
		return nil, fmt.Errorf("flow: %s: %w", w.Name, err)
	}
	defer p.Release()
	if err := p.LoadProgram(prog); err != nil {
		return nil, fmt.Errorf("flow: %s: %w", w.Name, err)
	}
	p.Machine.Engine = conf.Engine
	meas, err := qta.MeasureIRT(ctx, p, w.Budget, w.Expect, conf.Samples, conf.Seed)
	if err != nil {
		return nil, fmt.Errorf("flow: %s: %w", w.Name, err)
	}

	res := &IRTResult{Name: w.Name, Static: rep, Measured: meas}
	res.Sound = rep.Bound >= meas.MaxLatency
	if meas.MaxLatency > 0 {
		res.Ratio = float64(rep.Bound) / float64(meas.MaxLatency)
	}
	return res, nil
}
