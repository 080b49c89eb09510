package qta

import (
	"context"

	"repro/internal/emu"
	"repro/internal/vp"
	"repro/internal/wcet"
)

// CoSim is the cancellable QTA co-simulation entry point: it attaches a
// fresh analyzer over the annotated CFG to the platform's hook registry,
// executes the already-loaded guest under the context (vp.RunContext
// chunking, so cancellation and deadlines land promptly), and returns
// the analyzer for Finish/NewResult plus the stop condition. Every QTA
// run goes through it: the service's qta jobs and flow.RunQTA.
func CoSim(ctx context.Context, an *wcet.Annotated, p *vp.Platform, budget uint64) (*Analyzer, emu.StopInfo, error) {
	q := New(an)
	if err := p.Machine.Hooks.Register(q); err != nil {
		return nil, emu.StopInfo{}, err
	}
	stop, err := p.RunContext(ctx, budget)
	return q, stop, err
}
