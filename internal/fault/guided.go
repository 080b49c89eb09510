package fault

import (
	"repro/internal/cover"
	"repro/internal/decode"
	"repro/internal/emu"
	"repro/internal/isa"
)

// extent records the address range of executed instructions.
type extent struct {
	lo, hi uint32
}

func (e *extent) Name() string { return "fault-extent" }

func (e *extent) OnInsnExec(pc uint32, in decode.Inst) {
	if pc < e.lo {
		e.lo = pc
	}
	if end := pc + uint32(in.Size); end > e.hi {
		e.hi = end
	}
}

// GuidedPlanConfig derives a coverage-guided fault plan from an
// instrumented golden run, the MBMV'20 flow: register faults target only
// registers the binary actually accesses, and code faults target only
// instructions that actually execute — dedicated mutant sets instead of
// blind sampling. The golden run is Prepare's, with the coverage and
// extent plugins registered, and its golden and pool are returned for
// Options.Golden/Options.Pool, so a guided campaign runs one golden. The
// plugins keep that run on the interpreter, so the pool holds blocks but
// no traces.
func GuidedPlanConfig(t *Target, seed int64, perModel int) (PlanConfig, *Golden, *emu.TBPool, error) {
	cov := cover.New(isa.RV32Full)
	ext := &extent{lo: ^uint32(0)}
	golden, pool, err := prepare(t, cov, ext)
	if err != nil {
		return PlanConfig{}, nil, nil, err
	}

	var used []isa.Reg
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if cov.GPR[r] > 0 {
			used = append(used, r)
		}
	}

	imageEnd := t.Program.Org + uint32(len(t.Program.Bytes))
	cfg := PlanConfig{
		Seed:         seed,
		GPRTransient: perModel,
		GPRPermanent: perModel / 2,
		MemPermanent: perModel / 2,
		CodeBitflip:  perModel,
		GoldenInsts:  golden.Insts,
		CodeStart:    ext.lo,
		CodeEnd:      ext.hi,
		DataStart:    ext.hi,
		DataEnd:      imageEnd,
		UsedRegs:     used,
	}
	if cfg.DataStart >= cfg.DataEnd {
		// No trailing data section: fall back to the whole image.
		cfg.DataStart, cfg.DataEnd = t.Program.Org, imageEnd
		cfg.MemPermanent = 0
	}
	return cfg, golden, pool, nil
}
