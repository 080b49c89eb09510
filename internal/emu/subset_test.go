package emu_test

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/timing"
	"repro/internal/vp"
)

// The subset allowlist (Machine.SetSubset) must behave exactly like a
// hardware core that does not implement the instruction: executing an
// out-of-subset opcode raises an illegal-instruction exception (mcause
// 2, mtval = raw encoding, mepc/stop PC = the offending instruction).
// With no trap vector installed that stops the run with StopTrap — the
// documented convention shared by all engines, so a subset violation is
// distinguishable from a guest exit (StopExit carries the guest's
// exit code; StopTrap carries the cause).

const subsetTrapProg = `
	li   a0, 5
	li   a1, 7
bad:	mul  a2, a0, a1
	ebreak
`

// rv32iOnly builds the allowlist of every RV32I-config opcode — the
// program's mul is deliberately outside it.
func rv32iOnly() isa.OpSet {
	var s isa.OpSet
	for _, op := range isa.OpsIn(isa.RV32I) {
		s.Add(op)
	}
	return s
}

func runSubsetTrap(t *testing.T, engine emu.Engine, stepped bool) (emu.StopInfo, uint64, uint32) {
	t.Helper()
	p, err := vp.New(vp.Config{Profile: timing.Unit()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.LoadSource(vp.Prelude + subsetTrapProg)
	if err != nil {
		t.Fatal(err)
	}
	p.Machine.Engine = engine
	p.Machine.SetSubset(rv32iOnly())
	var stop emu.StopInfo
	if stepped {
		var s *emu.StopInfo
		for n := 0; n < 1000; n++ {
			if s = p.Machine.Step(); s != nil {
				break
			}
		}
		if s == nil {
			t.Fatal("stepped run did not stop")
		}
		stop = *s
	} else {
		stop = p.Run(1000)
	}
	return stop, p.Machine.Hart.Instret, prog.Symbols["bad"]
}

// TestSubsetTrapDeterministic proves the negative half of subset
// enforcement on every engine: the out-of-subset instruction traps, the
// trap is precise, and all three execution paths report the identical
// stop state.
func TestSubsetTrapDeterministic(t *testing.T) {
	type result struct {
		stop    emu.StopInfo
		instret uint64
	}
	var want *result
	for _, e := range []struct {
		name    string
		engine  emu.Engine
		stepped bool
	}{
		{"switch", emu.EngineSwitch, false},
		{"superblock", emu.EngineSuperblock, false},
		{"step", emu.EngineSuperblock, true},
	} {
		stop, instret, badPC := runSubsetTrap(t, e.engine, e.stepped)
		if stop.Reason != emu.StopTrap {
			t.Fatalf("%s: stop = %v, want unhandled trap", e.name, stop)
		}
		if stop.Cause != isa.ExcIllegalInst {
			t.Errorf("%s: cause = %d, want %d (illegal instruction)", e.name, stop.Cause, isa.ExcIllegalInst)
		}
		if stop.PC != badPC {
			t.Errorf("%s: trap PC = %#x, want %#x (the mul)", e.name, stop.PC, badPC)
		}
		got := result{stop, instret}
		if want == nil {
			want = &got
		} else if got != *want {
			t.Errorf("%s: stop state %+v differs from %+v", e.name, got, *want)
		}
		// Determinism: a second identical run must reproduce the state.
		stop2, instret2, _ := runSubsetTrap(t, e.engine, e.stepped)
		if stop2 != stop || instret2 != instret {
			t.Errorf("%s: rerun diverged: %+v/%d vs %+v/%d", e.name, stop2, instret2, stop, instret)
		}
	}
}

// TestSubsetTrapVectored: with a trap handler installed, the subset
// violation is delivered through mtvec like any architectural
// illegal-instruction exception — software can emulate or skip the
// instruction.
func TestSubsetTrapVectored(t *testing.T) {
	src := `
	la   t0, handler
	csrw mtvec, t0
	li   a0, 5
	mul  a1, a0, a0
	ebreak
handler:
	csrr t1, mepc
	addi t1, t1, 4
	csrw mepc, t1
	li   a1, 99
	mret
`
	for _, engine := range []emu.Engine{emu.EngineSuperblock, emu.EngineSwitch} {
		p, err := vp.New(vp.Config{Profile: timing.Unit()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.LoadSource(vp.Prelude + src); err != nil {
			t.Fatal(err)
		}
		p.Machine.Engine = engine
		p.Machine.SetSubset(rv32iOnly())
		stop := p.Run(1000)
		if stop.Reason != emu.StopExit && stop.Reason != emu.StopEbreak {
			t.Fatalf("engine %v: stop = %v, want clean stop via handler", engine, stop)
		}
		if got := p.Machine.Hart.X[isa.A1]; got != 99 {
			t.Errorf("engine %v: a1 = %d, want 99 (handler ran and skipped mul)", engine, got)
		}
		if p.Machine.Hart.Mcause != isa.ExcIllegalInst {
			t.Errorf("engine %v: mcause = %d, want %d", engine, p.Machine.Hart.Mcause, isa.ExcIllegalInst)
		}
	}
}

// TestSetSubsetAfterRun: installing a subset on a machine whose cache
// holds code compiled without it must take effect at once. After an
// unrestricted run (own translations, or blocks and traces adopted from
// a pool), a rewind and SetSubset, the next run traps on the first
// out-of-subset op on every engine, exactly as a fresh subset machine.
func TestSetSubsetAfterRun(t *testing.T) {
	const src = `
	li   a0, 5
	li   a1, 7
	li   t0, 100
bad:	mul  a2, a0, a1
	addi t0, t0, -1
	bnez t0, bad
	ebreak
`
	for _, engine := range emu.Engines() {
		for _, pooled := range []bool{false, true} {
			p, err := vp.New(vp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			prog, err := p.LoadSource(vp.Prelude + src)
			if err != nil {
				t.Fatal(err)
			}
			p.Machine.Engine = engine
			if pooled {
				p.Machine.AttachTBPool(buildPool(t, src))
			}
			base := p.Snapshot()
			if stop := p.Run(10_000); stop.Reason != emu.StopEbreak {
				t.Fatalf("%v pooled=%v: unrestricted run: %v", engine, pooled, stop)
			}
			if got := p.Machine.Hart.Reg(isa.A2); got != 35 {
				t.Fatalf("%v pooled=%v: a2 = %d, want 35", engine, pooled, got)
			}
			if pooled && p.Machine.Stats().PoolHits == 0 {
				t.Fatalf("%v: unrestricted run adopted nothing from the pool", engine)
			}

			p.RestoreReuse(base, prog)
			p.Machine.SetSubset(rv32iOnly())
			if p.Machine.TBPoolAttached() {
				t.Errorf("%v pooled=%v: pool built without the subset still attached", engine, pooled)
			}
			stop := p.Run(10_000)
			if stop.Reason != emu.StopTrap || stop.Cause != isa.ExcIllegalInst || stop.PC != prog.Symbols["bad"] {
				t.Errorf("%v pooled=%v: stop = %v, want illegal-instruction trap at the mul", engine, pooled, stop)
			}
			if got := p.Machine.Hart.Instret; got != 3 {
				t.Errorf("%v pooled=%v: instret = %d, want 3", engine, pooled, got)
			}
		}
	}
}
