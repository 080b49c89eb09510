package emu_test

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// Tests for the superblock trace engine beyond the bit-exactness
// differential: trace formation actually happens on real workloads (the
// engine must not silently degrade into block-at-a-time execution),
// stores into an active trace sever it precisely, and the pool's
// frozen-superblock tier warm-starts attached machines.

func runSuperblockWorkload(t *testing.T, name string) *vp.Platform {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %q not found", name)
	}
	p, err := vp.New(vp.Config{Sensor: w.Sensor})
	if err != nil {
		t.Fatalf("vp.New: %v", err)
	}
	if _, err := p.LoadSource(vp.Prelude + w.Source); err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	p.Machine.Engine = emu.EngineSuperblock
	if stop := p.Run(w.Budget); stop.Reason != emu.StopExit || stop.Code != w.Expect {
		t.Fatalf("%s stop = %v, want exit(%d)", name, stop, w.Expect)
	}
	return p
}

// TestSuperblockTraceFormation is the guard against silent degradation:
// on the hot-loop bench workloads the engine must form traces and run
// them mostly to completion (side-exit rate under 50% on xtea).
func TestSuperblockTraceFormation(t *testing.T) {
	p := runSuperblockWorkload(t, "xtea")
	es := p.Machine.Stats()
	if es.TracesFormed == 0 {
		t.Fatal("no traces formed on xtea")
	}
	if es.TraceRuns == 0 {
		t.Fatal("traces formed but never retired")
	}
	if rate := es.TraceSideExitRate(); rate >= 0.5 {
		t.Errorf("side-exit rate = %.2f (runs=%d exits=%d), want < 0.5",
			rate, es.TraceRuns, es.TraceSideExits)
	}
	if es.AvgTraceBlocks() < 1 {
		t.Errorf("avg trace blocks = %.2f, want >= 1", es.AvgTraceBlocks())
	}
}

// selfmodTraceProg runs a three-block loop hot enough to be fused, then
// patches an instruction in the loop's middle block and keeps looping.
// s3 accumulates across both phases, so a stale (unsevered) trace that
// kept executing the old instruction would change the final register
// state.
const selfmodTraceProg = `
	la t0, patch
	la t1, alt
	lw t2, 0(t1)
	li s1, 0
	li s2, 300
	li s3, 0
	li t3, 150
loop:
	addi s1, s1, 1
	beq s1, t3, dopatch
back:
	xor s3, s3, s1
patch:
	addi s3, s3, 1
	blt s1, s2, loop
	mv a0, s3
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
dopatch:
	sw t2, 0(t0)
	fence.i
	j back
alt:
	addi s3, s3, 7
`

// TestSuperblockSelfmodSeversTrace proves a store into the middle of an
// active superblock severs the trace and the patched path re-executes
// bit-identically to the switch interpreter — with and without a shared
// pool attached.
func TestSuperblockSelfmodSeversTrace(t *testing.T) {
	run := func(t *testing.T, engine emu.Engine, pool *emu.TBPool) (*vp.Platform, emu.StopInfo) {
		t.Helper()
		p, err := vp.New(vp.Config{})
		if err != nil {
			t.Fatalf("vp.New: %v", err)
		}
		if _, err := p.LoadSource(vp.Prelude + selfmodTraceProg); err != nil {
			t.Fatalf("load: %v", err)
		}
		p.Machine.Engine = engine
		if pool != nil {
			p.Machine.AttachTBPool(pool)
		}
		return p, p.Run(20_000)
	}

	ref, refStop := run(t, emu.EngineSwitch, nil)

	// A donor superblock run provides a pool with a frozen-trace tier;
	// traces over the patched range must not be published (the donor's
	// store watermark covers them) or must be rejected at adoption.
	donor, _ := run(t, emu.EngineSuperblock, nil)
	pool := donor.Machine.BuildTBPool()

	for _, tc := range []struct {
		name string
		pool *emu.TBPool
	}{
		{"pool-off", nil},
		{"pool-on", pool},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, stop := run(t, emu.EngineSuperblock, tc.pool)
			if stop != refStop {
				t.Errorf("stop = %v, want %v", stop, refStop)
			}
			h, rh := &p.Machine.Hart, &ref.Machine.Hart
			if h.X != rh.X || h.Instret != rh.Instret || h.Cycle != rh.Cycle {
				t.Errorf("state diverged: instret %d/%d cycle %d/%d x %v vs %v",
					h.Instret, rh.Instret, h.Cycle, rh.Cycle, h.X, rh.X)
			}
			es := p.Machine.Stats()
			if es.TracesFormed == 0 {
				t.Error("loop never fused into a trace")
			}
			if es.TracesInvalidated == 0 {
				t.Error("patch store severed no trace")
			}
		})
	}
}

// TestTBPoolFreezesTraces proves the frozen-superblock tier: traces a
// golden superblock run formed are published by BuildTBPool and adopted
// by an attached machine instead of being re-profiled.
func TestTBPoolFreezesTraces(t *testing.T) {
	w, ok := workloads.ByName("xtea")
	if !ok {
		t.Fatal("workload xtea not found")
	}
	newP := func() *vp.Platform {
		p, err := vp.New(vp.Config{Sensor: w.Sensor})
		if err != nil {
			t.Fatalf("vp.New: %v", err)
		}
		if _, err := p.LoadSource(vp.Prelude + w.Source); err != nil {
			t.Fatalf("load: %v", err)
		}
		p.Machine.Engine = emu.EngineSuperblock
		return p
	}

	donor := newP()
	if stop := donor.Run(w.Budget); stop.Reason != emu.StopExit {
		t.Fatalf("donor stop = %v", stop)
	}
	pool := donor.Machine.BuildTBPool()
	if pool.Traces() == 0 {
		t.Fatal("pool has no frozen traces")
	}

	adopter := newP()
	adopter.Machine.AttachTBPool(pool)
	if stop := adopter.Run(w.Budget); stop.Reason != emu.StopExit {
		t.Fatalf("adopter stop = %v", stop)
	}
	es := adopter.Machine.Stats()
	if es.TracePoolHits == 0 {
		t.Error("no traces adopted from the pool")
	}
	if donor.Machine.Hart.Cycle != adopter.Machine.Hart.Cycle ||
		donor.Machine.Hart.Instret != adopter.Machine.Hart.Instret {
		t.Errorf("adopter diverged: instret %d/%d cycle %d/%d",
			adopter.Machine.Hart.Instret, donor.Machine.Hart.Instret,
			adopter.Machine.Hart.Cycle, donor.Machine.Hart.Cycle)
	}
}
