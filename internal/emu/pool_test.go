package emu_test

import (
	"sync"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/timing"
	"repro/internal/vp"
)

// poolProg is a small loop with several basic blocks, so a pool built
// from it holds more than one block.
const poolProg = `
	li a1, 50
	li a0, 0
loop:
	add a0, a0, a1
	addi a1, a1, -1
	bnez a1, loop
	ebreak
`

// poolPlatform builds a loaded platform without running it; the pool (if
// any) must be attached after the load, since Reset detaches it.
func poolPlatform(t *testing.T, src string) *vp.Platform {
	t.Helper()
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadSource(vp.Prelude + src); err != nil {
		t.Fatal(err)
	}
	return p
}

// buildPool runs src on a donor platform and freezes its translations.
func buildPool(t *testing.T, src string) *emu.TBPool {
	t.Helper()
	donor := poolPlatform(t, src)
	if stop := donor.Run(1_000_000); stop.Reason != emu.StopEbreak {
		t.Fatalf("donor run: %v", stop)
	}
	pool := donor.Machine.BuildTBPool()
	if pool.Size() == 0 {
		t.Fatal("donor produced an empty pool")
	}
	return pool
}

// TestTBPoolAdoption: a machine attached to a pool covering its whole
// working set executes correctly without compiling a single block.
func TestTBPoolAdoption(t *testing.T) {
	pool := buildPool(t, poolProg)

	p := poolPlatform(t, poolProg)
	p.Machine.AttachTBPool(pool)
	if !p.Machine.TBPoolAttached() {
		t.Fatal("pool not attached")
	}
	if stop := p.Run(1_000_000); stop.Reason != emu.StopEbreak {
		t.Fatalf("consumer run: %v", stop)
	}
	if got := p.Machine.Hart.Reg(isa.A0); got != 1275 {
		t.Errorf("a0 = %d, want 1275", got)
	}
	st := p.Machine.Stats()
	if st.TBsCompiled != 0 {
		t.Errorf("consumer compiled %d blocks, want 0 (all adopted)", st.TBsCompiled)
	}
	if st.PoolHits == 0 {
		t.Error("no pool hits recorded")
	}
	if st.PoolHits != uint64(p.Machine.CachedBlocks()) {
		t.Errorf("pool hits %d != cached blocks %d", st.PoolHits, p.Machine.CachedBlocks())
	}
}

// TestTBPoolOverlayOnMutatedCode: when a byte under a pooled block is
// changed (a code-mutating fault), the machine must not adopt the stale
// pooled block — it takes a private overlay compile of the current bytes
// and the mutated behaviour is observed.
func TestTBPoolOverlayOnMutatedCode(t *testing.T) {
	const src = `
	li a0, 5
	ebreak
`
	pool := buildPool(t, src)

	p := poolPlatform(t, src)
	p.Machine.AttachTBPool(pool)
	// Flip imm bit 0 of the first instruction through the bus, as the
	// fault injector does: addi a0,x0,5 (0x00500513) becomes addi a0,x0,4.
	if err := p.Machine.Bus.WriteBytes(vp.RAMBase+2, []byte{0x40}); err != nil {
		t.Fatal(err)
	}

	if stop := p.Run(1000); stop.Reason != emu.StopEbreak {
		t.Fatalf("mutated run: %v", stop)
	}
	if got := p.Machine.Hart.Reg(isa.A0); got != 4 {
		t.Errorf("a0 = %d, want 4 (mutated bytes must win over pooled block)", got)
	}
	st := p.Machine.Stats()
	if st.OverlayCompiles == 0 {
		t.Error("no overlay compile recorded for the mutated range")
	}
}

// TestTBPoolSwitchEngineAdoption: pooled blocks carry precompiled
// micro-ops but are adoptable by either engine — the decoded metadata
// drives the switch interpreter unchanged.
func TestTBPoolSwitchEngineAdoption(t *testing.T) {
	pool := buildPool(t, poolProg) // donor ran the default superblock engine

	p := poolPlatform(t, poolProg)
	p.Machine.Engine = emu.EngineSwitch
	p.Machine.AttachTBPool(pool)
	if stop := p.Run(1_000_000); stop.Reason != emu.StopEbreak {
		t.Fatalf("switch-engine run: %v", stop)
	}
	if got := p.Machine.Hart.Reg(isa.A0); got != 1275 {
		t.Errorf("a0 = %d, want 1275", got)
	}
	if st := p.Machine.Stats(); st.PoolHits == 0 {
		t.Error("switch engine did not adopt from the pool")
	}
}

// TestTBPoolConcurrentAdoption exercises the read-only sharing contract
// under the race detector: many machines adopt from one pool at once.
func TestTBPoolConcurrentAdoption(t *testing.T) {
	pool := buildPool(t, poolProg)

	const n = 8
	var wg sync.WaitGroup
	results := make([]uint32, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := vp.New(vp.Config{})
			if err != nil {
				errs[i] = err
				return
			}
			if _, err := p.LoadSource(vp.Prelude + poolProg); err != nil {
				errs[i] = err
				return
			}
			p.Machine.AttachTBPool(pool)
			p.Run(1_000_000)
			results[i] = p.Machine.Hart.Reg(isa.A0)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != 1275 {
			t.Errorf("worker %d: a0 = %d, want 1275", i, results[i])
		}
	}
}

// TestBuildTBPoolSkipsDirtyBlocks: blocks translated from bytes the
// donor itself wrote (self-modifying code) must not be published — other
// machines boot the pristine image, which those blocks do not match.
func TestBuildTBPoolSkipsDirtyBlocks(t *testing.T) {
	const selfMod = `
	la t0, patch
	li t1, 0x00100073   # ebreak encoding
	sw t1, 0(t0)
	la t2, patch
	jr t2
patch:
	.word 0             # overwritten with ebreak at run time
`
	donor := poolPlatform(t, selfMod)
	if stop := donor.Run(1000); stop.Reason != emu.StopEbreak {
		t.Fatalf("donor run: %v", stop)
	}
	pool := donor.Machine.BuildTBPool()
	if pool.Size() >= donor.Machine.CachedBlocks() {
		t.Errorf("pool published %d blocks, donor cached %d: the patched block must be skipped",
			pool.Size(), donor.Machine.CachedBlocks())
	}
}

// TestResetDetachesPool: Reset (a fresh program load) must drop the pool
// attachment — the new image has no relation to the pooled one.
func TestResetDetachesPool(t *testing.T) {
	pool := buildPool(t, poolProg)
	p := poolPlatform(t, poolProg)
	p.Machine.AttachTBPool(pool)
	if _, err := p.LoadSource(vp.Prelude + poolProg); err != nil { // LoadSource calls Reset
		t.Fatal(err)
	}
	if p.Machine.TBPoolAttached() {
		t.Error("pool still attached after Reset")
	}
}

// TestTBPoolOtherProfileNeverAdopted: pooled code is compiled against
// the donor's timing profile, so a machine built with another profile
// must never adopt it — it compiles privately and counts exactly the
// cycles of a fresh machine of its own profile, on every engine. The
// tag is the profile's value: a machine built from a second
// timing.EdgeSmall() call adopts a pool built under the first.
func TestTBPoolOtherProfileNeverAdopted(t *testing.T) {
	unitPool := buildPool(t, poolProg) // donor: the default timing.Unit(), 1 cycle per instruction
	run := func(prof *timing.Profile, engine emu.Engine, pool *emu.TBPool) *emu.Machine {
		t.Helper()
		p, err := vp.New(vp.Config{Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.LoadSource(vp.Prelude + poolProg); err != nil {
			t.Fatal(err)
		}
		p.Machine.Engine = engine
		p.Machine.AttachTBPool(pool)
		if stop := p.Run(1_000_000); stop.Reason != emu.StopEbreak {
			t.Fatalf("%v: %v", engine, stop)
		}
		return p.Machine
	}
	for _, engine := range emu.Engines() {
		edgePool := run(timing.EdgeSmall(), engine, nil).BuildTBPool()
		for _, c := range []struct {
			name  string
			prof  *timing.Profile
			pool  *emu.TBPool
			adopt bool
		}{
			{"edge-small/unit-pool", timing.EdgeSmall(), unitPool, false},
			{"edge-fast/unit-pool", timing.EdgeFast(), unitPool, false},
			{"edge-small/edge-small-pool", timing.EdgeSmall(), edgePool, true},
		} {
			got, want := run(c.prof, engine, c.pool), run(c.prof, engine, nil)
			if got.TBPoolAttached() != c.adopt {
				t.Errorf("%s/%v: pool attached %v, want %v", c.name, engine, got.TBPoolAttached(), c.adopt)
			}
			if hits := got.Stats().PoolHits; (hits > 0) != c.adopt {
				t.Errorf("%s/%v: %d blocks adopted, want adoption %v", c.name, engine, hits, c.adopt)
			}
			if got.Hart.Cycle != want.Hart.Cycle || got.Hart.Instret != want.Hart.Instret ||
				got.Hart.Reg(isa.A0) != want.Hart.Reg(isa.A0) {
				t.Errorf("%s/%v: cycles/insts/a0 %d/%d/%d, fresh machine %d/%d/%d", c.name, engine,
					got.Hart.Cycle, got.Hart.Instret, got.Hart.Reg(isa.A0),
					want.Hart.Cycle, want.Hart.Instret, want.Hart.Reg(isa.A0))
			}
			if got.Hart.Cycle == got.Hart.Instret {
				t.Errorf("%s/%v: cycles equal instructions; the profile does not show", c.name, engine)
			}
		}
	}
}
