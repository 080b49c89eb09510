package emu_test

import (
	"sync"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
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
	// Flip imm bit 0 of the first instruction: addi a0,x0,5 (0x00500513)
	// becomes addi a0,x0,4. The flip bypasses the store path, so fold it
	// into the watermark by hand, exactly as the fault injector does.
	ram := p.RAM.Bytes()
	ram[2] ^= 0x10
	p.Machine.NoteRAMWrite(vp.RAMBase+2, 1)

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

// TestTBPoolGenerationInvalidate: after Invalidate, attached machines
// stop adopting (generation mismatch) and fall back to private compiles,
// still producing the correct result.
func TestTBPoolGenerationInvalidate(t *testing.T) {
	pool := buildPool(t, poolProg)
	gen := pool.Generation()
	pool.Invalidate()
	if pool.Generation() == gen {
		t.Fatal("generation did not advance")
	}

	p := poolPlatform(t, poolProg)
	p.Machine.AttachTBPool(pool)
	if stop := p.Run(1_000_000); stop.Reason != emu.StopEbreak {
		t.Fatalf("run: %v", stop)
	}
	if got := p.Machine.Hart.Reg(isa.A0); got != 1275 {
		t.Errorf("a0 = %d, want 1275", got)
	}
	st := p.Machine.Stats()
	if st.PoolHits != 0 {
		t.Errorf("adopted %d blocks from an invalidated pool", st.PoolHits)
	}
	if st.TBsCompiled == 0 {
		t.Error("expected private compiles after pool invalidation")
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
