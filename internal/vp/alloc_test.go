package vp_test

import (
	"testing"

	"repro/internal/dev"
	"repro/internal/emu"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// TestDMABurstAllocatesNothing: a DMA transfer reaches guest memory over
// the bus without allocating. The kick reads the descriptor's count and
// the completion reads the descriptor, writes an 8-word burst and sets
// the done flag, one region lookup per word.
func TestDMABurstAllocatesNothing(t *testing.T) {
	stream := make([]int16, 512)
	for i := range stream {
		stream[i] = int16(i + 1)
	}
	p, err := vp.New(vp.Config{RAMSize: 64 << 10, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if _, err := p.LoadSource("ebreak"); err != nil {
		t.Fatal(err)
	}
	const ring, dst, words = vp.RAMBase + 0x100, vp.RAMBase + 0x200, 8
	bus := p.Machine.Bus
	for i, w := range []uint32{dst, words, 0} {
		bus.Store(ring+4*uint32(i), 4, w)
	}
	bus.Store(vp.DMABase+dev.DMARing, 4, ring)
	bus.Store(vp.DMABase+dev.DMACount, 4, 1)
	bursts := 0
	burst := func() {
		bus.Store(vp.DMABase+dev.DMACtrl, 4, 1)
		at, busy := p.DMA.NextEvent()
		if !busy {
			t.Fatal("the kick did not start a transfer")
		}
		p.DMA.Tick(at)
		bursts++
	}
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Errorf("%v allocations per DMA burst, want 0", n)
	}
	if st := p.DMA.Snapshot(); st.Faulted || st.Pos != bursts*words {
		t.Fatalf("DMA state %+v after %d bursts, want %d samples and no fault", st, bursts, bursts*words)
	}
	if v, _ := bus.Load(ring+8, 4); v&dev.DMADescDone == 0 {
		t.Error("the completion did not set the done flag")
	}
	last := (bursts - 1) * words
	for i := uint32(0); i < words; i++ {
		if v, _ := bus.Load(dst+4*i, 4); v != uint32(stream[last+int(i)]) {
			t.Fatalf("word %d of the last burst = %d, want %d", i, v, stream[last+int(i)])
		}
	}
}

// TestInvalidateTBsAllocatesNothing: flushing a warm translation cache
// (blocks, traces and jump cache) reuses the machine's maps instead of
// allocating new ones, and the machine runs on identically after it.
func TestInvalidateTBsAllocatesNothing(t *testing.T) {
	w, _ := workloads.ByName("crc32")
	g := guest{name: w.Name, src: w.Source, budget: w.Budget}
	for _, e := range emu.Engines() {
		p, prog := newGuest(t, g, 0, e)
		s := p.Snapshot()
		want := p.Run(g.budget)
		warm := p.Machine.CachedBlocks()
		if warm == 0 {
			t.Fatalf("%v: no blocks cached after the run", e)
		}
		// AllocsPerRun calls f once before it measures; skip that call so
		// the measured one flushes the warm cache.
		calls := 0
		if n := testing.AllocsPerRun(1, func() {
			if calls++; calls > 1 {
				p.Machine.InvalidateTBs()
			}
		}); n != 0 {
			t.Errorf("%v: %v allocations flushing %d warm blocks, want 0", e, n, warm)
		}
		if n := p.Machine.CachedBlocks(); n != 0 {
			t.Fatalf("%v: %d blocks cached after InvalidateTBs", e, n)
		}
		p.RestoreReuse(s, prog)
		if stop := p.Run(g.budget); stop != want {
			t.Errorf("%v: rerun after the flush stopped %v, want %v", e, stop, want)
		}
		p.Release()
	}
}
