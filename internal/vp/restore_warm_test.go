package vp_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/timing"
	"repro/internal/vp"
)

// TestRestoreKeepsWarmTranslations: a rewind whose dirty state does not
// touch translated code must keep the translation cache — the warm
// rewind the snapshot/restore campaign pattern relies on.
func TestRestoreKeepsWarmTranslations(t *testing.T) {
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The program dirties data directly after the code (buf), on the
	// code's own dirty page — the byte-precise store watermark must keep
	// the adjacent code out of the flush decision.
	src := `
	la a1, buf
	li a2, 77
	sw a2, 0(a1)
	li a0, 5
	ebreak
buf:	.word 0
`
	prog, err := p.LoadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	base := p.Snapshot()
	if stop := p.Run(1000); stop.Reason != emu.StopEbreak {
		t.Fatalf("first run: %v", stop)
	}
	warm := p.Machine.CachedBlocks()
	if warm == 0 {
		t.Fatal("no translations cached after first run")
	}
	compiled := p.Machine.Stats().TBsCompiled

	p.RestoreReuse(base, prog)
	if got := p.Machine.CachedBlocks(); got != warm {
		t.Errorf("restore dropped translations: %d cached, want %d", got, warm)
	}
	if stop := p.Run(1000); stop.Reason != emu.StopEbreak {
		t.Fatalf("second run: %v", stop)
	}
	if got := p.Machine.Hart.Reg(isa.A0); got != 5 {
		t.Errorf("a0 = %d, want 5", got)
	}
	if got := p.Machine.Stats().TBsCompiled; got != compiled {
		t.Errorf("second run recompiled: %d blocks total, want %d", got, compiled)
	}
}

// TestRestoreInvalidatesStaleCode: when the rewind changes bytes under
// translated blocks (the cached code differs from the snapshot image),
// the rewind itself must drop the translations, or the machine would
// execute stale code after it.
func TestRestoreInvalidatesStaleCode(t *testing.T) {
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.LoadSource("\tli a0, 5\n\tebreak\n")
	if err != nil {
		t.Fatal(err)
	}
	base := p.Snapshot() // image: li a0, 5

	// Host-patch the immediate to 9 through the bus and run, so the
	// cache holds blocks compiled from the patched image.
	// addi a0,x0,5 (0x00500513) -> addi a0,x0,9
	if err := p.Machine.Bus.WriteBytes(vp.RAMBase+2, []byte{0x90}); err != nil {
		t.Fatal(err)
	}
	if stop := p.Run(1000); stop.Reason != emu.StopEbreak {
		t.Fatalf("patched run: %v", stop)
	}
	if got := p.Machine.Hart.Reg(isa.A0); got != 9 {
		t.Fatalf("patched run a0 = %d, want 9", got)
	}

	// Restoring the original image changes bytes under the cached block:
	// the block must go, and the rerun must show the original behaviour.
	p.RestoreReuse(base, prog)
	if stop := p.Run(1000); stop.Reason != emu.StopEbreak {
		t.Fatalf("restored run: %v", stop)
	}
	if got := p.Machine.Hart.Reg(isa.A0); got != 5 {
		t.Errorf("restored run a0 = %d, want 5 (stale translation survived restore)", got)
	}
}

// smcSrc calls f, patches f's first instruction from "addi s0, s0, 1"
// to "addi s0, s0, 64", and calls f again: s0 = 65 on a pristine image.
const smcSrc = `
	li s0, 0
	call f
	la t0, f
	la t1, patch
	lw t2, 0(t1)
	sw t2, 0(t0)
	call f
	ebreak
	.align 2
f:
	addi s0, s0, 1
	ret
patch:
	addi s0, s0, 64
`

// TestRestoreReuseSelfModifyingGuest: a guest that patches its own code
// must replay identically after every rewind, on every engine. The
// rewind restores f's original bytes, so the translation of the patched
// f cached by the previous run must not survive it.
func TestRestoreReuseSelfModifyingGuest(t *testing.T) {
	for _, engine := range emu.Engines() {
		t.Run(engine.String(), func(t *testing.T) {
			p, err := vp.New(vp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			p.Machine.Engine = engine
			prog, err := p.LoadSource(smcSrc)
			if err != nil {
				t.Fatal(err)
			}
			base := p.Snapshot()
			for run := 0; run < 3; run++ {
				if run > 0 {
					p.RestoreReuse(base, prog)
				}
				if stop := p.Run(1000); stop.Reason != emu.StopEbreak {
					t.Fatalf("run %d: %v", run, stop)
				}
				if got := p.Machine.Hart.Reg(isa.S0); got != 65 {
					t.Errorf("run %d: s0 = %d, want 65 (stale translation of the patched code)", run, got)
				}
			}
		})
	}
}

// dataPageSrc keeps a data word on its own 512-byte page between two
// code regions, so the page lies inside the code's bounding box once
// handler is translated, and stores to it on every run.
const dataPageSrc = `
	la t0, data
	lw t1, 0(t0)
	addi t1, t1, 1
	sw t1, 0(t0)
	call handler
	ebreak
	.align 9
data:	.word 41
	.align 9
handler:
	lw a0, 0(t0)
	slli a0, a0, 1
	ret
`

// TestRestoreKeepsCacheOverDataPageInCode: a store to a data page that
// no translated block overlaps leaves every translation valid, even
// inside the code's bounding box, so the rewind must keep the cache:
// later runs compile nothing and match a fresh platform, on every
// engine.
func TestRestoreKeepsCacheOverDataPageInCode(t *testing.T) {
	for _, engine := range emu.Engines() {
		t.Run(engine.String(), func(t *testing.T) {
			platform := func() (*vp.Platform, *asm.Program) {
				p, err := vp.New(vp.Config{Profile: timing.EdgeSmall()})
				if err != nil {
					t.Fatal(err)
				}
				p.Machine.Engine = engine
				prog, err := p.LoadSource(dataPageSrc)
				if err != nil {
					t.Fatal(err)
				}
				return p, prog
			}
			fresh, _ := platform()
			want := fresh.Run(1000)
			if want.Reason != emu.StopEbreak || fresh.Machine.Hart.Reg(isa.A0) != 84 {
				t.Fatalf("fresh run: %v, a0 = %d, want ebreak and 84", want, fresh.Machine.Hart.Reg(isa.A0))
			}

			p, prog := platform()
			base := p.Snapshot()
			var compiled uint64
			for run := 0; run < 4; run++ {
				if run > 0 {
					p.RestoreReuse(base, prog)
				}
				stop := p.Run(1000)
				h, fh := &p.Machine.Hart, &fresh.Machine.Hart
				if stop != want || h.Reg(isa.A0) != fh.Reg(isa.A0) || h.Instret != fh.Instret || h.Cycle != fh.Cycle {
					t.Errorf("run %d: %v a0=%d insts=%d cycles=%d, fresh platform %v a0=%d insts=%d cycles=%d",
						run, stop, h.Reg(isa.A0), h.Instret, h.Cycle, want, fh.Reg(isa.A0), fh.Instret, fh.Cycle)
				}
				if run == 0 {
					compiled = p.Machine.Stats().TBsCompiled
				} else if got := p.Machine.Stats().TBsCompiled; got != compiled {
					t.Errorf("run %d: %d blocks compiled in total, want %d (the rewind dropped the cache)", run, got, compiled)
				}
			}
		})
	}
}

// TestHostWriteRetiresTranslations: a host Bus.WriteBytes over code the
// machine has translated takes effect at the next Run, with no explicit
// invalidation and no rewind, on every engine, with and without an
// attached pool holding the old code.
func TestHostWriteRetiresTranslations(t *testing.T) {
	const src = `
	li a0, 0
loop:
	addi a0, a0, 1
	j loop
`
	// addi a0, a0, 1 (0x00150513) -> addi a0, a0, 64 (0x04050513)
	patch := []byte{0x13, 0x05, 0x05, 0x04}
	for _, e := range emu.Engines() {
		for _, withPool := range []bool{false, true} {
			load := func() (*vp.Platform, *asm.Program) {
				p, err := vp.New(vp.Config{})
				if err != nil {
					t.Fatal(err)
				}
				p.Machine.Engine = e
				prog, err := p.LoadSource(src)
				if err != nil {
					t.Fatal(err)
				}
				return p, prog
			}
			p, prog := load()
			if withPool {
				donor, _ := load()
				donor.Run(1000)
				p.Machine.AttachTBPool(donor.Machine.BuildTBPool())
			}
			p.Run(1001)
			if p.Machine.CachedBlocks() == 0 {
				t.Fatalf("%v pool=%v: nothing translated", e, withPool)
			}
			if err := p.Machine.Bus.WriteBytes(prog.Symbols["loop"], patch); err != nil {
				t.Fatal(err)
			}
			before := p.Machine.Hart.Reg(isa.A0)
			p.Run(2000)
			if d := p.Machine.Hart.Reg(isa.A0) - before; d%64 != 0 || d < 64*900 {
				t.Errorf("%v pool=%v: a0 grew by %d over 1000 iterations, want steps of 64", e, withPool, d)
			}
		}
	}
}
