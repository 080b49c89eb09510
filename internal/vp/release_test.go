package vp_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/torture"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// guest is one program with its device stimuli.
type guest struct {
	name           string
	src            string
	budget         uint64
	sensor, stream []int16
	uartIn         []byte
}

// releaseGuests is every kernel, every interrupt demonstrator and the
// torture programs of seeds 0–7.
func releaseGuests() []guest {
	var gs []guest
	for _, w := range append(workloads.All(), workloads.Interrupt()...) {
		gs = append(gs, guest{w.Name, w.Source, w.Budget, w.Sensor, w.Stream, w.UARTIn})
	}
	for seed := int64(0); seed < 8; seed++ {
		p := torture.Generate(torture.Config{Seed: seed})
		gs = append(gs, guest{name: fmt.Sprintf("torture/seed%d", seed), src: p.Source, budget: p.Budget})
	}
	return gs
}

// newGuest builds a platform of the given RAM size with g loaded.
func newGuest(t *testing.T, g guest, size uint32, e emu.Engine) (*vp.Platform, *asm.Program) {
	t.Helper()
	p, err := vp.New(vp.Config{RAMSize: size, Sensor: g.sensor, Stream: g.stream, UARTIn: g.uartIn})
	if err != nil {
		t.Fatal(err)
	}
	p.Machine.Engine = e
	prog, err := p.LoadSource(vp.Prelude + g.src)
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	return p, prog
}

// buf identifies a RAM buffer by its first byte.
func buf(p *vp.Platform) *byte { return &p.RAM.Bytes()[0] }

// Each test below uses a RAM size no other test uses, so the buffer it
// releases is the one the next New of that size gets back.

// TestReleaseRecyclesZeroedRAM: after any guest has run, Release hands
// back a buffer the next platform of that size gets all zero.
func TestReleaseRecyclesZeroedRAM(t *testing.T) {
	const size = 3 << 20
	for _, e := range emu.Engines() {
		for _, g := range releaseGuests() {
			p, _ := newGuest(t, g, size, e)
			p.Run(g.budget)
			b := buf(p)
			p.Release()
			q, err := vp.New(vp.Config{RAMSize: size})
			if err != nil {
				t.Fatal(err)
			}
			if buf(q) != b {
				t.Fatalf("%v/%s: New did not reuse the released buffer", e, g.name)
			}
			if zero := make([]byte, size); !bytes.Equal(q.RAM.Bytes(), zero) {
				t.Fatalf("%v/%s: recycled RAM is non-zero at offset 0x%x", e, g.name, firstDiff(q.RAM.Bytes(), zero))
			}
			q.Release()
		}
	}
}

// TestRecycledRAMRunsLikeFresh: a guest run on a buffer another guest
// released ends exactly as on a freshly allocated one.
func TestRecycledRAMRunsLikeFresh(t *testing.T) {
	const size = 3<<20 + 4096
	gs := releaseGuests()
	for _, e := range emu.Engines() {
		for i, g := range gs {
			fresh, _ := newGuest(t, g, size, e)
			wantStop := fresh.Run(g.budget)

			other := gs[(i+1)%len(gs)]
			prev, _ := newGuest(t, other, size, e)
			prev.Run(other.budget)
			b := buf(prev)
			prev.Release()
			p, _ := newGuest(t, g, size, e)
			if buf(p) != b {
				t.Fatalf("%v/%s: New did not reuse the released buffer", e, g.name)
			}
			stop := p.Run(g.budget)
			if stop != wantStop || p.Machine.Hart.Instret != fresh.Machine.Hart.Instret ||
				p.Machine.Hart.Cycle != fresh.Machine.Hart.Cycle || p.Output() != fresh.Output() {
				t.Errorf("%v/%s: recycled %v insts=%d cycles=%d out=%q; fresh %v insts=%d cycles=%d out=%q",
					e, g.name, stop, p.Machine.Hart.Instret, p.Machine.Hart.Cycle, p.Output(),
					wantStop, fresh.Machine.Hart.Instret, fresh.Machine.Hart.Cycle, fresh.Output())
			}
			if !bytes.Equal(p.RAM.Bytes(), fresh.RAM.Bytes()) {
				t.Errorf("%v/%s: recycled RAM differs from fresh RAM after the run", e, g.name)
			}
			p.Release()
			fresh.Release()
		}
	}
}

// selfModGuest patches one of its own instructions mid-loop.
var selfModGuest = guest{name: "selfmod", budget: 10_000, src: `
	la t0, patch
	la t1, alt
	lw t2, 0(t1)
	li s0, 0
	li s1, 0
	li s2, 200
	li t3, 100
loop:
	addi s1, s1, 1
patch:
	addi s0, s0, 1
	bne s1, t3, skip
	sw t2, 0(t0)
	fence.i
skip:
	blt s1, s2, loop
	ebreak
alt:
	addi s0, s0, 2
`}

// TestSparseSnapshotRestoresLikeFullCopy: RestoreReuse from the
// written-pages snapshot leaves RAM byte-identical to a full copy taken
// at snapshot time — after guests that write the stack at the top of RAM
// (pages zero at snapshot time, which the rewind must zero again), after
// a self-modifying guest, and from a snapshot taken mid-run, when the
// stack pages are part of the snapshot.
func TestSparseSnapshotRestoresLikeFullCopy(t *testing.T) {
	for _, e := range emu.Engines() {
		for _, g := range append(releaseGuests(), selfModGuest) {
			for _, mid := range []bool{false, true} {
				p, prog := newGuest(t, g, 0, e)
				if mid {
					p.Run(g.budget / 2)
				}
				s := p.Snapshot()
				full := append([]byte(nil), p.RAM.Bytes()...)
				for pass := 0; pass < 2; pass++ {
					p.Run(g.budget)
					p.RestoreReuse(s, prog)
					if !bytes.Equal(p.RAM.Bytes(), full) {
						t.Fatalf("%v/%s mid=%v pass %d: RAM differs from the full copy at 0x%08x",
							e, g.name, mid, pass, vp.RAMBase+uint32(firstDiff(p.RAM.Bytes(), full)))
					}
				}
				p.Release()
			}
		}
	}
}

// scatterGuest writes one word in a data page at the bottom of RAM and
// one in the stack page at the top: two dirty pages at the ends of a
// store-watermark box that spans all of RAM.
var scatterGuest = guest{name: "scatter", budget: 1000, src: `
	la t0, buf
	li a1, 0x1234
	sw a1, 0(t0)
	sw a1, -16(sp)
	ebreak
buf:
	.word 0
`}

// TestSparseSnapshotScatteredStores: after a run that dirties only a low
// data page and the top stack page, the rewind visits exactly those two
// dirty runs and leaves RAM byte-identical to a full copy, on both
// engines, from a snapshot taken before the run and from one taken
// after it (when the stack page is part of the snapshot).
func TestSparseSnapshotScatteredStores(t *testing.T) {
	for _, e := range emu.Engines() {
		for _, after := range []bool{false, true} {
			p, prog := newGuest(t, scatterGuest, 0, e)
			if after {
				p.Run(scatterGuest.budget)
				p.Machine.ClearStop()
				p.Machine.ResetStoreWatermark()
			}
			s := p.Snapshot()
			full := append([]byte(nil), p.RAM.Bytes()...)
			for pass := 0; pass < 2; pass++ {
				if after {
					p.Machine.Hart.PC = prog.Entry // rerun from the top over the written pages
				}
				if stop := p.Run(scatterGuest.budget); stop.Reason != emu.StopEbreak {
					t.Fatalf("%v after=%v pass %d: %v", e, after, pass, stop)
				}
				var runs [][2]uint32
				p.Machine.ForEachDirtyRange(func(lo, hi uint32) { runs = append(runs, [2]uint32{lo, hi}) })
				top := vp.RAMBase + p.RAM.Size()
				if len(runs) != 2 || runs[0][0] != prog.Symbols["buf"] || runs[1][1] > top || top-runs[1][0] > emu.DirtyPageSize {
					t.Errorf("%v after=%v pass %d: dirty runs %x, want the buf word and one run in the top page", e, after, pass, runs)
				}
				p.RestoreReuse(s, prog)
				if !bytes.Equal(p.RAM.Bytes(), full) {
					t.Fatalf("%v after=%v pass %d: RAM differs from the full copy at 0x%08x",
						e, after, pass, vp.RAMBase+uint32(firstDiff(p.RAM.Bytes(), full)))
				}
			}
			p.Release()
		}
	}
}

// smcStackGuest patches one of its own instructions halfway through a
// loop whose every iteration also stores into the top stack page, then
// prints and exits with its sum (100*1 + 100*2 = 300). The sum starts
// from the stack word the loop stores, so a rewind that leaves the
// stack page or the patched code behind changes the result.
var smcStackGuest = guest{name: "selfmod-stack", budget: 10_000, src: `
	lw s0, -4(sp)
	la t0, patch
	la t1, alt
	lw t2, 0(t1)
	li s1, 0
	li s2, 200
	li t3, 100
loop:
	addi s1, s1, 1
patch:
	addi s0, s0, 1
	sw s0, -4(sp)
	bne s1, t3, skip
	sw t2, 0(t0)
	fence.i
skip:
	blt s1, s2, loop
	lw a0, -4(sp)
	li t6, UART_TX
	sb a0, 0(t6)
	andi a0, a0, 0x7f
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
alt:
	addi s0, s0, 2
`}

// TestSparseSnapshotSelfModifyingGuest: a guest that stores into its own
// code and into the top stack page is rewound with RestoreReuse, with a
// translation pool attached and without one. The run after the rewind
// must end exactly as on a fresh platform, on every engine: stop,
// retired instructions, cycles, output and RAM. The pool is frozen from
// a run stopped before the patch, so it holds the unpatched code and the
// stack page is the only written page besides the image.
func TestSparseSnapshotSelfModifyingGuest(t *testing.T) {
	g := smcStackGuest
	for _, e := range emu.Engines() {
		fresh, _ := newGuest(t, g, 0, e)
		want := fresh.Run(g.budget)
		if want.Reason != emu.StopExit || want.Code != 300&0x7f {
			t.Fatalf("%v: fresh run %v, want exit(%d)", e, want, 300&0x7f)
		}
		donor, _ := newGuest(t, g, 0, e)
		donor.Run(200)
		pool := donor.Machine.BuildTBPool()
		donor.Release()
		if pool.Size() == 0 {
			t.Fatalf("%v: empty pool", e)
		}
		for _, withPool := range []bool{false, true} {
			p, prog := newGuest(t, g, 0, e)
			if withPool {
				p.Machine.AttachTBPool(pool)
			}
			s := p.Snapshot()
			if stop := p.Run(g.budget); stop != want {
				t.Fatalf("%v pool=%v: first run %v, want %v", e, withPool, stop, want)
			}
			if hits := p.Machine.Stats().PoolHits; withPool && hits == 0 {
				t.Errorf("%v: no block adopted from the pool", e)
			}
			p.RestoreReuse(s, prog)
			stop := p.Run(g.budget)
			m, f := p.Machine, fresh.Machine
			if stop != want || m.Hart.Instret != f.Hart.Instret || m.Hart.Cycle != f.Hart.Cycle || p.Output() != fresh.Output() {
				t.Errorf("%v pool=%v: rewound %v insts=%d cycles=%d out=%q; fresh %v insts=%d cycles=%d out=%q",
					e, withPool, stop, m.Hart.Instret, m.Hart.Cycle, p.Output(),
					want, f.Hart.Instret, f.Hart.Cycle, fresh.Output())
			}
			if !bytes.Equal(p.RAM.Bytes(), fresh.RAM.Bytes()) {
				t.Errorf("%v pool=%v: RAM differs from the fresh run at 0x%08x",
					e, withPool, vp.RAMBase+uint32(firstDiff(p.RAM.Bytes(), fresh.RAM.Bytes())))
			}
			p.Release()
		}
		fresh.Release()
	}
}

// TestUseAfterReleasePanics: a released platform panics on use and
// never writes into the buffer it handed back, which the next platform
// of that size now owns.
func TestUseAfterReleasePanics(t *testing.T) {
	const size = 3<<20 + 8192
	p, prog := newGuest(t, selfModGuest, size, emu.EngineSuperblock)
	s := p.Snapshot()
	p.Run(selfModGuest.budget)
	b := buf(p)
	p.Release()

	q, _ := newGuest(t, selfModGuest, size, emu.EngineSuperblock)
	if buf(q) != b {
		t.Fatal("New did not reuse the released buffer")
	}
	want := append([]byte(nil), q.RAM.Bytes()...)
	uses := map[string]func(){
		"Run":          func() { p.Run(1000) },
		"Step":         func() { p.Machine.Step() },
		"LoadSource":   func() { p.LoadSource(vp.Prelude + selfModGuest.src) },
		"Snapshot":     func() { p.Snapshot() },
		"RestoreReuse": func() { p.RestoreReuse(s, prog) },
		"WriteBytes":   func() { p.Machine.Bus.WriteBytes(vp.RAMBase, []byte{1}) },
		"ReadBytes":    func() { p.Machine.Bus.ReadBytes(vp.RAMBase, make([]byte, 4)) },
	}
	for name, use := range uses {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			use()
		}()
	}
	p.Release() // a second Release is a no-op
	if !bytes.Equal(q.RAM.Bytes(), want) {
		t.Fatal("the released platform modified the buffer it handed back")
	}
	q.Release()
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
