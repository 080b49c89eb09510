package emu_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/vp"
)

// scatterSrc dirties one word near the bottom of RAM (a data buffer
// just past the code) and one near the top (stack-relative) — the
// pathological case for a bounding-box watermark: the box spans nearly
// all of RAM while only two pages actually changed.
const scatterSrc = `
	la t0, buf
	li a1, 0x1234
	sw a1, 0(t0)
	sw a1, -16(sp)
	ebreak
buf:
	.word 0
`

func scatterPlatform(t *testing.T) *vp.Platform {
	t.Helper()
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadSource(vp.Prelude + scatterSrc); err != nil {
		t.Fatal(err)
	}
	if stop := p.Run(1_000_000); stop.Reason != emu.StopEbreak {
		t.Fatalf("run: %+v", stop)
	}
	return p
}

func dirtySummary(m *emu.Machine) (ranges int, total uint64) {
	m.ForEachDirtyRange(func(lo, hi uint32) {
		ranges++
		total += uint64(hi - lo)
	})
	return ranges, total
}

// TestDirtyRangesScattered: two scattered stores report two small dirty ranges — not the multi-megabyte
// watermark box — and the untouched middle of RAM tests clean.
func TestDirtyRangesScattered(t *testing.T) {
	p := scatterPlatform(t)
	m := p.Machine

	wlo, whi := m.StoreWatermark()
	if whi-wlo < 3<<20 {
		t.Fatalf("watermark box spans 0x%x bytes, want ~4 MiB (scatter failed)", whi-wlo)
	}
	ranges, total := dirtySummary(m)
	if ranges != 2 {
		t.Errorf("dirty ranges = %d, want 2", ranges)
	}
	if total > 2*emu.DirtyPageSize {
		t.Errorf("dirty bytes = %d, want <= %d (two pages)", total, 2*emu.DirtyPageSize)
	}

	mid := uint32(vp.RAMBase + 2<<20)
	if m.DirtyOverlaps(mid, mid+4096) {
		t.Error("middle of RAM reported dirty; only the extremes were written")
	}
	if !m.DirtyOverlaps(whi-4, whi) {
		t.Error("top-of-RAM store not reported dirty")
	}
	if !m.DirtyOverlaps(wlo, wlo+4) {
		t.Error("bottom-of-RAM store not reported dirty")
	}

	m.ResetStoreWatermark()
	if ranges, _ := dirtySummary(m); ranges != 0 {
		t.Errorf("dirty ranges after reset = %d, want 0", ranges)
	}
	if m.DirtyOverlaps(vp.RAMBase, vp.RAMBase+vp.DefaultRAMSize) {
		t.Error("RAM reported dirty after reset")
	}
}

// TestPoolAdoptionBetweenScatteredStores: scattered dirty state
// bracketing a clean code region must not block pool adoption — the
// page-granular check refines the watermark box, so a consumer whose
// box covers the code (but whose code pages are clean) still adopts
// every block.
func TestPoolAdoptionBetweenScatteredStores(t *testing.T) {
	// Load above RAM base so there is dirtiable space below the code.
	const org = vp.RAMBase + 0x2000
	prog, err := asm.AssembleAt(vp.Prelude+poolProg, org)
	if err != nil {
		t.Fatal(err)
	}
	load := func() *vp.Platform {
		p, err := vp.New(vp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		return p
	}

	donor := load()
	if stop := donor.Run(1_000_000); stop.Reason != emu.StopEbreak {
		t.Fatalf("donor run: %+v", stop)
	}
	pool := donor.Machine.BuildTBPool()
	if pool.Size() == 0 {
		t.Fatal("donor produced an empty pool")
	}

	// One arm, named for the page-granular dirty tracking it exercises.
	t.Run("pages", func(t *testing.T) {
		p := load()
		p.Machine.AttachTBPool(pool)
		top := uint32(vp.RAMBase + vp.DefaultRAMSize)
		hostWrite(t, p, vp.RAMBase+4, 4)
		hostWrite(t, p, top-8, 4)
		if p.Machine.CodePagesDirty() {
			t.Error("code pages dirty before any code write")
		}
		if stop := p.Run(1_000_000); stop.Reason != emu.StopEbreak {
			t.Fatalf("run: %+v", stop)
		}
		st := p.Machine.Stats()
		if st.TBsCompiled != 0 {
			t.Errorf("compiled %d blocks, want 0 (scattered dirt must not block adoption)", st.TBsCompiled)
		}
		if st.PoolHits == 0 {
			t.Error("no pool hits recorded")
		}
		// A write into the code itself is still caught, byte or not.
		hostWrite(t, p, org, 1)
		if !p.Machine.CodePagesDirty() {
			t.Error("write into translated code not reported by CodePagesDirty")
		}
	})
}

// TestDirtyRangesMatchPageSet: for random sets of written pages — lone
// pages, runs across bitmap-word boundaries, whole 64-page words and
// the last page of RAM — ForEachDirtyRange and ForEachWrittenRange
// report exactly the maximal runs of the set, and DirtyOverlaps agrees
// page by page with it.
func TestDirtyRangesMatchPageSet(t *testing.T) {
	const pages = vp.DefaultRAMSize / emu.DirtyPageSize
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		p, err := vp.New(vp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m := p.Machine
		m.ResetStoreWatermark()
		set := make([]bool, pages)
		for n := rng.Intn(6); n >= 0; n-- {
			first := rng.Intn(pages)
			switch rng.Intn(4) {
			case 0: // a lone page
				set[first] = true
			case 1: // a short run, likely across a word boundary
				for i := first; i < min(first+rng.Intn(130), pages); i++ {
					set[i] = true
				}
			case 2: // one whole bitmap word
				for i := first &^ 63; i < first&^63+64; i++ {
					set[i] = true
				}
			default: // the last page
				set[pages-1] = true
			}
		}
		for i, ok := range set {
			if ok {
				hostWrite(t, p, vp.RAMBase+uint32(i)*emu.DirtyPageSize, emu.DirtyPageSize)
			}
		}
		var want [][2]uint32
		for i := 0; i < pages; i++ {
			if !set[i] {
				continue
			}
			j := i
			for j < pages && set[j] {
				j++
			}
			want = append(want, [2]uint32{vp.RAMBase + uint32(i)*emu.DirtyPageSize, vp.RAMBase + uint32(j)*emu.DirtyPageSize})
			i = j
		}
		var dirty, written [][2]uint32
		m.ForEachDirtyRange(func(lo, hi uint32) { dirty = append(dirty, [2]uint32{lo, hi}) })
		m.ForEachWrittenRange(func(lo, hi uint32) { written = append(written, [2]uint32{lo, hi}) })
		if !slices.Equal(dirty, want) || !slices.Equal(written, want) {
			t.Fatalf("trial %d: dirty runs %x, written runs %x, want %x", trial, dirty, written, want)
		}
		for i := 0; i < pages; i++ {
			lo := vp.RAMBase + uint32(i)*emu.DirtyPageSize
			if got := m.DirtyOverlaps(lo, lo+emu.DirtyPageSize); got != set[i] {
				t.Fatalf("trial %d: DirtyOverlaps(page %d) = %v, want %v", trial, i, got, set[i])
			}
		}
		if len(want) > 0 {
			lo, hi := want[0][0], want[len(want)-1][1]
			if !m.DirtyOverlaps(lo-1, hi+1) {
				t.Fatalf("trial %d: DirtyOverlaps over every run = false", trial)
			}
		}
		p.Release()
	}
}

// hostWrite rewrites n bytes at addr with their own values through the
// bus: a host write that changes no byte but reaches the dirty state.
func hostWrite(t *testing.T, p *vp.Platform, addr uint32, n int) {
	t.Helper()
	b := make([]byte, n)
	if err := p.Machine.Bus.ReadBytes(addr, b); err != nil {
		t.Fatal(err)
	}
	if err := p.Machine.Bus.WriteBytes(addr, b); err != nil {
		t.Fatal(err)
	}
}
