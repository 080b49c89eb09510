package vp_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/vp"
)

// scatterSrc writes one word near the bottom of RAM and one near the
// top (stack-relative): a watermark box spanning almost all of RAM but
// only two actually-dirty pages.
const scatterSrc = `
	la t0, buf
	li a1, 0x1234
	sw a1, 0(t0)
	sw a1, -16(sp)
	ebreak
buf:
	.word 0
`

func loadScatter(t *testing.T) (*vp.Platform, *asm.Program) {
	t.Helper()
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.LoadSource(vp.Prelude + scatterSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p, prog
}

func runScatter(t *testing.T, p *vp.Platform) {
	t.Helper()
	if stop := p.Run(1_000_000); stop.Reason != emu.StopEbreak {
		t.Fatalf("run: %+v", stop)
	}
}

// TestRestoreReuseScatteredStores: the differential rewind copies pages,
// not the watermark span — and still returns RAM to the exact post-load
// image.
func TestRestoreReuseScatteredStores(t *testing.T) {
	p, prog := loadScatter(t)
	base := p.Snapshot()
	pristine := append([]byte(nil), p.RAM.Bytes()...)

	runScatter(t, p)
	wlo, whi := p.Machine.StoreWatermark()
	span := uint64(whi - wlo)
	if span < 3<<20 {
		t.Fatalf("watermark span 0x%x, want ~4 MiB", span)
	}

	p.RestoreReuse(base, prog)
	st := p.RestoreStats()
	if st.Restores != 1 {
		t.Fatalf("restores = %d, want 1", st.Restores)
	}
	if st.RestoreBytes > 2*emu.DirtyPageSize {
		t.Errorf("restore copied %d bytes, want <= %d (two pages); watermark span was %d",
			st.RestoreBytes, 2*emu.DirtyPageSize, span)
	}
	if st.RestoreBytes*8 > span {
		t.Errorf("restore bytes %d not ≪ watermark span %d", st.RestoreBytes, span)
	}
	if !bytes.Equal(p.RAM.Bytes(), pristine) {
		t.Fatal("RAM differs from the post-load image after RestoreReuse")
	}

	// The recycled platform must replay identically.
	runScatter(t, p)
	if lo, hi := p.Machine.StoreWatermark(); lo != wlo || hi != whi {
		t.Errorf("replay watermark [0x%x,0x%x), first run [0x%x,0x%x)", lo, hi, wlo, whi)
	}
}

// TestRestoreReuseHostWriteLeak pins the host-write audit: a direct
// Bus.WriteBytes between mutants (a harness poking guest memory) must
// be folded into the dirty tracking by the bus write notification, so
// the next RestoreReuse erases it instead of leaking it into the next
// run's initial state.
func TestRestoreReuseHostWriteLeak(t *testing.T) {
	t.Run("pages", func(t *testing.T) {
		p, prog := loadScatter(t)
		base := p.Snapshot()
		pristine := append([]byte(nil), p.RAM.Bytes()...)

		runScatter(t, p)
		p.RestoreReuse(base, prog)

		// Host write into the middle of RAM, far from anything the guest
		// touched: only the bus write notification can bring it into the
		// dirty state.
		mid := uint32(vp.RAMBase + 2<<20)
		if err := p.Machine.Bus.WriteBytes(mid, []byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
			t.Fatal(err)
		}
		p.RestoreReuse(base, prog)
		if !bytes.Equal(p.RAM.Bytes(), pristine) {
			t.Fatal("host WriteBytes between mutants leaked through RestoreReuse")
		}
	})
}
