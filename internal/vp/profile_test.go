package vp_test

import (
	"bytes"
	"testing"

	"repro/internal/emu"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// TestDefaultProfileIsUnit pins that a platform built without a profile
// runs timing.Unit(): for every kernel and interrupt demonstrator, a
// platform from vp.Config{} and one from Profile: timing.Unit() end in
// the same state, and a translation pool built on either attaches to
// the other and serves it blocks.
func TestDefaultProfileIsUnit(t *testing.T) {
	type run struct {
		stop     emu.StopInfo
		hart     [32]uint32
		insts    uint64
		cycles   uint64
		ram      []byte
		pool     *emu.TBPool
		attached bool
		poolHits uint64
	}
	exec := func(t *testing.T, w workloads.Workload, prof *timing.Profile, pool *emu.TBPool) run {
		t.Helper()
		p, err := vp.New(vp.Config{Profile: prof, Sensor: w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		if _, err := p.LoadSource(vp.Prelude + w.Source); err != nil {
			t.Fatal(err)
		}
		p.Machine.AttachTBPool(pool)
		r := run{attached: p.Machine.TBPoolAttached()}
		r.stop = p.Run(w.Budget)
		h := &p.Machine.Hart
		r.hart, r.insts, r.cycles = h.X, h.Instret, h.Cycle
		r.ram = bytes.Clone(p.RAM.Bytes())
		r.pool = p.Machine.BuildTBPool()
		r.poolHits = p.Machine.Stats().PoolHits
		return r
	}
	same := func(t *testing.T, what string, got, want run) {
		t.Helper()
		if got.stop != want.stop || got.hart != want.hart || got.insts != want.insts ||
			got.cycles != want.cycles || !bytes.Equal(got.ram, want.ram) {
			t.Errorf("%s: stop %v, %d insts, %d cycles; want stop %v, %d insts, %d cycles (registers or RAM may differ too)",
				what, got.stop, got.insts, got.cycles, want.stop, want.insts, want.cycles)
		}
	}
	for _, w := range append(workloads.All(), workloads.Interrupt()...) {
		t.Run(w.Name, func(t *testing.T) {
			def := exec(t, w, nil, nil)
			unit := exec(t, w, timing.Unit(), nil)
			if def.stop.Reason != emu.StopExit || def.stop.Code != w.Expect {
				t.Fatalf("default profile: stop %v, want exit 0x%08x", def.stop, w.Expect)
			}
			same(t, "Profile: timing.Unit()", unit, def)
			if def.cycles != def.insts {
				t.Errorf("default profile: %d cycles for %d instructions, want one per instruction", def.cycles, def.insts)
			}
			for _, c := range []struct {
				name string
				prof *timing.Profile
				pool *emu.TBPool
			}{
				{"unit platform, default pool", timing.Unit(), def.pool},
				{"default platform, unit pool", nil, unit.pool},
			} {
				got := exec(t, w, c.prof, c.pool)
				if !got.attached || got.poolHits == 0 {
					t.Errorf("%s: attached %v with %d blocks adopted, want the pool attached and used",
						c.name, got.attached, got.poolHits)
				}
				same(t, c.name, got, def)
			}
		})
	}
}
