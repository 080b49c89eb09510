package vp_test

import (
	"testing"

	"repro/internal/dev"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/timing"
	"repro/internal/vp"
)

// idleIRQProg enables the PLIC's UART and test lines, then idles with no
// device event scheduled — an infinite poll horizon. The handler records
// minstret and mepc at entry and exits with the claimed line.
const idleIRQProg = `
_start:
	la t0, handler
	csrw mtvec, t0
	li t0, PLIC_ENABLE
	li t1, 12
	sw t1, 0(t0)
	li t0, 0x800
	csrw mie, t0
	csrsi mstatus, 8
idle:
	j idle
handler:
	csrr a1, minstret
	csrr a2, mepc
	li t0, PLIC_CLAIM
	lw a0, 0(t0)
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
`

// irqDriver runs a platform for a budget: Run on one engine, or a loop
// of single Steps.
type irqDriver struct {
	name string
	run  func(p *vp.Platform, budget uint64) emu.StopInfo
}

func irqDrivers() []irqDriver {
	var ds []irqDriver
	for _, e := range emu.Engines() {
		ds = append(ds, irqDriver{e.String(), func(p *vp.Platform, budget uint64) emu.StopInfo {
			p.Machine.Engine = e
			return p.Run(budget)
		}})
	}
	return append(ds, irqDriver{"step", func(p *vp.Platform, budget uint64) emu.StopInfo {
		for i := uint64(0); i < budget; i++ {
			if s := p.Machine.Step(); s != nil {
				return *s
			}
		}
		return emu.StopInfo{Reason: emu.StopBudget, PC: p.Machine.Hart.PC}
	}})
}

// idleStats is what a host-event scenario observed.
type idleStats struct {
	code                  uint32
	trapInstret, mepc     uint32
	instret, cycle        uint64
	idleInstret, idleCost uint64
}

// runIdleEvent idles the platform past its set-up, checks that idling
// costs no full interrupt poll, applies the host event and runs to the
// handler's exit.
func runIdleEvent(t *testing.T, d irqDriver, event func(p *vp.Platform, st idleStats)) idleStats {
	t.Helper()
	p, err := vp.New(vp.Config{Profile: timing.EdgeSmall()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.LoadSource(vp.Prelude + idleIRQProg)
	if err != nil {
		t.Fatal(err)
	}
	if s := d.run(p, 100); s.Reason != emu.StopBudget {
		t.Fatalf("set-up stopped with %v", s)
	}
	h := &p.Machine.Hart
	polls, i1, c1 := p.Machine.Stats().FullPolls, h.Instret, h.Cycle
	if s := d.run(p, 100); s.Reason != emu.StopBudget {
		t.Fatalf("idle stopped with %v", s)
	}
	if n := p.Machine.Stats().FullPolls; n != polls {
		t.Errorf("idling with an infinite horizon made %d full polls", n-polls)
	}
	st := idleStats{idleInstret: h.Instret, idleCost: (h.Cycle - c1) / (h.Instret - i1)}
	event(p, st)
	s := d.run(p, 1000)
	if s.Reason != emu.StopExit {
		t.Fatalf("after the event stopped with %v", s)
	}
	st.code = s.Code
	st.trapInstret, st.mepc = h.X[isa.A1], h.X[isa.A2]
	st.instret, st.cycle = h.Instret, h.Cycle
	if st.mepc != prog.Symbols["idle"] {
		t.Errorf("trap taken at pc 0x%x, want the idle loop 0x%x", st.mepc, prog.Symbols["idle"])
	}
	return st
}

// TestHostEventsBetweenRuns checks that events a host injects between
// Run calls reach an idle guest whose poll horizon is infinite: a UART
// receive is taken at the first boundary of the next Run, and a test-line
// trigger at the first boundary at or past its cycle. Both engines and a
// Step loop must agree exactly.
func TestHostEventsBetweenRuns(t *testing.T) {
	t.Run("uart-feed", func(t *testing.T) {
		var ref *idleStats
		for _, d := range irqDrivers() {
			st := runIdleEvent(t, d, func(p *vp.Platform, _ idleStats) {
				p.UART.Feed([]byte("x"))
			})
			if st.code != dev.PLICLineUART {
				t.Errorf("%s: handler claimed line %d, want %d", d.name, st.code, dev.PLICLineUART)
			}
			if uint64(st.trapInstret) != st.idleInstret {
				t.Errorf("%s: trap taken at instret %d, want %d (the next Run's first boundary)",
					d.name, st.trapInstret, st.idleInstret)
			}
			if ref == nil {
				ref = &st
			} else if st != *ref {
				t.Errorf("%s disagrees:\n got %+v\nwant %+v", d.name, st, *ref)
			}
		}
	})
	t.Run("trigger-at", func(t *testing.T) {
		const loops = 10
		var ref *idleStats
		for _, d := range irqDrivers() {
			st := runIdleEvent(t, d, func(p *vp.Platform, st idleStats) {
				// One cycle past the tenth idle iteration: the first
				// boundary at or past it ends the eleventh.
				p.Plic.TriggerAt(p.Machine.Hart.Cycle + loops*st.idleCost + 1)
			})
			if st.code != dev.PLICLineTest {
				t.Errorf("%s: handler claimed line %d, want %d", d.name, st.code, dev.PLICLineTest)
			}
			if want := st.idleInstret + loops + 1; uint64(st.trapInstret) != want {
				t.Errorf("%s: trap taken at instret %d, want %d", d.name, st.trapInstret, want)
			}
			if ref == nil {
				ref = &st
			} else if st != *ref {
				t.Errorf("%s disagrees:\n got %+v\nwant %+v", d.name, st, *ref)
			}
		}
	})
}

// runAll loads src on a fresh platform per driver and hands both to f.
func runAll(t *testing.T, src string, f func(p *vp.Platform, d irqDriver)) {
	t.Helper()
	for _, d := range irqDrivers() {
		p, err := vp.New(vp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.LoadSource(vp.Prelude + src); err != nil {
			t.Fatal(err)
		}
		f(p, d)
	}
}

// TestSkipRuleSeesMipWrite checks that a CSR write to mip forces the next
// poll to be full: software sets MSIP while the CLINT's msip is clear, so
// the next boundary re-mirrors the CLINT and clears it again before MIE
// is enabled — no software interrupt is taken.
func TestSkipRuleSeesMipWrite(t *testing.T) {
	runAll(t, `
_start:
	la t0, handler
	csrw mtvec, t0
	li t0, 8
	csrw mie, t0
	csrsi mip, 8
	j next
next:
	csrsi mstatus, 8
	j done
done:
	li a0, 1
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
handler:
	li a0, 99
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
`, func(p *vp.Platform, d irqDriver) {
		if s := d.run(p, 1000); s.Reason != emu.StopExit || s.Code != 1 {
			t.Errorf("%s: stopped with %v, want exit 1", d.name, s)
		}
	})
}

// TestSkipRuleSeesCycleRewind checks that a cycle counter moved back
// behind the last full poll forces a full poll: the timer that was
// pending at the later cycle is not pending at the earlier one.
func TestSkipRuleSeesCycleRewind(t *testing.T) {
	runAll(t, `
_start:
	li t0, CLINT_MTIMECMPH
	sw zero, 0(t0)
	li t0, CLINT_MTIMECMP
	li t1, 300
	sw t1, 0(t0)
	li t0, 0x80
	csrw mie, t0
1:	j 1b
`, func(p *vp.Platform, d irqDriver) {
		h := &p.Machine.Hart
		d.run(p, 1000)
		if h.Mip&(1<<isa.IntMachineTimer) == 0 {
			t.Fatalf("%s: timer not pending at cycle %d", d.name, h.Cycle)
		}
		h.Cycle = 10 // a hart-only rewind: mip and the devices are untouched
		d.run(p, 1)
		if h.Mip&(1<<isa.IntMachineTimer) != 0 {
			t.Errorf("%s: timer still pending after rewinding to cycle 10", d.name)
		}
	})
}

// TestSkippedPollSyncsMtime checks that polls which skip the devices
// still advance mtime with the cycle counter.
func TestSkippedPollSyncsMtime(t *testing.T) {
	runAll(t, `
_start:
	li t0, CLINT_MTIME
	lw t1, 0(t0)
	li t2, 50
1:	addi t2, t2, -1
	bnez t2, 1b
	lw a0, 0(t0)
	sub a0, a0, t1
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
2:	j 2b
`, func(p *vp.Platform, d irqDriver) {
		if s := d.run(p, 1000); s.Reason != emu.StopExit || s.Code < 100 {
			t.Errorf("%s: stopped with %v, want mtime to advance by at least 100", d.name, s)
		}
	})
}
