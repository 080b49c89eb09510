package vp_test

import (
	"context"
	"testing"

	"repro/internal/emu"
	"repro/internal/vp"
)

// trapLoop takes a synchronous exception every iteration: the ecall is
// attempted but not retired, and its handler skips it. Under a budget
// the run therefore retires fewer instructions than it attempts.
const trapLoop = `
_start:
	la   t0, handler
	csrw mtvec, t0
loop:
	ecall
	j    loop
handler:
	csrr t1, mepc
	addi t1, t1, 4
	csrw mepc, t1
	mret
`

// TestRunContextMatchesRunOnTrappingGuest: RunContext executes its
// budget in chunks, and each chunk must be charged in the engine's own
// unit (attempted instructions), or a guest that traps runs past the
// budget Run would stop it at.
func TestRunContextMatchesRunOnTrappingGuest(t *testing.T) {
	const budget = 5_000_000 // several RunContext chunks
	for _, eng := range emu.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			run := func(chunked bool) (emu.StopInfo, *vp.Platform) {
				p, err := vp.New(vp.Config{})
				if err != nil {
					t.Fatal(err)
				}
				p.Machine.Engine = eng
				if _, err := p.LoadSource(vp.Prelude + trapLoop); err != nil {
					t.Fatal(err)
				}
				if !chunked {
					return p.Run(budget), p
				}
				stop, err := p.RunContext(context.Background(), budget)
				if err != nil {
					t.Fatal(err)
				}
				return stop, p
			}
			want, ref := run(false)
			got, p := run(true)
			if want.Reason != emu.StopBudget {
				t.Fatalf("Run stopped with %v, want a budget stop", want)
			}
			if got != want {
				t.Errorf("stop: RunContext %v, Run %v", got, want)
			}
			h, rh := &p.Machine.Hart, &ref.Machine.Hart
			if h.PC != rh.PC || h.Instret != rh.Instret || h.Cycle != rh.Cycle {
				t.Errorf("RunContext left pc=%#x instret=%d cycle=%d, Run pc=%#x instret=%d cycle=%d",
					h.PC, h.Instret, h.Cycle, rh.PC, rh.Instret, rh.Cycle)
			}
		})
	}
}
