package dev

import "testing"

// irqDevs is the interrupt-capable device set sharing one poll
// deadline and one clock, as the platform wires it.
type irqDevs struct {
	deadline uint64
	clock    uint64
	clint    *CLINT
	uart     *UART
	dma      *DMAStream
	plic     *PLIC
	mem      *fakeMem
}

func newIRQDevs() *irqDevs {
	d := &irqDevs{
		clint: NewCLINT(),
		uart:  NewUART(nil),
		dma:   NewDMAStream([]int16{1, 2, 3, 4}),
		plic:  NewPLIC(),
		mem:   newFakeMem(),
	}
	d.clint.IRQDeadline, d.uart.IRQDeadline, d.dma.IRQDeadline, d.plic.IRQDeadline =
		&d.deadline, &d.deadline, &d.deadline, &d.deadline
	d.clint.Now = func() uint64 { return d.clock }
	d.uart.Feed([]byte("ab"))
	const ring = 0x8000_1000
	d.mem.words[ring] = 0x8000_2000
	d.mem.words[ring+4] = 2
	d.dma.Mem = d.mem
	d.dma.Now = func() uint64 { return 100 }
	d.dma.Store(DMARing, 4, ring)
	d.dma.Store(DMACount, 4, 1)
	d.plic.SetSource(PLICLineDMA, d.dma.IRQ)
	d.plic.SetSource(PLICLineUART, d.uart.RxAvail)
	return d
}

// TestEpochBumpSites checks that every way a device's interrupt line
// level or next event cycle can change ends the machine's poll epoch by
// zeroing the shared deadline — the machine skips the full interrupt
// poll before it — and that the plain reads the guest polls in its wait
// loops and the clock running on do not.
func TestEpochBumpSites(t *testing.T) {
	cases := []struct {
		name string
		prep func(d *irqDevs) // run before the deadline is armed
		act  func(d *irqDevs)
		bump bool
	}{
		// CLINT: every store, Restore and Advance.
		{"clint store msip", nil, func(d *irqDevs) { d.clint.Store(CLINTMsip, 4, 1) }, true},
		{"clint store mtimecmp", nil, func(d *irqDevs) { d.clint.Store(CLINTMtimecmp, 4, 500) }, true},
		{"clint store mtimecmph", nil, func(d *irqDevs) { d.clint.Store(CLINTMtimecmpH, 4, 0) }, true},
		{"clint store mtime", nil, func(d *irqDevs) { d.clint.Store(CLINTMtime, 4, 7) }, true},
		{"clint store mtimeh", nil, func(d *irqDevs) { d.clint.Store(CLINTMtimeH, 4, 0) }, true},
		{"clint restore", nil, func(d *irqDevs) { d.clint.Restore(d.clint.Snapshot()) }, true},
		{"clint advance", nil, func(d *irqDevs) { d.clint.Advance(1) }, true},
		{"clint load mtime", nil, func(d *irqDevs) { d.clint.Load(CLINTMtime, 4) }, false},
		{"clint load mtimecmp", nil, func(d *irqDevs) { d.clint.Load(CLINTMtimecmp, 4) }, false},
		{"clint load msip", nil, func(d *irqDevs) { d.clint.Load(CLINTMsip, 4) }, false},
		{"clint settime", nil, func(d *irqDevs) { d.clock = 1000 }, false},

		// UART: Feed, Restore and a pop of the receive queue.
		{"uart feed", nil, func(d *irqDevs) { d.uart.Feed([]byte("c")) }, true},
		{"uart restore", nil, func(d *irqDevs) { d.uart.Restore(d.uart.Snapshot()) }, true},
		{"uart rx pop", nil, func(d *irqDevs) { d.uart.Load(UARTRxData, 4) }, true},
		{"uart rx empty", func(d *irqDevs) { d.uart.Restore(UARTState{}) },
			func(d *irqDevs) { d.uart.Load(UARTRxData, 4) }, false},
		{"uart status", nil, func(d *irqDevs) { d.uart.Load(UARTStatus, 4) }, false},
		{"uart tx", nil, func(d *irqDevs) { d.uart.Store(UARTTxData, 1, 'x') }, false},

		// DMA: every store, Restore and the completion in Tick.
		{"dma store ring", nil, func(d *irqDevs) { d.dma.Store(DMARing, 4, 0x8000_1000) }, true},
		{"dma store count", nil, func(d *irqDevs) { d.dma.Store(DMACount, 4, 1) }, true},
		{"dma kick", nil, func(d *irqDevs) { d.dma.Store(DMACtrl, 4, 1) }, true},
		{"dma clear", nil, func(d *irqDevs) { d.dma.Store(DMAClear, 4, 1) }, true},
		{"dma restore", nil, func(d *irqDevs) { d.dma.Restore(d.dma.Snapshot()) }, true},
		{"dma completion", func(d *irqDevs) { d.dma.Store(DMACtrl, 4, 1) },
			func(d *irqDevs) { d.dma.Tick(1000) }, true},
		{"dma tick before completion", func(d *irqDevs) { d.dma.Store(DMACtrl, 4, 1) },
			func(d *irqDevs) { d.dma.Tick(100) }, false},
		{"dma tick idle", nil, func(d *irqDevs) { d.dma.Tick(1000) }, false},
		{"dma status", nil, func(d *irqDevs) { d.dma.Load(DMAStatus, 4) }, false},
		{"dma head", nil, func(d *irqDevs) { d.dma.Load(DMAHead, 4) }, false},

		// PLIC: every store, Restore, TriggerAt, the test-line latch in
		// Tick and a claim of the test line.
		{"plic store enable", nil, func(d *irqDevs) { d.plic.Store(PLICEnable, 4, 1<<PLICLineTest) }, true},
		{"plic restore", nil, func(d *irqDevs) { d.plic.Restore(d.plic.Snapshot()) }, true},
		{"plic trigger", nil, func(d *irqDevs) { d.plic.TriggerAt(50) }, true},
		{"plic latch", func(d *irqDevs) { d.plic.TriggerAt(50) },
			func(d *irqDevs) { d.plic.Tick(50) }, true},
		{"plic tick before latch", func(d *irqDevs) { d.plic.TriggerAt(50) },
			func(d *irqDevs) { d.plic.Tick(49) }, false},
		{"plic claim test line", func(d *irqDevs) {
			d.uart.Restore(UARTState{})
			d.plic.Store(PLICEnable, 4, 1<<PLICLineTest)
			d.plic.TriggerAt(0)
			d.plic.Tick(0)
		}, func(d *irqDevs) { d.plic.Load(PLICClaim, 4) }, true},
		{"plic claim level line", func(d *irqDevs) { d.plic.Store(PLICEnable, 4, 1<<PLICLineUART) },
			func(d *irqDevs) { d.plic.Load(PLICClaim, 4) }, false},
		{"plic pending", nil, func(d *irqDevs) { d.plic.Load(PLICPending, 4) }, false},
		{"plic enable read", nil, func(d *irqDevs) { d.plic.Load(PLICEnable, 4) }, false},
		{"plic Pending query", nil, func(d *irqDevs) { d.plic.Pending() }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newIRQDevs()
			if c.prep != nil {
				c.prep(d)
			}
			d.deadline = ^uint64(0)
			c.act(d)
			if got := d.deadline == 0; got != c.bump {
				t.Errorf("deadline zeroed = %v, want %v", got, c.bump)
			}
		})
	}
}

// TestNextEvent checks the event cycles the machine's poll horizon is
// built from.
func TestNextEvent(t *testing.T) {
	d := newIRQDevs()
	if _, ok := d.dma.NextEvent(); ok {
		t.Error("idle DMA reports an event")
	}
	d.dma.Store(DMACtrl, 4, 1) // doneAt = 100 + 40 + 2*2
	if at, ok := d.dma.NextEvent(); !ok || at != 144 {
		t.Errorf("busy DMA NextEvent = %d, %v; want 144, true", at, ok)
	}
	d.dma.Tick(144)
	if _, ok := d.dma.NextEvent(); ok {
		t.Error("completed DMA still reports an event")
	}

	if _, ok := d.plic.NextEvent(); ok {
		t.Error("unarmed PLIC reports an event")
	}
	d.plic.TriggerAt(77)
	if at, ok := d.plic.NextEvent(); !ok || at != 77 {
		t.Errorf("armed PLIC NextEvent = %d, %v; want 77, true", at, ok)
	}
	d.plic.Tick(77)
	if _, ok := d.plic.NextEvent(); ok {
		t.Error("latched PLIC still reports an event")
	}
}
