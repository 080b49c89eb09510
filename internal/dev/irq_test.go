package dev

import "testing"

// fakeMem is guest memory for DMA tests, stored as words; a word in
// fail is unmapped, and a span stops with an error at its first byte.
type fakeMem struct {
	words map[uint32]uint32
	fail  map[uint32]bool
}

func newFakeMem() *fakeMem {
	return &fakeMem{words: map[uint32]uint32{}, fail: map[uint32]bool{}}
}

func (m *fakeMem) ReadBytes(addr uint32, dst []byte) error {
	for i := range dst {
		a := addr + uint32(i)
		if m.fail[a&^3] {
			return errBus
		}
		dst[i] = byte(m.words[a&^3] >> (8 * (a & 3)))
	}
	return nil
}

func (m *fakeMem) WriteBytes(addr uint32, src []byte) error {
	for i, b := range src {
		a := addr + uint32(i)
		if m.fail[a&^3] {
			return errBus
		}
		sh := 8 * (a & 3)
		m.words[a&^3] = m.words[a&^3]&^(0xff<<sh) | uint32(b)<<sh
	}
	return nil
}

var errBus = errString("bus error")

type errString string

func (e errString) Error() string { return string(e) }

func dmaWithRing(t *testing.T, samples []int16, dst, n uint32) (*DMAStream, *fakeMem) {
	t.Helper()
	mem := newFakeMem()
	const ring = 0x8000_1000
	mem.words[ring] = dst
	mem.words[ring+4] = n
	d := NewDMAStream(samples)
	d.Mem = mem
	d.Store(DMARing, 4, ring)
	d.Store(DMACount, 4, 1)
	return d, mem
}

func TestDMATransfer(t *testing.T) {
	d, mem := dmaWithRing(t, []int16{5, -6, 7}, 0x8000_2000, 3)
	now := uint64(100)
	d.Now = func() uint64 { return now }

	d.Store(DMACtrl, 4, 1)
	if st, _ := d.Load(DMAStatus, 4); st != DMAStatusBusy {
		t.Fatalf("status after kick = %#x, want busy", st)
	}
	// doneAt = 100 + 40 + 3*2 = 146.
	d.Tick(145)
	if st, _ := d.Load(DMAStatus, 4); st != DMAStatusBusy {
		t.Fatal("completed before its cycle-time model says so")
	}
	d.Tick(146)
	st, _ := d.Load(DMAStatus, 4)
	if st != DMAStatusIRQ {
		t.Fatalf("status after completion = %#x, want irq, not busy", st)
	}
	if got := d.AssertCycle(); got != 146 {
		t.Errorf("AssertCycle = %d, want 146 (the modelled completion)", got)
	}
	if mem.words[0x8000_2000] != 5 || int32(mem.words[0x8000_2004]) != -6 ||
		mem.words[0x8000_2008] != 7 {
		t.Errorf("dst words = %v", []uint32{
			mem.words[0x8000_2000], mem.words[0x8000_2004], mem.words[0x8000_2008]})
	}
	if mem.words[0x8000_1008]&DMADescDone == 0 {
		t.Error("done flag not written back to descriptor")
	}
	if h, _ := d.Load(DMAHead, 4); h != 0 {
		t.Errorf("head = %d, want 0 (single-descriptor ring wraps)", h)
	}
	d.Store(DMAClear, 4, 1)
	if d.IRQ() {
		t.Error("irq still asserted after clear")
	}
	// Drained stream pads with zeros.
	mem.words[0x8000_2000] = 0xffff_ffff
	d.Store(DMACtrl, 4, 1)
	d.Tick(1 << 20)
	if mem.words[0x8000_2000] != 0 {
		t.Error("drained stream should pad destination with zeros")
	}
}

// TestDMAFaultWedges: a transfer whose destination runs off memory
// writes the samples that land in memory, leaves the descriptor without
// its done flag and wedges the engine.
func TestDMAFaultWedges(t *testing.T) {
	d, mem := dmaWithRing(t, []int16{1, 2, 3}, 0x8000_2000, 3)
	d.Now = func() uint64 { return 0 }
	mem.fail[0x8000_2008] = true // third destination word unmapped
	d.Store(DMACtrl, 4, 1)
	d.Tick(1 << 20)
	if !d.IRQ() {
		t.Error("completion IRQ should still fire on a faulted transfer")
	}
	if mem.words[0x8000_2000] != 1 || mem.words[0x8000_2004] != 2 {
		t.Errorf("in-memory prefix = %d, %d, want 1, 2", mem.words[0x8000_2000], mem.words[0x8000_2004])
	}
	if mem.words[0x8000_1008]&DMADescDone != 0 {
		t.Error("done flag written back for a faulted transfer")
	}
	d.Store(DMAClear, 4, 1)
	d.Store(DMACtrl, 4, 1) // wedged: further kicks ignored
	if st, _ := d.Load(DMAStatus, 4); st&DMAStatusBusy != 0 {
		t.Error("wedged engine accepted a kick")
	}
}

func TestDMASnapshotRoundTrip(t *testing.T) {
	d, _ := dmaWithRing(t, []int16{1, 2, 3}, 0x8000_2000, 1)
	d.Now = func() uint64 { return 7 }
	d.Store(DMACtrl, 4, 1)
	s := d.Snapshot()
	d.Tick(1 << 20)
	post := d.Snapshot()
	if post == s {
		t.Fatal("state did not change across completion")
	}
	d.Restore(s)
	if d.Snapshot() != s {
		t.Error("restore did not round-trip")
	}
	d.Tick(1 << 20)
	if d.Snapshot() != post {
		t.Error("replay after restore diverged")
	}
}

func TestPLICClaimPriority(t *testing.T) {
	p := NewPLIC()
	l1, l2 := false, false
	p.SetSource(PLICLineDMA, func() bool { return l1 })
	p.SetSource(PLICLineUART, func() bool { return l2 })
	p.Store(PLICEnable, 4, 1<<PLICLineDMA|1<<PLICLineUART)

	if p.Pending() {
		t.Error("pending with no lines asserted")
	}
	if c, _ := p.Load(PLICClaim, 4); c != 0 {
		t.Errorf("claim on idle = %d", c)
	}
	l1, l2 = true, true
	if !p.Pending() {
		t.Error("not pending with both lines asserted")
	}
	if c, _ := p.Load(PLICClaim, 4); c != PLICLineDMA {
		t.Errorf("claim = %d, want lowest line %d", c, PLICLineDMA)
	}
	// Level semantics: the line vanishes from claim the moment its
	// device is serviced, with no tick in between.
	l1 = false
	if c, _ := p.Load(PLICClaim, 4); c != PLICLineUART {
		t.Errorf("claim = %d, want %d", c, PLICLineUART)
	}
}

func TestPLICEnableGates(t *testing.T) {
	p := NewPLIC()
	p.SetSource(PLICLineDMA, func() bool { return true })
	if p.Pending() {
		t.Error("disabled line must not assert MEIP")
	}
	if pend, _ := p.Load(PLICPending, 4); pend&(1<<PLICLineDMA) == 0 {
		t.Error("raw pending should show the line regardless of enable")
	}
	p.Store(PLICEnable, 4, 1<<PLICLineDMA)
	if !p.Pending() {
		t.Error("enabled asserted line must assert MEIP")
	}
}

func TestPLICTestTrigger(t *testing.T) {
	p := NewPLIC()
	p.Store(PLICEnable, 4, 1<<PLICLineTest)
	p.TriggerAt(500)
	p.Tick(499)
	if p.Pending() {
		t.Error("trigger fired early")
	}
	p.Tick(503) // CPU polls a few cycles after the scheduled assert
	if !p.Pending() {
		t.Error("trigger did not latch")
	}
	if at, ok := p.TriggerCycle(); !ok || at != 500 {
		t.Errorf("TriggerCycle = %d, %v; want scheduled 500", at, ok)
	}
	if c, _ := p.Load(PLICClaim, 4); c != PLICLineTest {
		t.Errorf("claim = %d", c)
	}
	p.Tick(504)
	if p.Pending() {
		t.Error("edge line still pending after claim")
	}
}

func TestPLICSnapshotRoundTrip(t *testing.T) {
	p := NewPLIC()
	p.Store(PLICEnable, 4, 1<<PLICLineTest)
	p.TriggerAt(100)
	s := p.Snapshot()
	p.Tick(200)
	post := p.Snapshot()
	p.Restore(s)
	if p.Snapshot() != s {
		t.Error("restore did not round-trip")
	}
	p.Tick(200)
	if p.Snapshot() != post {
		t.Error("replay after restore diverged")
	}
}
