package dev

import "encoding/binary"

// DMA register offsets.
const (
	DMARing   uint32 = 0x00 // read/write: descriptor ring base address
	DMACount  uint32 = 0x04 // read/write: number of descriptors in the ring
	DMACtrl   uint32 = 0x08 // write 1: kick the next descriptor
	DMAStatus uint32 = 0x0c // read: bit0 busy, bit1 completion IRQ pending
	DMAClear  uint32 = 0x10 // write 1: clear the completion IRQ
	DMAHead   uint32 = 0x14 // read: index of the next descriptor to process

	// DMASize is the mapped window size.
	DMASize uint32 = 0x1000
)

// DMAStatus bits.
const (
	DMAStatusBusy uint32 = 1 << 0
	DMAStatusIRQ  uint32 = 1 << 1
)

// A DMA descriptor is three words in guest RAM:
//
//	+0  destination address (word-aligned)
//	+4  sample count (words to write)
//	+8  flags — the device ORs in DMADescDone on completion
const (
	DMADescWords        = 3
	DMADescDone  uint32 = 1 << 0
)

// dmaMaxWords caps a single transfer so a fault-corrupted sample count
// degrades into a classifiable outcome instead of an unbounded host
// copy.
const dmaMaxWords = 1 << 16

// DMAStream is a descriptor-ring DMA engine fed by a stream of 16-bit
// sensor samples — the sensor-pipeline demonstrator's data source.
// Software builds a ring of descriptors in RAM, points DMARing/DMACount
// at it, and kicks a transfer with DMACtrl; the engine then copies the
// next samples to the descriptor's destination (one sign-extended word
// per sample), writes the done flag back into the descriptor, raises
// its completion line and advances the head index.
//
// Completion is deterministic in cycle time: a transfer kicked at cycle
// K with N words completes at K + StartCycles + N*CyclesPerWord. The
// copy itself happens host-side at the first Tick at or past that
// cycle; the architectural assert time is the completion cycle, which
// AssertCycle exposes to the latency co-sim. Guest memory is reached
// through Mem, which the platform wires to its bus, so the engine's
// writes are host writes like any other.
type DMAStream struct {
	// Mem is guest memory; the platform wires it to the system bus.
	// Required before any transfer is kicked.
	Mem DMAMem

	// StartCycles and CyclesPerWord parametrize the completion-time
	// model (defaults via NewDMAStream; host-tunable for adversarial
	// latency sweeps).
	StartCycles   uint64
	CyclesPerWord uint64

	// Now returns the current cycle; the platform wires it to the
	// hart's cycle counter so kicks are anchored to guest time. The
	// emulators flush exact architectural state before any device
	// store, so the value read at kick time is engine-independent.
	Now func() uint64

	// IRQDeadline, when non-nil, is zeroed by every store, Restore and
	// the completion in Tick: each can change the completion line or the
	// next completion cycle (NextEvent).
	IRQDeadline *uint64

	samples []int16
	pos     int

	ring  uint32
	count uint32
	head  uint32
	busy  bool
	irq   bool

	doneAt   uint64 // completion cycle of the in-flight transfer
	assertAt uint64 // cycle the completion IRQ was last asserted
	faulted  bool   // a transfer hit a bus error; engine wedged

	// word and buf stage descriptor words and a transfer's samples. They
	// live here, not on the stack, because a slice passed through the
	// Mem interface escapes: a stack buffer would allocate per access.
	word [4]byte
	buf  []byte
}

// DMAMem is the guest-memory span access the DMA engine needs (the
// bus's ReadBytes/WriteBytes): each call fails if a byte of the span
// lies outside RAM, and a failed write still writes the prefix before
// that byte.
type DMAMem interface {
	ReadBytes(addr uint32, dst []byte) error
	WriteBytes(addr uint32, src []byte) error
}

// NewDMAStream creates a DMA engine preloaded with samples and the
// default timing model (a fixed setup cost plus a per-word cost).
func NewDMAStream(samples []int16) *DMAStream {
	return &DMAStream{samples: samples, StartCycles: 40, CyclesPerWord: 2}
}

// IRQ reports whether the completion interrupt line is asserted — the
// PLIC samples this as the level of PLICLineDMA.
func (d *DMAStream) IRQ() bool { return d.irq }

// AssertCycle returns the cycle the completion IRQ was last asserted.
func (d *DMAStream) AssertCycle() uint64 { return d.assertAt }

// Tick advances the engine to the given cycle: an in-flight transfer
// whose completion time has passed performs its copy and raises the
// completion IRQ. The platform calls it from every full interrupt poll;
// the machine polls fully at the first boundary at or past NextEvent,
// so a late Tick completes the transfer exactly as a punctual one.
func (d *DMAStream) Tick(cycle uint64) {
	if !d.busy || cycle < d.doneAt {
		return
	}
	d.busy = false
	d.complete()
	d.irq = true
	d.assertAt = d.doneAt
	expire(d.IRQDeadline)
}

// NextEvent returns the completion cycle of the in-flight transfer, and
// ok=false while the engine is idle.
func (d *DMAStream) NextEvent() (uint64, bool) { return d.doneAt, d.busy }

// complete processes the descriptor at head: copy samples, write the
// done flag back, advance head. The samples go out as one span. A bus
// error (descriptor or destination outside RAM — the fault campaigns
// provoke this) wedges the engine after the in-RAM prefix of the span
// is written: the IRQ still fires so software observes the completion,
// but no further kicks are accepted.
func (d *DMAStream) complete() {
	desc := d.ring + d.head*4*DMADescWords
	dst, err := d.readWord(desc)
	if err != nil {
		d.faulted = true
		return
	}
	n, err := d.readWord(desc + 4)
	if err != nil {
		d.faulted = true
		return
	}
	n = min(n, dmaMaxWords)
	d.buf = d.buf[:0]
	for i := uint32(0); i < n; i++ {
		var v uint32
		if d.pos < len(d.samples) {
			v = uint32(int32(d.samples[d.pos]))
			d.pos++
		}
		d.buf = binary.LittleEndian.AppendUint32(d.buf, v)
	}
	if err := d.Mem.WriteBytes(dst, d.buf); err != nil {
		d.faulted = true
		return
	}
	flags, err := d.readWord(desc + 8)
	if err != nil {
		d.faulted = true
		return
	}
	binary.LittleEndian.PutUint32(d.word[:], flags|DMADescDone)
	if err := d.Mem.WriteBytes(desc+8, d.word[:]); err != nil {
		d.faulted = true
		return
	}
	if d.count > 0 {
		d.head = (d.head + 1) % d.count
	}
}

// readWord reads one little-endian guest word.
func (d *DMAStream) readWord(addr uint32) (uint32, error) {
	err := d.Mem.ReadBytes(addr, d.word[:])
	return binary.LittleEndian.Uint32(d.word[:]), err
}

// kick starts the next transfer: completion is scheduled relative to
// the kick cycle. kick on a busy or wedged engine is ignored (software
// must wait for the completion IRQ).
func (d *DMAStream) kick() {
	if d.busy || d.faulted || d.count == 0 {
		return
	}
	n, err := d.readWord(d.ring + d.head*4*DMADescWords + 4)
	if err != nil {
		d.faulted = true
		return
	}
	n = min(n, dmaMaxWords)
	var now uint64
	if d.Now != nil {
		now = d.Now()
	}
	d.busy = true
	d.doneAt = now + d.StartCycles + uint64(n)*d.CyclesPerWord
}

// DMAState is a snapshot of the DMA engine's architectural state.
type DMAState struct {
	Ring, Count, Head uint32
	Busy, IRQ         bool
	DoneAt, AssertAt  uint64
	Pos               int
	Faulted           bool
}

// Snapshot captures the DMA state.
func (d *DMAStream) Snapshot() DMAState {
	return DMAState{
		Ring: d.ring, Count: d.count, Head: d.head,
		Busy: d.busy, IRQ: d.irq,
		DoneAt: d.doneAt, AssertAt: d.assertAt,
		Pos: d.pos, Faulted: d.faulted,
	}
}

// Restore replaces the DMA state with a snapshot.
func (d *DMAStream) Restore(s DMAState) {
	d.ring, d.count, d.head = s.Ring, s.Count, s.Head
	d.busy, d.irq = s.Busy, s.IRQ
	d.doneAt, d.assertAt = s.DoneAt, s.AssertAt
	d.pos, d.faulted = s.Pos, s.Faulted
	expire(d.IRQDeadline)
}

// Load implements mem.Device.
func (d *DMAStream) Load(off uint32, size uint8) (uint32, bool) {
	switch off {
	case DMARing:
		return d.ring, true
	case DMACount:
		return d.count, true
	case DMACtrl:
		return 0, true
	case DMAStatus:
		var st uint32
		if d.busy {
			st |= DMAStatusBusy
		}
		if d.irq {
			st |= DMAStatusIRQ
		}
		return st, true
	case DMAClear:
		return 0, true
	case DMAHead:
		return d.head, true
	}
	return 0, false
}

// Store implements mem.Device.
func (d *DMAStream) Store(off uint32, size uint8, val uint32) bool {
	expire(d.IRQDeadline)
	switch off {
	case DMARing:
		d.ring = val
		return true
	case DMACount:
		d.count = val
		return true
	case DMACtrl:
		if val&1 != 0 {
			d.kick()
		}
		return true
	case DMAClear:
		if val&1 != 0 {
			d.irq = false
		}
		return true
	case DMAStatus, DMAHead:
		return true // writes ignored
	}
	return false
}
