// Package vp assembles the virtual platform: one RV32 hart, RAM, and the
// standard peripheral set (UART console, CLINT timer, syscon test
// finisher, synthetic sensor) at a fixed memory map. It is the top-level
// API the command-line tools, examples and experiments drive.
package vp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/dev"
	"repro/internal/elf"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/timing"
)

// The platform memory map. Programs reach peripherals at these addresses.
const (
	SysConBase = 0x0010_0000
	CLINTBase  = 0x0200_0000
	UARTBase   = 0x1000_0000
	SensorBase = 0x1001_0000
	DMABase    = 0x1002_0000
	PLICBase   = 0x1003_0000
	RAMBase    = 0x8000_0000

	// DefaultRAMSize is 4 MiB, plenty for the edge workloads.
	DefaultRAMSize = 4 << 20
)

// Config parametrizes platform construction. The zero value is usable.
type Config struct {
	RAMSize    uint32          // defaults to DefaultRAMSize
	Profile    *timing.Profile // defaults to timing.Unit()
	ISA        isa.ExtSet      // defaults to isa.RV32Full
	ConsoleOut io.Writer       // defaults to discarding (UART still records)
	Sensor     []int16         // samples preloaded into the sensor device
	Stream     []int16         // samples preloaded into the DMA stream engine
	UARTIn     []byte          // bytes preloaded into the UART receive queue
}

// Platform is one assembled virtual platform instance.
type Platform struct {
	Machine *emu.Machine
	RAM     *mem.RAM
	UART    *dev.UART
	Clint   *dev.CLINT
	Sensor  *dev.Sensor
	DMA     *dev.DMAStream
	Plic    *dev.PLIC

	// Restore accounting: how many rewinds this platform performed and
	// how much RAM they actually copied. Plain fields (a platform is
	// single-threaded); fleet aggregation happens via RecordStats.
	restores     uint64
	restoreBytes uint64
	restorePages uint64

	// Per-restore distributions, attached via AttachRestoreObs; nil
	// until then (and obs instruments are nil-safe anyway).
	hRestoreBytes *obs.Histogram
	hRestorePages *obs.Histogram
}

// New builds a platform. Its RAM starts zeroed, in a buffer a released
// platform of the same RAM size handed back when one is idle; a caller
// done with a short-lived platform hands its buffer on with Release.
func New(cfg Config) (*Platform, error) {
	if cfg.RAMSize == 0 {
		cfg.RAMSize = DefaultRAMSize
	}
	if cfg.ISA == 0 {
		cfg.ISA = isa.RV32Full
	}

	bus := &mem.Bus{}
	p := &Platform{
		RAM:    mem.NewRAM(cfg.RAMSize),
		UART:   dev.NewUART(cfg.ConsoleOut),
		Clint:  dev.NewCLINT(),
		Sensor: dev.NewSensor(cfg.Sensor),
		DMA:    dev.NewDMAStream(cfg.Stream),
		Plic:   dev.NewPLIC(),
	}
	p.UART.Feed(cfg.UARTIn)
	syscon := &dev.SysCon{}
	type mapping struct {
		base, size uint32
		d          mem.Device
		name       string
	}
	maps := []mapping{
		{SysConBase, 0x1000, syscon, "syscon"},
		{CLINTBase, dev.CLINTSize, p.Clint, "clint"},
		{UARTBase, 0x1000, p.UART, "uart"},
		{SensorBase, 0x1000, p.Sensor, "sensor"},
		{DMABase, dev.DMASize, p.DMA, "dma"},
		{PLICBase, dev.PLICSize, p.Plic, "plic"},
		{RAMBase, cfg.RAMSize, p.RAM, "ram"},
	}
	for _, m := range maps {
		if err := bus.Map(m.base, m.size, m.d, m.name); err != nil {
			return nil, fmt.Errorf("vp: %w", err)
		}
	}

	p.Machine = emu.New(bus, cfg.Profile, cfg.ISA)
	p.Machine.IRQ = irqInput{p}
	// The devices zero the machine's interrupt-poll deadline wherever an
	// interrupt input or a next event can change, and mtime follows the
	// cycle of the machine's last poll point.
	dl := p.Machine.IRQDeadline()
	p.Clint.IRQDeadline, p.UART.IRQDeadline, p.DMA.IRQDeadline, p.Plic.IRQDeadline = dl, dl, dl, dl
	p.Clint.Now = p.Machine.PollCycle
	syscon.OnExit = p.Machine.RequestStop

	// The DMA engine writes guest memory through the bus, as every host
	// writer does, and anchors kicks to guest time; its completion line
	// and the UART's receive line feed the PLIC, whose line the machine
	// polls as MEIP.
	p.DMA.Mem = bus
	p.DMA.Now = func() uint64 { return p.Machine.Hart.Cycle }
	p.Plic.SetSource(dev.PLICLineDMA, p.DMA.IRQ)
	p.Plic.SetSource(dev.PLICLineUART, p.UART.RxAvail)
	return p, nil
}

// irqInput is the machine's interrupt input (emu.IRQSource) over the
// platform: each full interrupt poll advances the DMA engine and the
// PLIC's test-line latch to the current cycle, then mirrors the PLIC's
// live pending state into MEIP and the CLINT's timer and software
// interrupts into MTIP and MSIP. The machine skips the full poll while
// the cycle counter is short of NextEvent, because then it would find
// nothing new: a Tick before NextEvent is a no-op, the CLINT timer
// fires no earlier, and every other level change zeroes the deadline.
// Device state thus changes only at full polls, guest MMIO accesses and
// host calls, which all engines replicate exactly.
type irqInput struct{ p *Platform }

func (s irqInput) Tick(cycle uint64) {
	s.p.DMA.Tick(cycle)
	s.p.Plic.Tick(cycle)
}

// Lines reads the three device levels; the getters are pure.
func (s irqInput) Lines() uint32 {
	var lines uint32
	if s.p.Plic.Pending() {
		lines |= 1 << isa.IntMachineExternal
	}
	if s.p.Clint.TimerPending() {
		lines |= 1 << isa.IntMachineTimer
	}
	if s.p.Clint.SoftwarePending() {
		lines |= 1 << isa.IntMachineSoftware
	}
	return lines
}

// NextEvent is the earliest of the DMA completion, the test-line latch
// and the CLINT timer.
func (s irqInput) NextEvent() (uint64, bool) {
	at, ok := s.p.DMA.NextEvent()
	if t, armed := s.p.Plic.NextEvent(); armed && (!ok || t < at) {
		at, ok = t, true
	}
	if t, armed := s.p.Clint.NextTimerEvent(); armed && (!ok || t < at) {
		at, ok = t, true
	}
	return at, ok
}

// LoadProgram places an assembled or flattened program in RAM and resets
// the hart to its entry with the stack pointer at the top of RAM. It is
// the one loader: an ELF executable goes through ProgramFromELF first.
func (p *Platform) LoadProgram(prog *asm.Program) error {
	if err := p.Machine.Bus.WriteBytes(prog.Org, prog.Bytes); err != nil {
		return fmt.Errorf("vp: load program: %w", err)
	}
	p.Machine.Reset(prog.Entry)
	p.Machine.Hart.SetReg(isa.SP, RAMBase+p.RAM.Size())
	return nil
}

// maxELFImage bounds the flattened address span of an ELF executable, so
// a hostile segment layout cannot make the loader allocate gigabytes; no
// span above it fits the platform's RAM anyway. The span is checked from
// the segments' memory sizes before anything is allocated.
const maxELFImage = 32 << 20

// ProgramFromELF flattens an ELF32 executable into the asm.Program shape
// (origin, contiguous bytes, entry, symbols) that LoadProgram and every
// analysis consume, zero-filling the gaps between segments and every
// segment's bss tail.
func ProgramFromELF(data []byte) (*asm.Program, error) {
	img, err := elf.Read(data)
	if err != nil {
		return nil, err
	}
	// Segment ends are computed in uint64: seg.Addr+seg.MemSize wraps
	// uint32 for segments reaching the top of the address space, which
	// would bypass the span check below and panic in the copy. An empty
	// segment places no byte, so it does not widen the span.
	lo, hi := uint64(^uint32(0)), uint64(0)
	for _, seg := range img.Segments {
		end := uint64(seg.Addr) + uint64(seg.MemSize)
		if end > 1<<32 {
			return nil, fmt.Errorf("elf segment at 0x%08x overflows the 32-bit address space (%d bytes)",
				seg.Addr, seg.MemSize)
		}
		if seg.MemSize > 0 {
			lo, hi = min(lo, uint64(seg.Addr)), max(hi, end)
		}
	}
	if hi == 0 {
		return nil, fmt.Errorf("elf has no loadable segments")
	}
	if hi-lo > maxELFImage {
		return nil, fmt.Errorf("elf image span %d bytes exceeds the %d limit", hi-lo, maxELFImage)
	}
	bytes := make([]byte, hi-lo)
	for _, seg := range img.Segments {
		if len(seg.Data) > 0 {
			copy(bytes[uint64(seg.Addr)-lo:], seg.Data)
		}
	}
	return &asm.Program{Org: uint32(lo), Entry: img.Entry, Bytes: bytes, Symbols: img.Symbols}, nil
}

// LoadSource assembles source at the RAM base and loads it.
func (p *Platform) LoadSource(src string) (*asm.Program, error) {
	prog, err := asm.AssembleAt(src, RAMBase)
	if err != nil {
		return nil, err
	}
	if err := p.LoadProgram(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// Run executes until stop or budget exhaustion.
func (p *Platform) Run(budget uint64) emu.StopInfo {
	return p.Machine.Run(budget)
}

// runChunk is the cancellation granularity of RunContext: about 10 ms
// of emulation at edge-platform speeds, small enough that a cancelled
// job releases its worker promptly, large enough that the per-chunk
// bookkeeping is invisible in throughput.
const runChunk = 2_000_000

// RunContext is Run under a context: the budget is executed in bounded
// chunks with a cancellation check between them. Each chunk is charged
// in Run's own unit, attempted instructions (emu.Machine.Attempted), and
// budget stops are resumable, so an uncancelled RunContext(ctx, B)
// stops where Run(B) does. On cancellation the partial StopInfo (a
// budget stop at the current PC) is returned together with ctx.Err();
// budget 0 means unlimited, which with a cancellable context is safe
// against diverging guests.
func (p *Platform) RunContext(ctx context.Context, budget uint64) (emu.StopInfo, error) {
	var done uint64
	for {
		if err := ctx.Err(); err != nil {
			return emu.StopInfo{Reason: emu.StopBudget, PC: p.Machine.Hart.PC}, err
		}
		step := uint64(runChunk)
		if budget != 0 {
			if rem := budget - done; rem < step {
				step = rem
			}
		}
		before := p.Machine.Attempted()
		stop := p.Run(step)
		done += p.Machine.Attempted() - before
		if stop.Reason != emu.StopBudget || (budget != 0 && done >= budget) {
			return stop, nil
		}
	}
}

// Snapshot is a full platform checkpoint: hart, RAM and device state.
// It enables the restore-instead-of-rebuild pattern the fault campaigns
// use to recycle one platform across thousands of mutants. RAM is kept
// sparse: only the runs of pages written since the platform was built,
// since every other byte is still zero.
type Snapshot struct {
	hart   cpu.Hart
	ram    []ramRun // ascending, disjoint
	uart   dev.UARTState
	clint  dev.CLINTState
	sensor int
	dma    dev.DMAState
	plic   dev.PLICState
}

// ramRun is one run of written RAM: its bytes from absolute address lo.
type ramRun struct {
	lo   uint32
	data []byte
}

func (r ramRun) end() uint32 { return r.lo + uint32(len(r.data)) }

// Snapshot captures the current platform state.
func (p *Platform) Snapshot() *Snapshot {
	ram := p.ram()
	s := &Snapshot{
		hart:   p.Machine.Hart.Snapshot(),
		uart:   p.UART.Snapshot(),
		clint:  p.Clint.Snapshot(),
		sensor: p.Sensor.Pos(),
		dma:    p.DMA.Snapshot(),
		plic:   p.Plic.Snapshot(),
	}
	p.Machine.ForEachWrittenRange(func(lo, hi uint32) {
		s.ram = append(s.ram, ramRun{lo, append([]byte(nil), ram[lo-RAMBase:hi-RAMBase]...)})
	})
	return s
}

// fill writes the snapshot's RAM image over [lo, hi) of ram: each run's
// overlap is copied, and every byte no run covers, zero at snapshot
// time, is zeroed.
func (s *Snapshot) fill(ram []byte, lo, hi uint32) {
	i := sort.Search(len(s.ram), func(i int) bool { return s.ram[i].end() > lo })
	for ; lo < hi && i < len(s.ram) && s.ram[i].lo < hi; i++ {
		r := s.ram[i]
		if r.lo > lo {
			clear(ram[lo-RAMBase : r.lo-RAMBase])
			lo = r.lo
		}
		end := min(hi, r.end())
		copy(ram[lo-RAMBase:end-RAMBase], r.data[lo-r.lo:])
		lo = end
	}
	if lo < hi {
		clear(ram[lo-RAMBase : hi-RAMBase])
	}
}

// RestoreReuse rewinds the platform to a post-load snapshot of prog —
// the one platform rewind. Only the dirty ranges the machine tracked
// since the last rewind are rewritten from the snapshot: runs of dirty
// pages, trimmed byte-precisely to the store-watermark box at the
// extremes, so a scattered run (one store at the top of RAM, one at the
// bottom) costs two pages of copying, not the span between them. Bytes
// the sparse snapshot does not hold were zero when it was taken and are
// zeroed. Hart and device state are restored in full.
//
// s must have been taken immediately after loading prog (the fault
// campaign's base snapshot), and every RAM write since must be either a
// guest store or a Bus.WriteBytes.
//
// The rewind also decides which translations survive: they are kept
// (the warm cache is what makes recycling a platform pay) unless a
// translated block overlaps RAM dirtied since the previous rewind
// (Machine.CodePagesDirty), and then the whole cache is flushed. That
// one test suffices. At the previous rewind every cached block's bytes
// were the snapshot's, and every write since is in the dirty state, so
// a block translated from written bytes, or cached over bytes written
// later, overlaps a dirty page; a block a guest store hit was dropped
// at the store. A store to a data page inside the code's bounding box
// therefore keeps the cache. The dirty-state reset below also
// re-certifies an attached shared translation pool (emu.TBPool): pool
// validity is defined as "block bytes untouched since the last pristine
// rewind", and this is that rewind. prog identifies the image the
// snapshot contract is stated against; the copy source is the snapshot
// itself.
func (p *Platform) RestoreReuse(s *Snapshot, prog *asm.Program) {
	_ = prog
	if p.Machine.CodePagesDirty() {
		p.Machine.InvalidateTBs()
	}
	p.Machine.Hart.Restore(s.hart)
	ram := p.ram()
	var nbytes, pages uint64
	p.Machine.ForEachDirtyRange(func(lo, hi uint32) {
		s.fill(ram, lo, hi)
		nbytes += uint64(hi - lo)
		pages += uint64((hi-1)>>emu.DirtyPageShift) - uint64(lo>>emu.DirtyPageShift) + 1
	})
	p.noteRestore(nbytes, pages)
	p.Machine.ResetStoreWatermark()
	p.UART.Restore(s.uart)
	p.Clint.Restore(s.clint)
	p.Sensor.SetPos(s.sensor)
	p.DMA.Restore(s.dma)
	p.Plic.Restore(s.plic)
	p.Machine.FlushICache()
	p.Machine.ClearStop()
}

// Release zeroes the RAM pages the platform wrote and hands its RAM
// buffer back for the next New of the same size, then detaches the
// platform: any later use panics instead of touching a buffer another
// platform may own by now. It rests on the RestoreReuse contract (every
// RAM write visible to the dirty-state tracking), which is what makes
// the written pages the only non-zero ones. Releasing twice is a no-op.
func (p *Platform) Release() {
	ram := p.RAM.Bytes()
	if ram == nil {
		return
	}
	p.Machine.ForEachWrittenRange(func(lo, hi uint32) {
		clear(ram[lo-RAMBase : hi-RAMBase])
	})
	p.RAM.Release()
	p.Machine.DetachRAM()
}

// ram returns the RAM buffer, panicking once the platform is released.
func (p *Platform) ram() []byte {
	ram := p.RAM.Bytes()
	if ram == nil {
		panic("vp: platform used after Release")
	}
	return ram
}

// Output returns everything the program wrote to the UART.
func (p *Platform) Output() string { return p.UART.Output() }

// Prelude is assembly source defining the platform constants; workloads
// include it to reach the devices symbolically.
const Prelude = `
	.equ UART_BASE,   0x10000000
	.equ UART_TX,     0x10000000
	.equ SYSCON_BASE, 0x00100000
	.equ SYSCON_EXIT, 0x00100000
	.equ CLINT_BASE,  0x02000000
	.equ CLINT_MSIP,      0x02000000
	.equ CLINT_MTIMECMP,  0x02004000
	.equ CLINT_MTIMECMPH, 0x02004004
	.equ CLINT_MTIME,     0x0200bff8
	.equ SENSOR_BASE,   0x10010000
	.equ SENSOR_SAMPLE, 0x10010000
	.equ SENSOR_COUNT,  0x10010004
	.equ DMA_BASE,   0x10020000
	.equ DMA_RING,   0x10020000
	.equ DMA_COUNT,  0x10020004
	.equ DMA_CTRL,   0x10020008
	.equ DMA_STATUS, 0x1002000c
	.equ DMA_CLEAR,  0x10020010
	.equ DMA_HEAD,   0x10020014
	.equ PLIC_BASE,    0x10030000
	.equ PLIC_PENDING, 0x10030000
	.equ PLIC_ENABLE,  0x10030004
	.equ PLIC_CLAIM,   0x10030008
	.equ UART_RX,     0x10000004
	.equ UART_STATUS, 0x10000008
`
