// Package emu implements the RV32 instruction-set emulator at the heart
// of the virtual platform — the Go replacement for QEMU in the ecosystem.
// Like QEMU it executes code a translated block at a time: straight-line
// instruction sequences are decoded once, cached, and replayed, with
// instrumentation hooks (internal/plugin) dispatched at translation,
// block, instruction and memory granularity.
package emu

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/cpu"
	"repro/internal/decode"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/plugin"
	"repro/internal/timing"
)

// MaxTBInsts bounds translated-block length, like QEMU's TB size limit.
// Interrupts are polled at block boundaries, so it also bounds the
// straight-line run between two polls (the static IRT bound uses it).
const MaxTBInsts = 64

// jmpCacheSize is the direct-mapped TB jump cache size (power of two),
// the analog of QEMU's tb_jmp_cache sitting in front of the block map.
const jmpCacheSize = 1024

// DirtyPageShift/DirtyPageSize set the granularity of the dirty-page
// bitmap: 512-byte pages. Small enough that one scattered word costs one
// page of restore copying, large enough that the bitmap for the default
// 4 MiB platform RAM is 8192 bits (1 KiB) and a page test is one load.
const (
	DirtyPageShift = 9
	DirtyPageSize  = 1 << DirtyPageShift
)

// Engine selects how Run executes translated blocks.
type Engine uint8

const (
	// EngineSuperblock (the default) compiles every translated block to
	// micro-ops executed by one inline dispatch loop, follows
	// block-chaining links between hot blocks, and fuses hot multi-block
	// paths into superblock traces with guard ops at the former block
	// boundaries. Instructions without a micro-op run through the
	// interpreter's execOne, so semantics are defined once.
	EngineSuperblock Engine = iota
	// EngineSwitch re-dispatches the decoded instructions through the
	// interpreter switch on every execution: the reference the compiled
	// engine is differentially tested against, and the baseline of the
	// engine ablation.
	EngineSwitch
)

func (e Engine) String() string {
	if e == EngineSwitch {
		return "switch"
	}
	return "superblock"
}

// Engines lists the engines, default first.
func Engines() []Engine { return []Engine{EngineSuperblock, EngineSwitch} }

// EngineList is the engines' names, default first, for usage strings
// and error messages.
func EngineList() string {
	var names []string
	for _, e := range Engines() {
		names = append(names, e.String())
	}
	return strings.Join(names, ", ")
}

// EngineNames lists every spelling ParseEngine accepts, in the order the
// benchmark (perfbench) declares its emu.mips.engine.<name> metrics.
// Besides the engines' own names it keeps "threaded", the name of the
// retired closure-compiled engine, as an alias of the default engine, so
// scripts, journaled service jobs and declared metric names that carry
// it keep working. This is the single source of truth for engine-name
// validation: the CLIs and the job service all parse through
// ParseEngine.
func EngineNames() []string { return []string{"threaded", "switch", "superblock"} }

// ParseEngine maps an engine name to its Engine value. The empty string
// and the retired "threaded" select the default (superblock) engine; an
// unknown name is an error naming the engines.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "superblock", "threaded":
		return EngineSuperblock, nil
	case "switch":
		return EngineSwitch, nil
	}
	return EngineSuperblock, fmt.Errorf("unknown engine %q (%s)", name, EngineList())
}

// StopReason says why Run returned.
type StopReason uint8

const (
	StopNone   StopReason = iota
	StopExit              // software requested exit via the syscon device
	StopEbreak            // ebreak with HaltOnEbreak
	StopTrap              // trap raised with no handler installed (mtvec=0)
	StopBudget            // instruction budget exhausted
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "running"
	case StopExit:
		return "exit"
	case StopEbreak:
		return "ebreak"
	case StopTrap:
		return "unhandled trap"
	case StopBudget:
		return "budget exhausted"
	}
	return "stop?"
}

// StopInfo describes how a run ended.
type StopInfo struct {
	Reason StopReason
	Code   uint32 // exit code for StopExit
	Cause  uint32 // trap cause for StopTrap
	Tval   uint32 // trap value for StopTrap
	PC     uint32 // PC at stop
}

func (s StopInfo) String() string {
	switch s.Reason {
	case StopExit:
		return fmt.Sprintf("exit(%d) at pc=0x%08x", s.Code, s.PC)
	case StopTrap:
		return fmt.Sprintf("unhandled trap %q tval=0x%08x at pc=0x%08x",
			isa.ExcName(s.Cause), s.Tval, s.PC)
	default:
		return fmt.Sprintf("%s at pc=0x%08x", s.Reason, s.PC)
	}
}

// tbCode is the immutable, machine-independent part of a translated
// block: the decoded metadata plus the compiled micro-op form. Micro-ops
// take the Machine as an argument, so compiled code carries no
// per-machine state and one tbCode can back any number of machines —
// this is the unit of sharing in a TBPool. After a tbCode has been
// published to a pool it is strictly read-only; private blocks may still
// compile their ops lazily because they are owned by one machine.
type tbCode struct {
	info plugin.BlockInfo
	end  uint32 // exclusive upper address

	// ops is the compiled form, the block as a length-1 trace; compiled
	// lazily on first compiled execution (eagerly when the block is
	// frozen into a TBPool).
	ops []sbOp
}

// tb is one translated block as seen by one machine: the shared compiled
// part plus the per-machine mutable link state.
type tb struct {
	*tbCode

	// succ caches up to two successor blocks (fallthrough/taken of the
	// terminator), so hot loops chain block-to-block without touching
	// the lookup path. Severed on any invalidation. Links are strictly
	// per-machine: two workers sharing a pooled tbCode never see each
	// other's chains.
	succ [2]*tb

	// hot counts compiled-engine dispatches of this block; reaching
	// traceHotThreshold starts trace recording at this block. Strictly
	// per-machine, like the chain links.
	hot uint32

	// trace is the superblock trace entered at this block, if one has
	// been formed or adopted — the dispatch fast path, so hot blocks pay
	// no trace-map lookup. Cleared when the trace is invalidated.
	trace *traceCode

	// noTrace bans this block from trace profiling: its trace side-exited
	// far more often than it completed, so tracing it costs more than
	// block-at-a-time execution.
	noTrace bool

	// trRuns/trExits count completed and side-exited executions of this
	// block's trace, feeding the ban heuristic.
	trRuns, trExits uint64
}

// Machine is one emulated hart plus its bus, timing model and plugins.
// Each machine setting that translated code is specialized against has
// one encoding: the profile (never nil) and the op allowlist ops.
type Machine struct {
	Hart cpu.Hart
	Bus  *mem.Bus

	// prof is the cycle model, never nil. It and ext are fixed at New:
	// every translation is specialized against them, so no cached block
	// can outlive a change of either.
	prof *timing.Profile

	// IRQ, when non-nil, is the machine's one interrupt input: it is
	// ticked with the cycle counter at every full interrupt poll and its
	// MEIP, MTIP and MSIP lines are mirrored into mip. Both engines share
	// the poll points, so interrupt delivery is engine-independent by
	// construction. The devices behind it zero IRQDeadline.
	IRQ IRQSource

	// irqDeadline is the cycle before which an interrupt poll point
	// skips the poll: one compare per block boundary. A full poll sets it
	// to the earliest scheduled device event (IRQ.NextEvent); until then
	// a poll would tick no device, change no mip bit and deliver nothing,
	// unless something zeroes the deadline first.
	// Zeroing it forces the next poll point to poll. The devices do so
	// wherever an interrupt input or a next event can change (through
	// IRQDeadline), a CSR write or mret does so when it makes an
	// interrupt deliverable (or writes mip or the cycle counter), and
	// Run and Step do so for what host code may have changed between
	// runs (resumePolls).
	irqDeadline uint64

	// pollCycle is the cycle at the last interrupt poll point: the clock
	// the CLINT's mtime follows, so mtime advances at poll points (block
	// boundaries; every instruction under Step).
	pollCycle uint64

	// Hooks is the plugin registry.
	Hooks plugin.Hooks

	// ext is the ISA configuration the machine was built with; SetSubset
	// narrows its ops into ops.
	ext isa.ExtSet

	// ops is the instruction allowlist: the ISA's ops, narrowed by
	// SetSubset to a subset proven by the static subset analysis
	// (internal/subset). Executing an op outside it raises an
	// illegal-instruction trap, which is how the platform scales across
	// ISA-module configurations and emulates a subset-pruned core.
	ops isa.OpSet

	// HaltOnEbreak makes ebreak stop the machine instead of trapping.
	HaltOnEbreak bool

	// Engine selects the execution strategy; the zero value is the
	// compiled superblock engine.
	Engine Engine

	stop     *StopInfo
	tbs      map[uint32]*tb
	codeLo   uint32
	codeHi   uint32
	lastLoad isa.Reg // destination of the immediately preceding load, 0 if none

	// Double-trap guard: a synchronous exception taken with no
	// instruction retired since the previous one means the installed
	// handler's own entry faults — on real hardware an unrecoverable
	// trap loop, here a deterministic StopTrap (fault campaigns over
	// handler code hit this when a bit flip corrupts the first handler
	// instruction). Instret at a precise exception is engine-exact, so
	// the guard fires identically on every engine.
	excSeen    bool
	excInstret uint64

	// excTaken counts synchronous exceptions taken. An instruction that
	// raises one is attempted but not retired, and the budget counts
	// attempted instructions (see Attempted).
	excTaken uint64

	// pool is the attached shared translation pool (nil if none).
	pool *TBPool

	// jmp is the direct-mapped jump cache in front of the tbs map.
	jmp [jmpCacheSize]*tb

	// curTB is the block currently executing, so stores can tell whether
	// they invalidated the code under the program counter. While a
	// superblock trace executes it holds the trace's span block (covering
	// every constituent), so a store into any part of the trace forces a
	// side exit.
	curTB *tb

	// traces maps entry pc to the superblock traces this machine may
	// dispatch (privately formed or adopted from the pool's frozen tier).
	// Lazily allocated; only the compiled engine populates it.
	traces map[uint32]*traceCode

	// rec/recActive are the trace recorder: while recActive, each
	// dispatched block is appended to rec until the path closes a loop or
	// hits the length cap, at which point rec is fused into a trace.
	rec       []*tb
	recActive bool

	// sbPolled marks that a superblock guard already polled interrupts at
	// the current block boundary, so the engine loop must not poll again
	// before dispatching the next block (a double poll at an advanced
	// cycle count would be architecturally visible).
	sbPolled bool

	// ram/ramBase cache the bus's largest RAM region for the compiled
	// engine's inline load/store fast path; resolved lazily.
	ram     []byte
	ramBase uint32
	ramInit bool

	// storeLo/storeHi is the RAM store watermark: the byte-precise
	// bounding box of all data stores into RAM since the last
	// ResetStoreWatermark. It refines the dirty bitmap below to the byte
	// at its extremes — a fast disjointness reject for validity checks,
	// the trim of the outermost dirty ranges, and the bound for bitmap
	// clearing.
	storeLo uint32
	storeHi uint32

	// dirty is the page-granular dirty bitmap over the direct-RAM
	// region: bit p covers bytes [p<<DirtyPageShift, (p+1)<<DirtyPageShift)
	// relative to ramBase and is set by every store path (both engines
	// funnel through noteRAMStore) and every host write through the bus
	// (noteHostWrite). Invariant: set bits always lie inside the
	// watermark box, so ResetStoreWatermark clears only the words the box
	// covers. Empty when no direct RAM is mapped.
	dirty []uint64

	// written accumulates the dirty bits (ResetStoreWatermark folds in
	// the words it clears, ForEachWrittenRange all of them), so
	// written|dirty is every page written since the machine was built.
	// Same shape as dirty.
	written []uint64

	// stats holds the engine's lifetime performance counters. They are
	// plain (non-atomic) fields because a Machine is single-threaded;
	// the increments sit off the per-instruction path (translation,
	// invalidation, block lookup), so they stay on unconditionally.
	stats EngineStats

	// icache holds the direct-mapped I-cache tags (line address + 1;
	// zero = invalid) when the profile models one.
	icache []uint32
}

// New creates a machine on the given bus with ebreak halting, the cycle
// model prof (nil: timing.Unit(), 1 cycle per instruction) and the
// instruction set ext. Both are fixed for the machine's lifetime.
func New(bus *mem.Bus, prof *timing.Profile, ext isa.ExtSet) *Machine {
	if prof == nil {
		prof = timing.Unit()
	}
	m := &Machine{
		Bus:          bus,
		prof:         prof,
		ext:          ext,
		HaltOnEbreak: true,
		tbs:          make(map[uint32]*tb),
		storeLo:      ^uint32(0),
	}
	m.SetSubset(isa.OpSet{})
	m.Hart.Reset(0)
	bus.WriteNotify = m.noteHostWrite
	return m
}

// SetSubset narrows the instruction allowlist to the ISA's ops in s: the
// machine then traps (illegal instruction) on any op outside s, on every
// engine. The empty set removes the restriction, restoring every op of
// the ISA. Translations are specialized against the allowlist, so it
// flushes the translation cache (and, like fence.i, the modelled
// I-cache) and detaches an attached pool built under other ops.
func (m *Machine) SetSubset(s isa.OpSet) {
	m.ops = isa.OpSet{}
	for _, op := range isa.OpsIn(m.ext) {
		if s.Empty() || s.Has(op) {
			m.ops.Add(op)
		}
	}
	m.InvalidateTBs()
	m.AttachTBPool(m.pool)
}

// ensureRAM resolves the direct-RAM fast-path pointers once per machine
// and sizes the dirty-page bitmap to the region.
func (m *Machine) ensureRAM() {
	if !m.ramInit {
		m.ramBase, m.ram = m.Bus.DirectRAM()
		m.ramInit = true
		pages := (len(m.ram) + DirtyPageSize - 1) / DirtyPageSize
		m.dirty = make([]uint64, (pages+63)/64)
		m.written = make([]uint64, len(m.dirty))
	}
}

// DetachRAM drops the machine's direct-RAM region, its translations, any
// attached translation pool and its stop, for a platform whose RAM
// buffer has been handed back: every later run, fetch, load or store
// then goes through the bus to the released RAM and panics there,
// instead of reaching a buffer another platform may own by now.
func (m *Machine) DetachRAM() {
	m.InvalidateTBs()
	m.pool = nil
	m.stop = nil
	m.ram, m.ramInit = nil, true
}

// noteRAMStore folds a RAM data store into the store watermark and the
// dirty-page bitmap. Callers guarantee [addr, addr+size) lies inside the
// direct-RAM region, so the page indices need no clamping; an aligned
// store touches at most two pages.
func (m *Machine) noteRAMStore(addr uint32, size uint8) {
	if addr < m.storeLo {
		m.storeLo = addr
	}
	end := addr + uint32(size)
	if end > m.storeHi {
		m.storeHi = end
	}
	p := (addr - m.ramBase) >> DirtyPageShift
	m.dirty[p>>6] |= 1 << (p & 63)
	if lp := (end - 1 - m.ramBase) >> DirtyPageShift; lp != p {
		m.dirty[lp>>6] |= 1 << (lp & 63)
	}
}

// markDirtyPages sets the dirty bits for every page overlapping [lo, hi),
// clamped to the direct-RAM region (host-side writes may carry arbitrary
// addresses). The watermark is maintained by the callers.
func (m *Machine) markDirtyPages(lo, hi uint32) {
	m.ensureRAM()
	base := m.ramBase
	if top := base + uint32(len(m.ram)); hi > top {
		hi = top
	}
	if lo < base {
		lo = base
	}
	if lo >= hi {
		return
	}
	first := (lo - base) >> DirtyPageShift
	last := (hi - 1 - base) >> DirtyPageShift
	for p := first; p <= last; p++ {
		m.dirty[p>>6] |= 1 << (p & 63)
	}
}

// StoreWatermark returns the address range of RAM data stores since the
// last ResetStoreWatermark; lo > hi means no stores happened.
func (m *Machine) StoreWatermark() (lo, hi uint32) { return m.storeLo, m.storeHi }

// noteHostWrite is the bus write notification: the one path by which a
// write into RAM from outside the guest (the loader, the DMA engine, an
// injected fault) reaches the machine. Like a guest store, it folds
// [lo, hi) into the store watermark and the dirty-page bitmap, so the
// next rewind restores those bytes, and drops the translations over the
// range, so the next run executes the bytes now in RAM.
func (m *Machine) noteHostWrite(lo, hi uint32) {
	if lo < m.storeLo {
		m.storeLo = lo
	}
	if hi > m.storeHi {
		m.storeHi = hi
	}
	m.markDirtyPages(lo, hi)
	m.invalidateRange(lo, hi)
}

// ResetStoreWatermark clears the store watermark and the dirty-page
// bitmap. Since set bits always lie inside the watermark box, only the
// bitmap words the box covers are cleared — a rewind after a scattered
// run does not pay a full-bitmap clear, only a full-box one. The cleared
// words are first folded into the written-page bitmap, so no store path
// pays for keeping it.
func (m *Machine) ResetStoreWatermark() {
	if m.storeLo < m.storeHi {
		base := m.ramBase
		lo, hi := m.storeLo, m.storeHi
		if lo < base {
			lo = base
		}
		if top := base + uint32(len(m.ram)); hi > top {
			hi = top
		}
		if lo < hi {
			first := (lo - base) >> DirtyPageShift >> 6
			last := (hi - 1 - base) >> DirtyPageShift >> 6
			for i := first; i <= last; i++ {
				m.written[i] |= m.dirty[i]
				m.dirty[i] = 0
			}
		}
	}
	m.storeLo, m.storeHi = ^uint32(0), 0
}

// DirtyOverlaps reports whether any byte of [lo, hi) may have been
// written since the last ResetStoreWatermark. The watermark box gives a
// cheap byte-precise reject; inside the box the page bitmap refines the
// answer a word (64 pages) at a time, so a block between two scattered
// stores tests clean even though the box spans it. Outside direct RAM
// the bitmap cannot attest, so the box overlap is the conservative
// answer.
func (m *Machine) DirtyOverlaps(lo, hi uint32) bool {
	if lo >= hi || m.storeLo >= m.storeHi || hi <= m.storeLo || lo >= m.storeHi {
		return false
	}
	base := m.ramBase
	if top := base + uint32(len(m.ram)); hi > top {
		hi = top
	}
	if lo < base {
		lo = base
	}
	if lo >= hi {
		return true // outside direct RAM: the bitmap cannot attest
	}
	first := (lo - base) >> DirtyPageShift
	last := (hi - 1 - base) >> DirtyPageShift
	for i := first >> 6; i <= last>>6; i++ {
		w := m.dirty[i]
		if i == first>>6 {
			w &= ^uint64(0) << (first & 63)
		}
		if i == last>>6 {
			w &= ^uint64(0) >> (63 - last&63)
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// CodePagesDirty reports whether any translated block overlaps dirty
// state: the one test of whether a cached translation may be stale. A
// watermark box disjoint from the code bounding box answers without
// visiting a block; inside it, scattered data stores around a code
// region do not read as "code may be stale" — only a block whose own
// pages were written does.
func (m *Machine) CodePagesDirty() bool {
	if m.storeLo >= m.storeHi || m.storeHi <= m.codeLo || m.storeLo >= m.codeHi {
		return false
	}
	for _, t := range m.tbs {
		if m.DirtyOverlaps(t.info.PC, t.end) {
			return true
		}
	}
	return false
}

// ForEachDirtyRange calls fn for each maximal run of dirty pages as an
// absolute address range, clamped to the direct-RAM region and trimmed
// to the byte-precise watermark box at the extremes (so a lone store
// costs its bytes, not its whole page). Ranges arrive in ascending
// order. Only the bitmap words the box covers are walked, and all-zero
// words are skipped whole, so a scattered run (a data page at the bottom
// of RAM, the stack page at the top) costs its two runs, not the box's
// thousands of pages. This is the read side of the differential-restore
// path; it does not clear the state (ResetStoreWatermark does).
func (m *Machine) ForEachDirtyRange(fn func(lo, hi uint32)) {
	if m.storeLo >= m.storeHi {
		return
	}
	m.ensureRAM()
	base := uint64(m.ramBase)
	wlo, whi := max(uint64(m.storeLo), base), min(uint64(m.storeHi), base+uint64(len(m.ram)))
	if wlo >= whi {
		return
	}
	// Set bits lie inside the box, so its words need no masking.
	first := int((wlo - base) >> DirtyPageShift >> 6)
	last := int((whi - 1 - base) >> DirtyPageShift >> 6)
	pageRuns(m.dirty[first:last+1], func(a, e int) {
		lo := max(base+uint64(first*64+a)<<DirtyPageShift, wlo)
		hi := min(base+uint64(first*64+e)<<DirtyPageShift, whi)
		if lo < hi {
			fn(uint32(lo), uint32(hi))
		}
	})
}

// ForEachWrittenRange calls fn for each maximal run of pages written
// since the machine was built (written|dirty) as an absolute address
// range, clamped to the direct-RAM region, in ascending order. Every RAM
// byte outside these ranges still holds what it held when the machine was
// built, under the same contract as RestoreReuse: every RAM write is
// visible to the dirty-state tracking. The dirty bits are folded into
// the written bitmap first, which leaves the union unchanged.
func (m *Machine) ForEachWrittenRange(fn func(lo, hi uint32)) {
	base, top := uint64(m.ramBase), uint64(m.ramBase)+uint64(len(m.ram))
	for i, d := range m.dirty {
		m.written[i] |= d
	}
	pageRuns(m.written, func(a, e int) {
		lo := base + uint64(a)<<DirtyPageShift
		hi := min(base+uint64(e)<<DirtyPageShift, top)
		if lo < hi {
			fn(uint32(lo), uint32(hi))
		}
	})
}

// pageRuns calls fn(first, end) for each maximal run of set bits in a
// page bitmap (bit i&63 of words[i>>6] is page i), as the half-open page
// interval [first, end), in ascending order. Each run edge costs one
// trailing-zero count, so an all-zero or all-one word is crossed in one
// step, not 64.
func pageRuns(words []uint64, fn func(first, end int)) {
	run := -1 // first page of the open run, -1 if none
	for i, w := range words {
		for pos := 0; pos < 64; {
			if run < 0 {
				rest := w >> pos
				if rest == 0 {
					break
				}
				pos += bits.TrailingZeros64(rest)
				run = i*64 + pos
			} else {
				rest := ^w >> pos
				if rest == 0 {
					break // the run continues into the next word
				}
				pos += bits.TrailingZeros64(rest)
				fn(run, i*64+pos)
				run = -1
			}
		}
	}
	if run >= 0 {
		fn(run, len(words)*64)
	}
}

// FlushICache empties the modelled instruction cache without touching
// the translation cache (state rewinds use it so cycle counts never
// depend on what ran before).
func (m *Machine) FlushICache() { m.icache = nil }

// Reset clears architectural state and the translation cache, and boots
// at pc. A reset accompanies loading a new image, which defines the new
// pristine baseline: the store watermark and dirty-page bitmap are
// cleared (the loader's bus writes arrive through the write notification
// and must not read as mutated state afterwards), and any attached
// translation pool is detached — its blocks were compiled from the
// previous image and nothing tracks how the new one differs.
func (m *Machine) Reset(pc uint32) {
	m.Hart.Reset(pc)
	m.stop = nil
	m.excSeen = false
	m.InvalidateTBs()
	m.ResetStoreWatermark()
	m.lastLoad = 0
	m.icache = nil
	m.pool = nil
	m.irqDeadline, m.pollCycle = 0, 0
}

// icacheFetch simulates the instruction-cache lookup for one fetch and
// returns the accumulated miss penalty.
func (m *Machine) icacheFetch(pc uint32, size uint8) uint32 {
	p := m.prof
	lb := p.ICacheLineBytes
	if m.icache == nil {
		m.icache = make([]uint32, p.ICacheLines)
	}
	var pen uint32
	first := pc &^ (lb - 1)
	last := (pc + uint32(size) - 1) &^ (lb - 1)
	for line := first; ; line += lb {
		set := line / lb % p.ICacheLines
		if m.icache[set] != line+1 {
			m.icache[set] = line + 1
			pen += p.ICacheMissPenalty
		}
		if line == last {
			break
		}
	}
	return pen
}

// RequestStop asks the machine to stop with an exit code; the syscon
// device calls this.
func (m *Machine) RequestStop(code uint32) {
	m.stop = &StopInfo{Reason: StopExit, Code: code, PC: m.Hart.PC}
}

// Stopped returns the pending stop info, if any.
func (m *Machine) Stopped() *StopInfo { return m.stop }

// ClearStop discards a pending stop so the machine can run again after a
// snapshot restore.
func (m *Machine) ClearStop() { m.stop = nil; m.excSeen = false }

// InvalidateTBs drops the translation cache and the modelled I-cache
// (fence.i and the fault injector's instruction mutations call this).
func (m *Machine) InvalidateTBs() {
	// Sever chains first: a dropped block must never be reachable through
	// a surviving (or still-executing) block's successor links.
	for _, t := range m.tbs {
		m.severChain(t)
	}
	m.stats.TBsInvalidated += uint64(len(m.tbs))
	clear(m.tbs)
	m.codeLo, m.codeHi = ^uint32(0), 0
	m.icache = nil
	m.jmp = [jmpCacheSize]*tb{}
	m.dropAllTraces()
}

// dropAllTraces discards every superblock trace and aborts any trace
// recording in progress (full-flush invalidation path).
func (m *Machine) dropAllTraces() {
	if len(m.traces) > 0 {
		m.stats.TracesInvalidated += uint64(len(m.traces))
		clear(m.traces)
	}
	m.abortRecording()
}

// dropTracesOverlapping discards the traces whose constituent range
// overlaps [lo, hi) — range-precise trace invalidation, riding the same
// store watermark machinery as block invalidation — and aborts any
// recording (a recorded block may have just been dropped).
func (m *Machine) dropTracesOverlapping(lo, hi uint32) {
	for pc, tr := range m.traces {
		if lo < tr.hi && tr.lo < hi {
			// A surviving entry block may still carry the dispatch
			// pointer; sever it or the dead trace would keep running.
			if t := m.tbs[pc]; t != nil && t.trace == tr {
				t.trace = nil
			}
			delete(m.traces, pc)
			m.stats.TracesInvalidated++
		}
	}
	m.abortRecording()
}

// abortRecording discards the in-progress trace recording, if any.
func (m *Machine) abortRecording() {
	if m.recActive {
		m.recActive = false
		m.rec = m.rec[:0]
	}
}

// invalidateRange drops only the translated blocks overlapping [lo, hi)
// — the store-to-code path, where a full flush would retranslate the
// whole working set — and reports whether the currently executing block
// was dropped, so the execution loops know their compiled code is
// stale. A range outside the code bounding box returns at once.
// Otherwise all chains are severed (a surviving block may link to a
// dropped one) and the jump cache is cleared, but the modelled I-cache
// is preserved: a data store does not flush a hardware instruction
// cache, only fence.i does.
func (m *Machine) invalidateRange(lo, hi uint32) (hitCurrent bool) {
	if hi <= m.codeLo || lo >= m.codeHi {
		return false
	}
	newLo, newHi := ^uint32(0), uint32(0)
	for pc, t := range m.tbs {
		if lo < t.end && t.info.PC < hi {
			m.severChain(t)
			m.stats.TBsInvalidated++
			delete(m.tbs, pc)
			continue
		}
		m.severChain(t)
		if t.info.PC < newLo {
			newLo = t.info.PC
		}
		if t.end > newHi {
			newHi = t.end
		}
	}
	m.codeLo, m.codeHi = newLo, newHi
	m.jmp = [jmpCacheSize]*tb{}
	if len(m.traces) > 0 || m.recActive {
		m.dropTracesOverlapping(lo, hi)
	}
	return m.curTB != nil && lo < m.curTB.end && m.curTB.info.PC < hi
}

// EngineStats are the engine's lifetime performance counters, the
// regression surface for the translation-cache and chaining machinery:
// perf PRs compare these (jump-cache hit rate in particular), not just
// wall time.
type EngineStats struct {
	// TBsCompiled counts blocks translated, including retranslations
	// after invalidation or a subset change.
	TBsCompiled uint64
	// TBsInvalidated counts cached blocks dropped by fence.i, code
	// stores, resets and full flushes.
	TBsInvalidated uint64
	// JumpCacheHits/Misses count direct-mapped jump-cache lookups; a
	// miss falls through to the block map (and possibly a translation).
	JumpCacheHits   uint64
	JumpCacheMisses uint64
	// ChainFollows counts block transitions resolved through successor
	// links, bypassing jump cache and map entirely.
	ChainFollows uint64
	// ChainsSevered counts successor links cut by invalidations.
	ChainsSevered uint64
	// PoolHits counts blocks adopted from the attached shared translation
	// pool instead of being compiled privately.
	PoolHits uint64
	// PoolMisses counts translations of a pc the attached pool does not
	// cover at all (code the golden run never reached).
	PoolMisses uint64
	// OverlayCompiles counts private translations of a pc the pool does
	// cover but could not serve — the bytes under the block were written
	// since the last pristine rewind (a code-mutating fault, a store into
	// code).
	OverlayCompiles uint64
	// TracesFormed counts superblock traces fused from hot block paths
	// by this machine (pool adoptions are counted separately).
	TracesFormed uint64
	// TraceBlocksFused counts constituent blocks across formed traces;
	// TraceBlocksFused/TracesFormed is the average trace length.
	TraceBlocksFused uint64
	// TraceRuns counts fully retired trace executions (every guard taken
	// end to end).
	TraceRuns uint64
	// TraceSideExits counts trace executions that left early through a
	// guard (branch mispredict, interrupt) or a mid-trace divert (trap,
	// store into the trace's own code).
	TraceSideExits uint64
	// TracesInvalidated counts traces dropped by stores into their
	// range, fence.i, resets and full flushes.
	TracesInvalidated uint64
	// TracePoolHits counts traces adopted from the attached pool's
	// frozen-superblock tier instead of being re-formed privately.
	TracePoolHits uint64
	// FullPolls counts interrupt polls that asked the devices (see
	// Machine.irqDeadline); a program that touches no interrupt source
	// pays one, at its first block boundary.
	FullPolls uint64
	// IdleInsts counts the instructions retired by fast-forwarding idle
	// traces (execTrace) instead of executing them: how much of a run
	// waited for an interrupt.
	IdleInsts uint64
}

// TraceSideExitRate returns side exits / trace entries, or 0 with no
// trace executions — the superblock engine's quality metric (low means
// traces follow the hot path they were recorded from).
func (s EngineStats) TraceSideExitRate() float64 {
	total := s.TraceRuns + s.TraceSideExits
	if total == 0 {
		return 0
	}
	return float64(s.TraceSideExits) / float64(total)
}

// AvgTraceBlocks returns the average number of constituent blocks per
// formed trace, or 0 when none were formed.
func (s EngineStats) AvgTraceBlocks() float64 {
	if s.TracesFormed == 0 {
		return 0
	}
	return float64(s.TraceBlocksFused) / float64(s.TracesFormed)
}

// JumpCacheHitRate returns hits/(hits+misses), or 0 with no lookups.
func (s EngineStats) JumpCacheHitRate() float64 {
	total := s.JumpCacheHits + s.JumpCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.JumpCacheHits) / float64(total)
}

// Add accumulates other into s (campaign-style aggregation across
// worker machines).
func (s *EngineStats) Add(other EngineStats) {
	s.TBsCompiled += other.TBsCompiled
	s.TBsInvalidated += other.TBsInvalidated
	s.JumpCacheHits += other.JumpCacheHits
	s.JumpCacheMisses += other.JumpCacheMisses
	s.ChainFollows += other.ChainFollows
	s.ChainsSevered += other.ChainsSevered
	s.PoolHits += other.PoolHits
	s.PoolMisses += other.PoolMisses
	s.OverlayCompiles += other.OverlayCompiles
	s.TracesFormed += other.TracesFormed
	s.TraceBlocksFused += other.TraceBlocksFused
	s.TraceRuns += other.TraceRuns
	s.TraceSideExits += other.TraceSideExits
	s.TracesInvalidated += other.TracesInvalidated
	s.TracePoolHits += other.TracePoolHits
	s.FullPolls += other.FullPolls
	s.IdleInsts += other.IdleInsts
}

// Stats returns a snapshot of the engine counters.
func (m *Machine) Stats() EngineStats { return m.stats }

// severChain cuts a block's successor links, keeping the severed-link
// counter honest across every invalidation path.
func (m *Machine) severChain(t *tb) {
	if t.succ[0] != nil {
		t.succ[0] = nil
		m.stats.ChainsSevered++
	}
	if t.succ[1] != nil {
		t.succ[1] = nil
		m.stats.ChainsSevered++
	}
}

// translate builds (or fetches) the translated block starting at pc,
// consulting the private cache first, then the attached shared pool,
// then decoding from memory.
func (m *Machine) translate(pc uint32) (*tb, mem.Fault) {
	if t, ok := m.tbs[pc]; ok {
		return t, mem.Fault{}
	}
	if t := m.poolFetch(pc); t != nil {
		return t, mem.Fault{}
	}
	var insts []decode.Inst
	var addrs []uint32
	addr := pc
	for len(insts) < MaxTBInsts {
		lo, f := m.Bus.Fetch16(addr)
		if f.Raised {
			if len(insts) == 0 {
				return nil, f
			}
			break // block ends at the edge of fetchable memory
		}
		var in decode.Inst
		if decode.IsCompressed(lo) {
			in = decode.Decode16(lo)
		} else {
			hi, f := m.Bus.Fetch16(addr + 2)
			if f.Raised {
				if len(insts) == 0 {
					return nil, f
				}
				break
			}
			in = decode.Decode32(uint32(lo) | uint32(hi)<<16)
		}
		insts = append(insts, in)
		addrs = append(addrs, addr)
		if !m.ops.Has(in.Op) || in.Op.IsControlFlow() {
			break // terminator: executing it traps or transfers control
		}
		if in.Op == isa.OpWFI || in.Op == isa.OpFENCEI {
			break // serializing instructions end the block
		}
		addr += uint32(in.Size)
	}
	c := &tbCode{info: plugin.BlockInfo{PC: pc, Insts: insts, Addrs: addrs}}
	c.end = pc + c.info.Size()
	t := &tb{tbCode: c}
	m.stats.TBsCompiled++
	if p := m.pool; p != nil {
		// The pool covers this pc but could not serve it (mutated bytes
		// under the block): this translation is a
		// private overlay compile on top of the shared pool.
		if _, ok := p.blocks[pc]; ok {
			m.stats.OverlayCompiles++
		} else {
			m.stats.PoolMisses++
		}
	}
	m.install(t)
	return t, mem.Fault{}
}

// install publishes a block (freshly translated or adopted from the
// pool) into the private cache and the code-range bookkeeping.
func (m *Machine) install(t *tb) {
	pc := t.info.PC
	m.tbs[pc] = t
	if pc < m.codeLo {
		m.codeLo = pc
	}
	if t.end > m.codeHi {
		m.codeHi = t.end
	}
	m.Hooks.Translate(t.info)
}

// lookupTB returns the block at pc, consulting the jump cache before the
// block map and translating on miss. A fetch fault is turned into a trap
// and nil is returned.
func (m *Machine) lookupTB(pc uint32) *tb {
	slot := pc >> 1 & (jmpCacheSize - 1)
	if t := m.jmp[slot]; t != nil && t.info.PC == pc {
		m.stats.JumpCacheHits++
		return t
	}
	m.stats.JumpCacheMisses++
	t, f := m.translate(pc)
	if f.Raised {
		m.trap(f.Cause, f.Addr, pc)
		return nil
	}
	m.jmp[slot] = t
	return t
}

// IRQSource is the machine's interrupt input (the platform's interrupt
// controller, timer and the devices behind them): Tick advances it to
// the hart's cycle, Lines reports the levels of the MEIP, MTIP and MSIP
// bits of mip (other bits are ignored) and NextEvent the earliest cycle
// at which a Tick or a timer would change a line (ok=false if none is
// scheduled). Lines and NextEvent must not change state.
type IRQSource interface {
	Tick(cycle uint64)
	Lines() uint32
	NextEvent() (uint64, bool)
}

// irqLines is the mip mask an IRQSource drives.
const irqLines = 1<<isa.IntMachineExternal | 1<<isa.IntMachineTimer | 1<<isa.IntMachineSoftware

// IRQDeadline returns the address of the machine's interrupt-poll
// deadline, for the devices to zero (the IRQDeadline field of dev.CLINT,
// dev.UART, dev.DMAStream and dev.PLIC).
func (m *Machine) IRQDeadline() *uint64 { return &m.irqDeadline }

// PollCycle returns the cycle at the last interrupt poll point, the
// clock the CLINT's mtime follows (dev.CLINT.Now).
func (m *Machine) PollCycle() uint64 { return m.pollCycle }

// pollPoint is an interrupt poll point (every block boundary; every
// instruction under Step): it advances the mtime clock and polls once
// the cycle counter reaches the deadline.
func (m *Machine) pollPoint() {
	m.pollCycle = m.Hart.Cycle
	if m.Hart.Cycle >= m.irqDeadline {
		m.pollInterrupts()
	}
}

// pollInterrupts is the full interrupt poll: it ticks the devices to the
// current cycle, mirrors their levels into mip, sets the deadline to the
// earliest scheduled device event and takes a pending interrupt if one
// is deliverable. A Tick that zeroes the deadline is answered by this
// same poll, so the deadline is set only after the devices ran.
func (m *Machine) pollInterrupts() {
	h := &m.Hart
	m.stats.FullPolls++
	next := ^uint64(0)
	if m.IRQ != nil {
		m.IRQ.Tick(h.Cycle)
		h.Mip = h.Mip&^irqLines | m.IRQ.Lines()&irqLines
		if at, ok := m.IRQ.NextEvent(); ok {
			next = at
		}
	}
	m.irqDeadline = next
	if h.Mip&h.Mie == 0 {
		return // the usual case, settled without PendingInterrupt
	}
	if cause, ok := h.PendingInterrupt(); ok {
		m.trap(cause|1<<31, 0, h.PC)
	}
}

// wakeIfDeliverable zeroes the deadline when an interrupt is
// deliverable, so the next poll point takes it. Writes to mstatus and
// mie and mret call it: they change what is deliverable but nothing a
// device reports, so any other write leaves the last poll's answer
// standing — which keeps the wfi/critical-section idle loop of the
// interrupt demonstrators at one compare per boundary.
func (m *Machine) wakeIfDeliverable() {
	h := &m.Hart
	if h.Mstatus&isa.MstatusMIE != 0 && h.Mip&h.Mie != 0 {
		m.irqDeadline = 0
	}
}

// resumePolls re-arms the poll for what host code may have changed since
// the machine last ran: a cycle counter moved back behind the last poll
// point (a timer pending then may not be now), or hart state written
// directly that makes an interrupt deliverable. Host calls on the
// devices zero the deadline themselves.
func (m *Machine) resumePolls() {
	if m.Hart.Cycle < m.pollCycle {
		m.irqDeadline = 0
	}
	m.wakeIfDeliverable()
}

// trap takes a trap or stops the machine if no handler is installed.
func (m *Machine) trap(cause, tval, pc uint32) {
	h := &m.Hart
	m.Hooks.Trap(cause, tval, pc)
	if cause>>31 == 0 {
		m.excTaken++
		if h.Mtvec == 0 {
			// Exceptions without a handler stop the simulation: the usual
			// configuration for bare test programs.
			m.stop = &StopInfo{Reason: StopTrap, Cause: cause, Tval: tval, PC: pc}
			return
		}
		if m.excSeen && h.Instret == m.excInstret {
			// Double trap: the handler entry itself faulted, so vectoring
			// again can only loop without retiring — stop instead.
			m.stop = &StopInfo{Reason: StopTrap, Cause: cause, Tval: tval, PC: pc}
			return
		}
		m.excSeen, m.excInstret = true, h.Instret
	}
	h.Trap(cause, tval, pc)
	h.Cycle += uint64(m.prof.TrapPenalty)
	m.lastLoad = 0
}

// Run executes until the machine stops or the instruction budget is
// exhausted. The budget counts attempted instructions (see Attempted);
// budget 0 means unlimited (dangerous with diverging code).
// The engines are architecturally equivalent: same Instret, Cycle,
// registers, memory and traps for any program.
func (m *Machine) Run(budget uint64) StopInfo {
	if m.Engine == EngineSwitch {
		return m.runSwitch(budget)
	}
	return m.runSuperblock(budget)
}

// Attempted counts the instructions the machine has attempted: retired
// ones plus those that raised a synchronous exception. It is the unit of
// Run's budget, so a caller that splits one budget across several Runs
// charges each the difference of this, not of Hart.Instret; compiled
// code, which only learns the count after the fact, does the same.
func (m *Machine) Attempted() uint64 { return m.Hart.Instret + m.excTaken }

// finishRun returns the stop that ended a Run. A budget stop is
// resumable: it is cleared so Run can be called again.
func (m *Machine) finishRun() StopInfo {
	s := *m.stop
	if s.Reason == StopBudget {
		m.stop = nil
	}
	return s
}

// runSwitch is the interpreter-switch engine: every block execution
// re-dispatches each decoded instruction through execOne's switch.
func (m *Machine) runSwitch(budget uint64) StopInfo {
	h := &m.Hart
	m.ensureRAM()
	m.resumePolls()
	left := budget
	for m.stop == nil {
		m.pollPoint()
		if m.stop != nil {
			break
		}
		if t := m.lookupTB(h.PC); t != nil {
			m.interpBlock(t, budget, &left)
		}
	}
	return m.finishRun()
}

// interpBlock runs one block through the interpreter switch, with block
// and instruction hooks, per-instruction budget accounting and the
// budget stop. It is the whole of the switch engine's block execution,
// and the compiled engine's path for hooked runs and for a budget that
// ends inside the block.
func (m *Machine) interpBlock(t *tb, budget uint64, left *uint64) {
	h := &m.Hart
	if m.Hooks.HasBlockHooks() {
		m.Hooks.BlockExec(t.info)
	}
	m.lastLoad = 0 // hazard state does not cross block boundaries
	m.curTB = t
	diverted := false
	for i, in := range t.info.Insts {
		if budget != 0 && *left == 0 {
			m.stop = &StopInfo{Reason: StopBudget, PC: h.PC}
			break
		}
		if m.Hooks.HasInsnHooks() {
			m.Hooks.InsnExec(t.info.Addrs[i], in)
		}
		diverted = m.execOne(in)
		if budget != 0 {
			*left--
		}
		if diverted || m.stop != nil {
			break
		}
	}
	m.curTB = nil
	if m.stop == nil && !diverted && budget != 0 && *left == 0 {
		m.stop = &StopInfo{Reason: StopBudget, PC: h.PC}
	}
}

// Step executes exactly one instruction (no block caching), polling for
// interrupts before it. It is the reference the engines are tested
// against and the stepper of the lockstep example; no tool or fault
// campaign drives a run with it (every mutant runs under Run).
func (m *Machine) Step() *StopInfo {
	if m.stop != nil {
		return m.stop
	}
	m.ensureRAM()
	m.resumePolls()
	m.pollPoint()
	if m.stop != nil {
		return m.stop
	}
	h := &m.Hart
	pc := h.PC
	lo, f := m.Bus.Fetch16(pc)
	if f.Raised {
		m.trap(f.Cause, f.Addr, pc)
		return m.stop
	}
	var in decode.Inst
	if decode.IsCompressed(lo) {
		in = decode.Decode16(lo)
	} else {
		hi, f := m.Bus.Fetch16(pc + 2)
		if f.Raised {
			m.trap(f.Cause, f.Addr, pc)
			return m.stop
		}
		in = decode.Decode32(uint32(lo) | uint32(hi)<<16)
	}
	if m.Hooks.HasInsnHooks() {
		m.Hooks.InsnExec(pc, in)
	}
	m.execOne(in)
	return m.stop
}

// UART-style convenience: expose the translation cache size for the
// ablation benchmarks.
func (m *Machine) CachedBlocks() int { return len(m.tbs) }
