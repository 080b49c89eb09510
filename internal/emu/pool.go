package emu

import (
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/timing"
)

// This file implements the shared translation pool: cross-machine reuse
// of compiled translated blocks. A fault campaign runs thousands of
// byte-identical mutants of one code image across N worker machines;
// without sharing, every worker compiles its own private copy of the
// same working set — pure duplicated warmup that grows linearly with the
// worker count. A TBPool freezes the compiled state of one machine
// (typically the golden run's) into an immutable, generation-tagged map
// of tbCode blocks that any number of machines can attach and adopt
// blocks from concurrently, read-only.
//
// Validity contract. A pooled block was compiled from the pool image:
// the RAM bytes the donor machine translated. An attached machine may
// adopt a block only while the bytes under it still equal that image.
// The machine's dirty-state tracking — the byte-precise store watermark
// box refined by the page-granular dirty bitmap — covers every RAM
// write since the last rewind to the pristine image: guest stores on
// all engine paths, plus host-side writes folded in via NoteRAMWrite /
// NoteRAMWriteRange and the bus write notification. Adoption asks
// DirtyOverlaps(block range): disjoint from the watermark box, or
// inside the box but touching no dirty page, certifies the bytes are
// untouched — so scattered data stores around a code region no longer
// force overlay compiles of blocks between them. Blocks whose range
// does overlap dirty pages take a private overlay compile instead
// (counted in EngineStats.OverlayCompiles); the pool itself is never
// invalidated by a code-mutating fault. A dirty-state reset
// (ResetStoreWatermark) must therefore coincide with RAM returning to
// the pristine image, which is exactly the contract
// vp.Platform.RestoreReuse already maintains.
//
// Adopted blocks are wrapped in a private tb (per-machine chain links)
// and inserted into the machine's private cache, so store-to-code
// invalidation, jump caching and block chaining treat them exactly like
// privately compiled blocks. Invalidate bumps the pool generation:
// machines stop adopting new blocks immediately (the generation check in
// the lookup path), while already-adopted blocks remain valid until the
// owning machine's own invalidation — they were certified against the
// image at adoption time and per-machine invalidation rules keep them
// sound from there.

// TBPool is a read-only pool of compiled translation blocks shared
// across machines. Build one with Machine.BuildTBPool after a warmup run
// and attach it to any machine executing the same code image with
// Machine.AttachTBPool. All methods are safe for concurrent use; the
// block map is immutable after construction.
type TBPool struct {
	gen    atomic.Uint64
	prof   *timing.Profile
	ext    isa.ExtSet
	sub    isa.OpSet
	blocks map[uint32]*tbCode
	lo, hi uint32 // address range covered by pooled blocks

	// traces is the frozen-superblock tier: compiled traces the donor
	// machine formed (superblock engine only), published read-only so
	// attached machines warm-start with fused hot paths instead of
	// re-profiling. Adoption requires the trace's whole range untouched
	// per the adopter's dirty state; mutated ranges fall back to
	// private re-formation, the trace analog of an overlay compile.
	traces map[uint32]*traceCode
}

// BuildTBPool freezes the machine's current translation cache into a
// shareable pool: every cached block matching the machine's current
// profile/ISA specialization — and whose bytes are untouched per the
// machine's dirty state, so the compilation still reflects the
// pristine image — is compiled (if it has not been yet) and published.
// The machine keeps its private cache; the returned pool holds only the
// immutable compiled parts. Returns an empty pool when the cache is
// empty.
func (m *Machine) BuildTBPool() *TBPool {
	p := &TBPool{
		prof:   m.Profile,
		ext:    m.ISA,
		sub:    m.subset,
		blocks: make(map[uint32]*tbCode, len(m.tbs)),
		lo:     ^uint32(0),
	}
	for pc, t := range m.tbs {
		if t.prof != m.Profile || t.ext != m.ISA || t.sub != m.subset {
			continue // stale specialization; do not publish
		}
		if m.DirtyOverlaps(pc, t.end) {
			// The donor wrote bytes under this block since its last
			// pristine rewind: the compilation may not match the image
			// other machines will run. Keep it private.
			continue
		}
		if t.ops == nil {
			// Freeze eagerly: pooled blocks must never be mutated after
			// publication, so lazy compilation cannot cross the pool
			// boundary (it would race between attached machines).
			t.tbCode.compile()
		}
		p.blocks[pc] = t.tbCode
		if pc < p.lo {
			p.lo = pc
		}
		if t.end > p.hi {
			p.hi = t.end
		}
	}
	for pc, tr := range m.traces {
		if tr.prof != m.Profile || tr.ext != m.ISA || tr.sub != m.subset {
			continue
		}
		if m.DirtyOverlaps(tr.lo, tr.hi) {
			// Same pristine-image rule as blocks, over the trace's whole
			// constituent range.
			continue
		}
		if p.traces == nil {
			p.traces = make(map[uint32]*traceCode)
		}
		p.traces[pc] = tr
	}
	return p
}

// Size returns the number of pooled blocks.
func (p *TBPool) Size() int { return len(p.blocks) }

// Traces returns the number of traces in the frozen-superblock tier.
func (p *TBPool) Traces() int { return len(p.traces) }

// CodeRange returns the address range covered by pooled blocks; lo > hi
// means the pool is empty.
func (p *TBPool) CodeRange() (lo, hi uint32) { return p.lo, p.hi }

// Generation returns the pool's current generation tag.
func (p *TBPool) Generation() uint64 { return p.gen.Load() }

// Invalidate retires the pool's contents by bumping its generation:
// the generation check fails for every machine — attached now or later —
// so no further blocks are adopted. Blocks a machine already adopted
// stay with that machine until its own invalidation (they were validated
// against the image at adoption time).
func (p *TBPool) Invalidate() { p.gen.Add(1) }

// AttachTBPool attaches a shared translation pool to the machine.
// Lookups consult the pool after the private cache; blocks are adopted
// only while the machine's profile/ISA match the pool's specialization,
// the pool has not been invalidated, and the block's bytes are untouched
// per the dirty-state check (DirtyOverlaps). Attaching nil detaches.
func (m *Machine) AttachTBPool(p *TBPool) {
	m.pool = p
	// Pools are born at generation 0 and an invalidation is forever, so
	// the recorded generation is the birth one — a machine attaching
	// after Invalidate must not adopt retired blocks either.
	m.poolGen = 0
}

// DetachTBPool detaches the shared pool; already-adopted blocks remain
// in the private cache.
func (m *Machine) DetachTBPool() { m.pool = nil }

// TBPoolAttached reports whether a shared pool is attached.
func (m *Machine) TBPoolAttached() bool { return m.pool != nil }

// activePool returns the attached pool if it is currently usable for
// this machine: generation agrees and the machine's specialization
// matches the pool's.
func (m *Machine) activePool() *TBPool {
	p := m.pool
	if p == nil || p.prof != m.Profile || p.ext != m.ISA ||
		p.sub != m.subset || p.gen.Load() != m.poolGen {
		return nil
	}
	return p
}

// poolFetch tries to adopt the block at pc from the attached pool. On
// success the block is installed into the private cache (wrapped with
// fresh per-machine link state) and returned; nil means the pool cannot
// serve this pc and the caller should translate privately.
func (m *Machine) poolFetch(pc uint32) *tb {
	p := m.activePool()
	if p == nil {
		return nil
	}
	c := p.blocks[pc]
	if c == nil {
		return nil // accounted as PoolMisses by the translate path
	}
	if m.DirtyOverlaps(pc, c.end) {
		// Bytes under the block were written since the last pristine
		// rewind (code-mutating fault, store into code): the pooled
		// compilation no longer matches memory. Fall through to a
		// private overlay compile of the current bytes.
		return nil
	}
	m.stats.PoolHits++
	t := &tb{tbCode: c}
	m.install(t)
	return t
}
