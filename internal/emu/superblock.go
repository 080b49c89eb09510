package emu

import (
	"math/bits"

	"repro/internal/decode"
	"repro/internal/isa"
	"repro/internal/plugin"
	"repro/internal/timing"
)

// This file implements the superblock engine, the compiled execution
// engine: every translated block is compiled to a slice of sbOp
// micro-ops (a length-1 trace) executed by one inline switch, and hot
// multi-block paths are fused into longer traces, the next speed tier on
// QEMU/TCG's own block-chaining → trace-fusion evolution. The micro-op
// array is the engine's one IR: a fused trace is its blocks' micro-ops
// joined by guard ops, run by the same dispatch loop.
//
// Hot blocks are profiled with per-block dispatch counters; once a block
// crosses traceHotThreshold the engine records the dynamically executed
// block path (NET-style: follow execution until the path closes a loop
// back onto its head or reaches the length cap) and fuses it into one
// trace spanning all constituent blocks.
//
// Instructions without a micro-op encoding (counter and unknown CSRs,
// FP, system ops, every instruction under an I-cache profile, whose
// fetch cost is dynamic) compile to an sbExec op that runs the
// interpreter's execOne with exact architectural state materialized
// first, so instruction semantics stay defined once, in exec.go. Two
// micro-ops reuse the interpreter's definitions without that flush:
// sbCSR runs execCSR on the machine CSRs whose access cannot trap and
// reads no counter (the mstatus toggles of interrupt firmware's
// critical sections), and sbMulDyn costs an early-out mul/div with the
// profile's DynamicCost, adding the cycles straight to the counter so
// the deferred cycle count stays a compile-time constant.
//
// The mechanisms that keep compiled code bit-exact:
//
//   - Deferred accounting. Register ops, loads and stores carry no
//     accounting at all. The pending (instret, cycle) deltas are
//     compile-time constants — cycle costs come from the profile's
//     StaticPlan, which already includes the intra-block load-use
//     stalls — flushed by an sbAcct op immediately before anything that
//     can trap, divert or observe the counters. Branches and jumps fold
//     the flush into their own retire. The invariant: whenever pending
//     accounting is nonzero, a later op flushes it (and sets the PC)
//     before any observer can read architectural state.
//
//   - Hazard state. Only execOne reads the load-use hazard state, so
//     micro-ops never maintain it: an sbExec op sets it from the value
//     the interpreter would hold at that point of the block, known at
//     compile time because hazards do not cross block boundaries.
//
//   - Loads and stores. In-RAM aligned accesses run inline. The slow
//     path (device access, misalignment, store into code) flushes the
//     pending snapshot carried by the op, performs the access through
//     the bus with exact state, and either compensates the flush back
//     out (successful device access — the op rejoins the deferral) or
//     leaves with exact state (trap, code invalidation, stop).
//
//   - Constant folding. A lui/auipc feeding an immediately following
//     addi into the same register (the canonical 32-bit constant and
//     `la` idioms) is folded into one sbConst writing the precomputed
//     value. Nothing observes the register between the pair.
//
//   - Guard ops. At each former block boundary inside a trace the guard
//     flushes pending accounting, polls interrupts exactly where the
//     block loop would, and side-exits when the PC does not match the
//     recorded next block (branch mispredict, or an interrupt
//     redirecting control flow). Interrupt delivery timing is therefore
//     bit-identical to block-at-a-time execution.
//
// A store into the running code is detected through the store-to-code
// machinery: Machine.curTB holds the running block (or, for a trace, its
// span block covering every constituent), so memStore's range
// invalidation reports a hit and the store leaves the op sequence; the
// invalidation itself drops exactly the blocks and traces overlapping
// the written range.
//
// Idle traces. Interrupt firmware waits for its next device event in a
// self-looping trace (wfi, a critical section, a flag test), and
// execTrace jumps such a loop to its last run before that event. The
// skip is exact: the static rule (idleTrace: no store, no interpreter
// call, CSR ops only rd=x0 writes of mstatus/mie, every register the
// trace writes written before it is read) leaves a run's values to
// registers it never writes, RAM and mstatus/mie; the dynamic check
// (skipIdle: those CSRs back at their values, no full poll, no slow
// load) shows the run changed none of them; and the skipped runs are
// only those whose every poll point lies before the interrupt deadline,
// where a poll does nothing, and that the budget gate admits.
//
// Compiled code only runs when no plugin hooks are registered and the
// remaining budget outlasts the whole block or trace, so per-instruction
// hook dispatch and budget stops never happen inside it; either gate
// sends the block through the interpreter switch loop (interpBlock),
// which is trivially equivalent. Traces whose side exits dwarf their
// completed runs (a mispredicted recording, e.g. a data-dependent
// branch) are dropped and their entry block banned from re-profiling.

const (
	// traceHotThreshold is the number of dispatches of one block before
	// trace recording starts there. Edge workloads have short trip counts
	// (xtea runs its round loop 32 times), so the threshold is low:
	// recording costs one loop iteration and fusing is cheap, while a
	// late trace misses most of the loop's executions.
	traceHotThreshold = 8
	// maxTraceBlocks caps the number of blocks fused into one trace.
	maxTraceBlocks = 8
	// traceBanExits and traceBanRatio define the drop heuristic: once a
	// trace has side-exited more than traceBanExits times and more than
	// traceBanRatio times as often as it completed, its entry block is
	// banned from tracing.
	traceBanExits = 32
	traceBanRatio = 3
)

// sbOp micro-op kinds. sbExec is the escape hatch to the interpreter;
// everything else is encoded inline.
const (
	sbExec uint8 = iota
	sbConst
	sbAddi
	sbSlti
	sbSltiu
	sbAndi
	sbOri
	sbXori
	sbSlli
	sbSrli
	sbSrai
	sbRoti
	sbBexti
	sbAdd
	sbSub
	sbMv
	sbAnd
	sbOr
	sbXor
	sbSll
	sbSrl
	sbSra
	sbSlt
	sbSltu
	sbMul
	sbBin
	sbMulDyn
	sbCSR
	sbLw
	sbLh
	sbLhu
	sbLb
	sbLbu
	sbSw
	sbSh
	sbSb
	sbBeq
	sbBne
	sbBlt
	sbBge
	sbBltu
	sbBgeu
	sbJal
	sbJalr
	sbAcct
	sbGuard
)

// sbOp is one micro-op. Field meaning depends on kind:
//
//	ALU kinds    rd/rs1/rs2 registers, imm the (pre-sign-extended or
//	             precomputed) immediate; sbBin holds its isa.Op in imm.
//	             No accounting: the op is part of a deferred run.
//	mem kinds    rd/rs1/rs2 and imm as decoded (stores keep the value
//	             register in rs2 and the instruction size in rd); pc is
//	             the instruction's address; n/aux snapshot the pending
//	             (instret, cycle) deferral before the op, for the slow
//	             path's flush-and-compensate; pen is the op's own cycle
//	             cost.
//	branch/jump  imm the taken target (jalr: the immediate), pc the
//	             fallthrough/link address, n/aux the pending deferral
//	             including the op's own cost, pen the extra taken-branch
//	             penalty. The op folds the accounting flush into its own
//	             retire.
//	sbAcct       flush: instret += n, cycle += aux, PC = imm.
//	sbGuard      flush n/aux, set PC = pc when rs1 != 0 (bare
//	             fallthrough tail), poll interrupts, side-exit unless
//	             PC == imm (the recorded next block).
//	sbMulDyn     an early-out mul/div: rd/rs1/rs2, imm its isa.Op, in
//	             the instruction for DynamicCost, pen its load-use stall.
//	             Its cycles go straight to the counter, its instret to
//	             the deferral.
//	sbCSR        in is the Zicsr instruction for execCSR, rs1 its source
//	             register. Part of a deferred run, like an ALU kind.
//	sbExec       in is the instruction for execOne, rd the load-use
//	             hazard register the interpreter holds before it.
type sbOp struct {
	in   *decode.Inst
	imm  uint32
	aux  uint32
	pc   uint32
	n    uint16
	pen  uint16
	kind uint8
	rd   uint8
	rs1  uint8
	rs2  uint8
}

// traceCode is one immutable compiled superblock trace: the flattened
// micro-op slice spanning every constituent block. Like tbCode it is
// machine-independent and strictly read-only after construction, so a
// TBPool can publish it to any number of machines.
type traceCode struct {
	entry  uint32
	blocks []*tbCode
	ops    []sbOp
	// nInsts is the architectural instruction count of a fully taken
	// trace execution; the budget gate admits a trace only when more
	// than this many instructions remain.
	nInsts uint64
	// lo/hi bound the constituent blocks' address ranges (conservative
	// for non-contiguous traces); trace invalidation keys off them.
	lo, hi uint32
	// span is a synthetic block covering [lo, hi), installed as curTB
	// while the trace executes so a store into any constituent forces a
	// side exit through the store-to-code path.
	span *tb
	// idle marks a trace whose runs all compute the same values
	// (idleTrace), which execTrace may fast-forward.
	idle bool
}

// runSuperblock is the compiled engine loop: block lookup and chaining,
// trace dispatch, hot-block profiling and trace recording. Trace
// dispatch rides the resolved block (tb.trace), so the hot path pays no
// map lookup — the trace map is only consulted when a block first
// crosses the hotness threshold.
func (m *Machine) runSuperblock(budget uint64) StopInfo {
	h := &m.Hart
	m.ensureRAM()
	m.resumePolls()
	m.sbPolled = false
	left := budget
	var cur, prev *tb
	for m.stop == nil {
		if m.sbPolled {
			// A guard already polled at this boundary; polling again at
			// the advanced cycle count would be architecturally visible.
			m.sbPolled = false
		} else {
			// Interrupts are polled once per block; chaining must not skip
			// this or a wfi-less wait loop would never see its interrupt.
			m.pollPoint()
			if m.stop != nil {
				break
			}
		}
		pc := h.PC
		if cur == nil || cur.info.PC != pc {
			// No chain link, or an interrupt redirected the PC.
			cur = m.lookupTB(pc)
			if cur == nil {
				prev = nil
				continue // fetch fault became a trap or a stop
			}
			if prev != nil {
				prev.succ[1], prev.succ[0] = prev.succ[0], cur
			}
		}
		hooked := m.Hooks.HasBlockHooks() || m.Hooks.HasInsnHooks() || m.Hooks.HasMemHooks()
		switch tr := cur.trace; {
		case hooked:
			// Nothing compiled runs with hooks registered, so blocks are
			// neither profiled nor fused.
		case m.recActive:
			if pc == m.rec[0].info.PC || len(m.rec) >= maxTraceBlocks {
				m.buildTrace()
			} else {
				m.rec = append(m.rec, cur)
			}
		case tr != nil:
			if budget == 0 || left > tr.nInsts {
				a0 := m.Attempted()
				r0, e0 := m.stats.TraceRuns, m.stats.TraceSideExits
				m.execTrace(tr, budget, left)
				if budget != 0 {
					left -= m.Attempted() - a0
				}
				cur.trRuns += m.stats.TraceRuns - r0
				cur.trExits += m.stats.TraceSideExits - e0
				if cur.trExits > traceBanExits && cur.trExits > traceBanRatio*cur.trRuns {
					// The recording mispredicted this path (e.g. a
					// data-dependent branch): guards side-exit far more
					// often than the trace completes, so it costs more
					// than block-at-a-time execution. Drop it and ban the
					// entry block from re-profiling.
					cur.trace = nil
					cur.noTrace = true
					delete(m.traces, pc)
					m.stats.TracesInvalidated++
				}
				cur, prev = nil, nil
				continue
			}
		case !cur.noTrace:
			cur.hot++
			if cur.hot >= traceHotThreshold {
				cur.hot = 0
				if tr := m.traceFor(pc); tr != nil {
					cur.trace = tr
				} else {
					m.recActive = true
					m.rec = append(m.rec[:0], cur)
				}
			}
		}
		if hooked || (budget != 0 && left <= uint64(len(cur.info.Insts))) {
			m.interpBlock(cur, budget, &left)
		} else {
			if cur.ops == nil {
				cur.tbCode.compile(m)
			}
			a0 := m.Attempted()
			m.curTB = cur
			m.runOps(cur.ops)
			m.curTB = nil
			if budget != 0 {
				left -= m.Attempted() - a0
			}
		}
		if m.stop != nil {
			break
		}
		prev = cur
		npc := h.PC
		switch {
		case cur.succ[0] != nil && cur.succ[0].info.PC == npc:
			cur = cur.succ[0]
			m.stats.ChainFollows++
		case cur.succ[1] != nil && cur.succ[1].info.PC == npc:
			cur = cur.succ[1]
			m.stats.ChainFollows++
		default:
			cur = nil
		}
	}
	return m.finishRun()
}

// traceFor returns the dispatchable trace entered at pc, if any,
// consulting the private trace map first and then the attached pool's
// frozen tier. A pooled trace is adopted only while the bytes under its
// whole range are untouched per the dirty-state check (watermark box
// refined by the page bitmap, DirtyOverlaps) — the same validity
// contract as pooled blocks; a dirty range leaves the entry to private
// re-formation over the current bytes (the overlay behaviour).
func (m *Machine) traceFor(pc uint32) *traceCode {
	if tr := m.traces[pc]; tr != nil {
		return tr
	}
	if m.pool == nil {
		return nil
	}
	tr := m.pool.traces[pc]
	if tr == nil {
		return nil
	}
	if m.DirtyOverlaps(tr.lo, tr.hi) {
		return nil
	}
	if m.traces == nil {
		m.traces = make(map[uint32]*traceCode)
	}
	m.traces[pc] = tr
	m.stats.TracePoolHits++
	return tr
}

// execTrace runs one trace until a side exit, a stop, or (for a
// self-looping trace) the budget gate closes. The caller has already
// verified the budget outlasts a full execution and no hooks are
// registered.
func (m *Machine) execTrace(tr *traceCode, budget, left uint64) {
	h := &m.Hart
	m.curTB = tr.span
	a0 := m.Attempted()
	for {
		var mark idleMark
		if tr.idle {
			mark = idleMark{h.Mstatus, h.Mie, m.stats.FullPolls, m.Bus.Stats().Loads, h.Cycle, h.Instret}
		}
		if m.runOps(tr.ops) {
			m.stats.TraceSideExits++
			break
		}
		m.stats.TraceRuns++
		if m.stop != nil || h.PC != tr.entry {
			break
		}
		if tr.idle {
			m.skipIdle(mark, tr.nInsts, budget, left-(m.Attempted()-a0))
		}
		// Self-looping trace: re-enter without going through the engine
		// loop. The boundary poll and the budget gate are replayed here
		// exactly as the outer loop would perform them.
		if budget != 0 && left-(m.Attempted()-a0) <= tr.nInsts {
			break
		}
		m.pollPoint()
		if m.stop != nil {
			break
		}
		if h.PC != tr.entry {
			m.sbPolled = true // boundary poll done; do not poll again
			break
		}
	}
	m.curTB = nil
}

// idleMark is the state before one run of an idle trace: what the run
// must leave unchanged, and the counters its cost is measured from. In
// an idle trace only a slow load (sbSlowLoad) moves the bus load count.
type idleMark struct {
	mstatus, mie   uint32
	polls, loads   uint64
	cycle, instret uint64
}

// skipIdle fast-forwards an idle trace that just completed a run started
// at mark and is back at its entry: if the run passes the dynamic check
// it retires the K further runs that precede the interrupt deadline and
// that the budget gate would admit (rem attempted instructions left,
// nInsts per run), without executing them. See "Idle traces" above.
func (m *Machine) skipIdle(mark idleMark, nInsts, budget, rem uint64) {
	h := &m.Hart
	if h.Mstatus != mark.mstatus || h.Mie != mark.mie ||
		m.stats.FullPolls != mark.polls || m.Bus.Stats().Loads != mark.loads {
		return
	}
	dc, di := h.Cycle-mark.cycle, h.Instret-mark.instret
	if dc == 0 || m.irqDeadline <= h.Cycle || (budget == 0 && m.irqDeadline == ^uint64(0)) {
		return // no poll-free span, or no bound at all
	}
	// The last skipped run ends at or before deadline-1, so every poll
	// point inside the skip is a no-op.
	k := (m.irqDeadline - 1 - h.Cycle) / dc
	if budget != 0 {
		if rem <= nInsts {
			return
		}
		k = min(k, (rem-nInsts-1)/di+1) // runs the budget gate admits
	}
	h.Cycle += k * dc
	h.Instret += k * di
	m.stats.TraceRuns += k
	m.stats.IdleInsts += k * di
}

// runOps executes micro-ops in order until the last one completes or an
// op leaves early (trap, stop, store into the running code, guard
// mismatch). It reports whether it left before the final op — a side
// exit, when ops is a trace. The final op of a block is its terminator,
// so diverting there is the normal end, not a side exit.
func (m *Machine) runOps(ops []sbOp) (sideExit bool) {
	h := &m.Hart
	last := len(ops) - 1
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case sbConst:
			h.X[op.rd&31] = op.imm
		case sbAddi:
			h.X[op.rd&31] = h.X[op.rs1&31] + op.imm
		case sbSlti:
			h.X[op.rd&31] = b2u(int32(h.X[op.rs1&31]) < int32(op.imm))
		case sbSltiu:
			h.X[op.rd&31] = b2u(h.X[op.rs1&31] < op.imm)
		case sbAndi:
			h.X[op.rd&31] = h.X[op.rs1&31] & op.imm
		case sbOri:
			h.X[op.rd&31] = h.X[op.rs1&31] | op.imm
		case sbXori:
			h.X[op.rd&31] = h.X[op.rs1&31] ^ op.imm
		case sbSlli:
			h.X[op.rd&31] = h.X[op.rs1&31] << op.imm
		case sbSrli:
			h.X[op.rd&31] = h.X[op.rs1&31] >> op.imm
		case sbSrai:
			h.X[op.rd&31] = uint32(int32(h.X[op.rs1&31]) >> op.imm)
		case sbRoti:
			h.X[op.rd&31] = bits.RotateLeft32(h.X[op.rs1&31], int(int32(op.imm)))
		case sbBexti:
			h.X[op.rd&31] = h.X[op.rs1&31] >> op.imm & 1
		case sbAdd:
			h.X[op.rd&31] = h.X[op.rs1&31] + h.X[op.rs2&31]
		case sbSub:
			h.X[op.rd&31] = h.X[op.rs1&31] - h.X[op.rs2&31]
		case sbMv:
			h.X[op.rd&31] = h.X[op.rs1&31]
		case sbAnd:
			h.X[op.rd&31] = h.X[op.rs1&31] & h.X[op.rs2&31]
		case sbOr:
			h.X[op.rd&31] = h.X[op.rs1&31] | h.X[op.rs2&31]
		case sbXor:
			h.X[op.rd&31] = h.X[op.rs1&31] ^ h.X[op.rs2&31]
		case sbSll:
			h.X[op.rd&31] = h.X[op.rs1&31] << (h.X[op.rs2&31] & 31)
		case sbSrl:
			h.X[op.rd&31] = h.X[op.rs1&31] >> (h.X[op.rs2&31] & 31)
		case sbSra:
			h.X[op.rd&31] = uint32(int32(h.X[op.rs1&31]) >> (h.X[op.rs2&31] & 31))
		case sbSlt:
			h.X[op.rd&31] = b2u(int32(h.X[op.rs1&31]) < int32(h.X[op.rs2&31]))
		case sbSltu:
			h.X[op.rd&31] = b2u(h.X[op.rs1&31] < h.X[op.rs2&31])
		case sbMul:
			h.X[op.rd&31] = h.X[op.rs1&31] * h.X[op.rs2&31]
		case sbBin:
			h.X[op.rd&31] = binOps[op.imm](h.X[op.rs1&31], h.X[op.rs2&31])
		case sbMulDyn:
			a, b := h.X[op.rs1&31], h.X[op.rs2&31]
			h.Cycle += uint64(m.prof.DynamicCost(*op.in, a, b)) + uint64(op.pen)
			if op.rd != 0 {
				h.X[op.rd&31] = binOps[op.imm](a, b)
			}
		case sbCSR:
			m.execCSR(*op.in, op.pc, h.X[op.rs1&31]) // cannot trap: see plainCSR

		case sbLw:
			addr := h.X[op.rs1&31] + op.imm
			off := uint64(addr - m.ramBase)
			var v uint32
			if addr&3 == 0 && off+4 <= uint64(len(m.ram)) {
				r := m.ram[off : off+4 : off+4]
				v = uint32(r[0]) | uint32(r[1])<<8 | uint32(r[2])<<16 | uint32(r[3])<<24
			} else {
				var ok bool
				if v, ok = m.sbSlowLoad(op, addr, 4); !ok {
					return i < last
				}
			}
			if op.rd != 0 {
				h.X[op.rd&31] = v
			}
		case sbLh, sbLhu:
			addr := h.X[op.rs1&31] + op.imm
			off := uint64(addr - m.ramBase)
			var v uint32
			if addr&1 == 0 && off+2 <= uint64(len(m.ram)) {
				v = uint32(m.ram[off]) | uint32(m.ram[off+1])<<8
			} else {
				var ok bool
				if v, ok = m.sbSlowLoad(op, addr, 2); !ok {
					return i < last
				}
			}
			if op.kind == sbLh {
				v = uint32(int32(v) << 16 >> 16)
			}
			if op.rd != 0 {
				h.X[op.rd&31] = v
			}
		case sbLb, sbLbu:
			addr := h.X[op.rs1&31] + op.imm
			off := uint64(addr - m.ramBase)
			var v uint32
			if off < uint64(len(m.ram)) {
				v = uint32(m.ram[off])
			} else {
				var ok bool
				if v, ok = m.sbSlowLoad(op, addr, 1); !ok {
					return i < last
				}
			}
			if op.kind == sbLb {
				v = uint32(int32(v) << 24 >> 24)
			}
			if op.rd != 0 {
				h.X[op.rd&31] = v
			}

		case sbSw:
			addr := h.X[op.rs1&31] + op.imm
			v := h.X[op.rs2&31]
			off := uint64(addr - m.ramBase)
			if addr&3 == 0 && off+4 <= uint64(len(m.ram)) &&
				!(addr < m.codeHi && addr+4 > m.codeLo) {
				r := m.ram[off : off+4 : off+4]
				r[0] = byte(v)
				r[1] = byte(v >> 8)
				r[2] = byte(v >> 16)
				r[3] = byte(v >> 24)
				m.noteRAMStore(addr, 4)
			} else if m.sbSlowStore(op, addr, v, 4) {
				return i < last
			}
		case sbSh:
			addr := h.X[op.rs1&31] + op.imm
			v := h.X[op.rs2&31]
			off := uint64(addr - m.ramBase)
			if addr&1 == 0 && off+2 <= uint64(len(m.ram)) &&
				!(addr < m.codeHi && addr+2 > m.codeLo) {
				m.ram[off] = byte(v)
				m.ram[off+1] = byte(v >> 8)
				m.noteRAMStore(addr, 2)
			} else if m.sbSlowStore(op, addr, v, 2) {
				return i < last
			}
		case sbSb:
			addr := h.X[op.rs1&31] + op.imm
			v := h.X[op.rs2&31]
			off := uint64(addr - m.ramBase)
			if off < uint64(len(m.ram)) &&
				!(addr < m.codeHi && addr+1 > m.codeLo) {
				m.ram[off] = byte(v)
				m.noteRAMStore(addr, 1)
			} else if m.sbSlowStore(op, addr, v, 1) {
				return i < last
			}

		case sbBeq:
			h.Instret += uint64(op.n) + 1
			if h.X[op.rs1&31] == h.X[op.rs2&31] {
				h.Cycle += uint64(op.aux) + uint64(op.pen)
				h.PC = op.imm
			} else {
				h.Cycle += uint64(op.aux)
				h.PC = op.pc
			}
		case sbBne:
			h.Instret += uint64(op.n) + 1
			if h.X[op.rs1&31] != h.X[op.rs2&31] {
				h.Cycle += uint64(op.aux) + uint64(op.pen)
				h.PC = op.imm
			} else {
				h.Cycle += uint64(op.aux)
				h.PC = op.pc
			}
		case sbBlt:
			h.Instret += uint64(op.n) + 1
			if int32(h.X[op.rs1&31]) < int32(h.X[op.rs2&31]) {
				h.Cycle += uint64(op.aux) + uint64(op.pen)
				h.PC = op.imm
			} else {
				h.Cycle += uint64(op.aux)
				h.PC = op.pc
			}
		case sbBge:
			h.Instret += uint64(op.n) + 1
			if int32(h.X[op.rs1&31]) >= int32(h.X[op.rs2&31]) {
				h.Cycle += uint64(op.aux) + uint64(op.pen)
				h.PC = op.imm
			} else {
				h.Cycle += uint64(op.aux)
				h.PC = op.pc
			}
		case sbBltu:
			h.Instret += uint64(op.n) + 1
			if h.X[op.rs1&31] < h.X[op.rs2&31] {
				h.Cycle += uint64(op.aux) + uint64(op.pen)
				h.PC = op.imm
			} else {
				h.Cycle += uint64(op.aux)
				h.PC = op.pc
			}
		case sbBgeu:
			h.Instret += uint64(op.n) + 1
			if h.X[op.rs1&31] >= h.X[op.rs2&31] {
				h.Cycle += uint64(op.aux) + uint64(op.pen)
				h.PC = op.imm
			} else {
				h.Cycle += uint64(op.aux)
				h.PC = op.pc
			}

		case sbJal:
			h.Instret += uint64(op.n) + 1
			h.Cycle += uint64(op.aux)
			if op.rd != 0 {
				h.X[op.rd&31] = op.pc
			}
			h.PC = op.imm
		case sbJalr:
			h.Instret += uint64(op.n) + 1
			h.Cycle += uint64(op.aux)
			// Read rs1 before the link write: rd may alias rs1.
			target := (h.X[op.rs1&31] + op.imm) &^ 1
			if op.rd != 0 {
				h.X[op.rd&31] = op.pc
			}
			h.PC = target

		case sbAcct:
			h.Instret += uint64(op.n)
			h.Cycle += uint64(op.aux)
			h.PC = op.imm
		case sbGuard:
			h.Instret += uint64(op.n)
			h.Cycle += uint64(op.aux)
			if op.rs1 != 0 {
				// Bare fallthrough tail: the architectural PC is the
				// block's end — not the expected next block, which can
				// legitimately differ when the recording captured an
				// interrupt redirect at this boundary.
				h.PC = op.pc
			}
			m.pollPoint()
			if m.stop != nil {
				return i < last
			}
			if h.PC != op.imm {
				m.sbPolled = true // boundary poll done; engine must not re-poll
				return i < last
			}

		default: // sbExec: the interpreter, with exact state
			m.lastLoad = isa.Reg(op.rd)
			if m.execOne(*op.in) || m.stop != nil {
				return i < last
			}
		}
	}
	return false
}

// sbSlowLoad handles a load that missed the direct-RAM fast path
// (device access, misalignment, or a fault). The pending accounting
// snapshot carried by the op is flushed first so the bus — and any trap
// — observes exact counters and PC; on success (a device load) the
// flush is subtracted back out, because the op rejoins the deferred run
// and the next flush point re-materializes everything including it. The
// PC intentionally stays at op.pc afterwards: pending accounting is now
// nonzero, and the deferral invariant guarantees a later flush sets the
// PC before any observer reads it.
func (m *Machine) sbSlowLoad(op *sbOp, addr uint32, size uint8) (uint32, bool) {
	h := &m.Hart
	h.Instret += uint64(op.n)
	h.Cycle += uint64(op.aux)
	h.PC = op.pc
	v, ok := m.memLoad(op.pc, addr, size)
	if !ok {
		return 0, false // trapped or stopped, with exact state
	}
	h.Instret -= uint64(op.n)
	h.Cycle -= uint64(op.aux)
	return v, true
}

// sbSlowStore handles a store that missed the direct-RAM fast path, with
// the same flush-and-compensate scheme as sbSlowLoad. When the store
// invalidated the running code or stopped the machine it cannot rejoin
// the deferral — the op sequence must end — so it retires itself exactly
// (its own cost in op.pen, the PC advanced by the instruction size held
// in op.rd, the hazard state cleared as execOne would) and reports the
// divert.
func (m *Machine) sbSlowStore(op *sbOp, addr, val uint32, size uint8) bool {
	h := &m.Hart
	h.Instret += uint64(op.n)
	h.Cycle += uint64(op.aux)
	h.PC = op.pc
	ok, inval := m.memStore(op.pc, addr, size, val)
	if !ok {
		return true // trapped, with exact state
	}
	if inval || m.stop != nil {
		h.Instret++
		h.Cycle += uint64(op.pen)
		h.PC = op.pc + uint32(op.rd)
		m.lastLoad = 0
		return true
	}
	h.Instret -= uint64(op.n)
	h.Cycle -= uint64(op.aux)
	return false
}

// buildTrace fuses the recorded block path into a trace and installs it
// on the entry block. Recording state is consumed either way; the
// fusion is abandoned when a recorded block is no longer the live
// translation at its pc (invalidated since it was recorded).
func (m *Machine) buildTrace() {
	rec := m.rec
	m.recActive = false
	m.rec = m.rec[:0]
	if len(rec) == 0 {
		return
	}
	entry := rec[0].info.PC
	for _, t := range rec {
		if m.tbs[t.info.PC] != t {
			return
		}
	}
	if tr := m.traces[entry]; tr != nil {
		rec[0].trace = tr // already formed (e.g. pool adoption); relink
		return
	}
	tr := newTraceCode(m, rec)
	if m.traces == nil {
		m.traces = make(map[uint32]*traceCode)
	}
	m.traces[entry] = tr
	rec[0].trace = tr
	m.stats.TracesFormed++
	m.stats.TraceBlocksFused += uint64(len(rec))
}

// newTraceCode fuses a recorded block path into one flattened micro-op
// slice: the constituent blocks' own micro-ops, joined by guard ops. A
// guard takes over the trailing accounting flush of the block before it,
// materializing the fallthrough PC itself. Constituents not compiled
// yet are compiled against m's specialization.
func newTraceCode(m *Machine, rec []*tb) *traceCode {
	tr := &traceCode{entry: rec[0].info.PC, lo: ^uint32(0)}
	for i, t := range rec {
		c := t.tbCode
		tr.blocks = append(tr.blocks, c)
		if c.info.PC < tr.lo {
			tr.lo = c.info.PC
		}
		if c.end > tr.hi {
			tr.hi = c.end
		}
		tr.nInsts += uint64(len(c.info.Insts))
		if c.ops == nil {
			c.compile(m) // a private block so far run only by the interpreter
		}
		ops := c.ops
		if i == len(rec)-1 {
			tr.ops = append(tr.ops, ops...)
			continue
		}
		g := sbOp{kind: sbGuard, imm: rec[i+1].info.PC, pc: c.end}
		if last := ops[len(ops)-1]; last.kind == sbAcct {
			// Only a block's trailing flush is its last op: every other
			// sbAcct precedes the sbExec it flushes for.
			g.n, g.aux, g.rs1 = last.n, last.aux, 1
			ops = ops[:len(ops)-1]
		}
		tr.ops = append(append(tr.ops, ops...), g)
	}
	tr.span = &tb{tbCode: &tbCode{info: plugin.BlockInfo{PC: tr.lo}, end: tr.hi}}
	tr.idle = idleTrace(tr.ops)
	return tr
}

// idleTrace is the static half of the idle-trace rule: no store, no
// interpreter call, no CSR op but an rd=x0 write of mstatus or mie, and
// no register read in a run before the run writes it, unless the trace
// never writes it.
func idleTrace(ops []sbOp) bool {
	var wr, readFirst uint32 // register bitmasks: written so far, read before any write
	for i := range ops {
		op := &ops[i]
		rs1, rs2, rd := uint32(1)<<(op.rs1&31), uint32(1)<<(op.rs2&31), uint32(1)<<(op.rd&31)
		var reads, writes uint32
		switch op.kind {
		case sbExec, sbSw, sbSh, sbSb:
			return false
		case sbCSR:
			if op.in.Rd != 0 || (op.in.CSR != isa.CSRMstatus && op.in.CSR != isa.CSRMie) {
				return false
			}
			if op.in.Op == isa.OpCSRRW || op.in.Op == isa.OpCSRRS || op.in.Op == isa.OpCSRRC {
				reads = rs1
			}
		case sbAcct, sbGuard:
		case sbConst, sbJal:
			writes = rd
		case sbAddi, sbSlti, sbSltiu, sbAndi, sbOri, sbXori, sbSlli, sbSrli, sbSrai,
			sbRoti, sbBexti, sbMv, sbLw, sbLh, sbLhu, sbLb, sbLbu, sbJalr:
			reads, writes = rs1, rd
		case sbBeq, sbBne, sbBlt, sbBge, sbBltu, sbBgeu:
			reads = rs1 | rs2
		default: // register-register ALU, sbBin, sbMulDyn
			reads, writes = rs1|rs2, rd
		}
		readFirst |= reads &^ wr
		wr |= writes &^ 1 // x0 is never written
	}
	return readFirst&wr == 0
}

// compile builds the block's micro-op form, a length-1 trace ending with
// a flush of any pending accounting. It is deterministic in the block's
// bytes and m's specialization (profile, op allowlist), and micro-ops take
// the machine as an argument, so the result serves any machine of that
// specialization — the property the shared translation pool relies on.
// Only the owning machine may call this (lazily) on a private block;
// pooled blocks are compiled once, before publication.
func (c *tbCode) compile(m *Machine) {
	prof := m.prof
	insts := c.info.Insts
	addrs := c.info.Addrs
	costs, dyn := prof.StaticPlan(insts)
	icache := prof.HasICache()
	ops := make([]sbOp, 0, len(insts)+1)
	var pend uint64    // deferred retired-instruction count
	var pendCyc uint64 // deferred cycle count
	constIdx := -1     // index in ops of a fold-eligible sbConst, -1 if none
	var constRd isa.Reg
	var lastLoad isa.Reg // the interpreter's load-use hazard register before insts[i]
	for i := range insts {
		in := &insts[i]
		hazard := lastLoad
		lastLoad = 0
		if in.Op.Class() == isa.ClassLoad {
			lastLoad = in.Rd
		}
		cost := costs[i]
		if !icache && m.ops.Has(in.Op) {
			if dyn[i] {
				// Early-out mul/div: the op adds its operand-dependent
				// cycles itself, so only its instret is deferred.
				constIdx = -1
				ops = append(ops, sbOp{kind: sbMulDyn, in: in, imm: uint32(in.Op),
					pen: uint16(cost - prof.StaticCost(*in)),
					rd:  uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2)})
				pend++
				continue
			}
			if in.Op.Class() == isa.ClassCSR && plainCSR(in.CSR) {
				constIdx = -1
				ops = append(ops, sbOp{kind: sbCSR, in: in, pc: addrs[i], rs1: uint8(in.Rs1)})
				pend++
				pendCyc += uint64(cost)
				continue
			}
			if op, emit, ok := bareOp(in, addrs[i]); ok {
				pend++
				pendCyc += uint64(cost)
				if !emit {
					continue // architectural no-op: accounting only
				}
				if constIdx >= 0 && (in.Op == isa.OpADDI || in.Op == isa.OpCADDI) &&
					in.Rd == constRd && in.Rs1 == constRd {
					// lui/auipc rd + addi rd, rd, lo: fold into the constant
					// write. Nothing observes rd between the pair, so the
					// combined store is exact.
					ops[constIdx].imm += uint32(in.Imm)
					continue
				}
				ops = append(ops, op)
				if op.kind == sbConst {
					constIdx = len(ops) - 1
					constRd = in.Rd
				} else {
					constIdx = -1
				}
				continue
			}
			if op, ok := ctlOp(in, addrs[i], cost, prof, pend, pendCyc); ok {
				// Branches and jumps fold the pending flush into their own
				// retire; no separate sbAcct needed.
				constIdx = -1
				ops = append(ops, op)
				pend, pendCyc = 0, 0
				continue
			}
			if op, ok := memOp(in, addrs[i], cost, pend, pendCyc); ok {
				// The op snapshots the deferral before itself (for the
				// slow path's flush), then joins it.
				constIdx = -1
				ops = append(ops, op)
				pend++
				pendCyc += uint64(cost)
				continue
			}
		}
		// No micro-op form: flush pending accounting so the interpreter
		// observes exact counters and PC, then hand it the instruction.
		constIdx = -1
		if pend > 0 {
			ops = append(ops, acctOp(pend, pendCyc, addrs[i]))
			pend, pendCyc = 0, 0
		}
		ops = append(ops, sbOp{kind: sbExec, in: in, rd: uint8(hazard)})
	}
	if pend > 0 {
		ops = append(ops, acctOp(pend, pendCyc, c.end))
	}
	c.ops = ops
}

// plainCSR reports whether a Zicsr access to c can run inside a deferred
// run (sbCSR): a machine CSR that always exists and is writable, so the
// access cannot trap, and that reads no counter, so stale deferred
// instret and cycle counts cannot show. Counter and unknown CSRs stay
// with the interpreter.
func plainCSR(c isa.CSR) bool {
	switch c {
	case isa.CSRMstatus, isa.CSRMie, isa.CSRMip, isa.CSRMtvec,
		isa.CSRMscratch, isa.CSRMepc, isa.CSRMcause, isa.CSRMtval:
		return true
	}
	return false
}

// acctOp builds the deferred-accounting flush micro-op.
func acctOp(n, cyc uint64, pc uint32) sbOp {
	return sbOp{kind: sbAcct, n: uint16(n), aux: uint32(cyc), imm: pc}
}

// bareOp builds the deferred-accounting micro-op for one pure
// instruction: writes only the destination register, never traps, never
// diverts, and leaves all accounting to a later flush. emit=false with
// ok=true means an architectural no-op (x0-targeted ops, fences, wfi):
// accounting only, nothing emitted. ok=false means the instruction has
// no bare form. The caller has checked the instruction is valid and
// enabled.
func bareOp(in *decode.Inst, pc uint32) (op sbOp, emit, ok bool) {
	immU := uint32(in.Imm)
	mk := func(kind uint8, imm uint32) (sbOp, bool, bool) {
		if in.Rd == 0 {
			return sbOp{}, false, true
		}
		return sbOp{kind: kind, imm: imm,
			rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2)}, true, true
	}
	switch in.Op {
	case isa.OpFENCE, isa.OpWFI:
		return sbOp{}, false, true
	case isa.OpLUI, isa.OpCLUI:
		return mk(sbConst, immU)
	case isa.OpAUIPC:
		return mk(sbConst, pc+immU)
	case isa.OpADDI, isa.OpCADDI, isa.OpCADDI16SP, isa.OpCADDI4SPN, isa.OpCLI, isa.OpCNOP:
		if in.Rs1 == 0 { // li: constant materialization
			return mk(sbConst, immU)
		}
		return mk(sbAddi, immU)
	case isa.OpSLTI:
		return mk(sbSlti, immU)
	case isa.OpSLTIU:
		return mk(sbSltiu, immU)
	case isa.OpXORI:
		return mk(sbXori, immU)
	case isa.OpORI:
		return mk(sbOri, immU)
	case isa.OpANDI, isa.OpCANDI:
		return mk(sbAndi, immU)
	case isa.OpSLLI, isa.OpCSLLI:
		return mk(sbSlli, immU)
	case isa.OpSRLI, isa.OpCSRLI:
		return mk(sbSrli, immU)
	case isa.OpSRAI, isa.OpCSRAI:
		return mk(sbSrai, immU)
	case isa.OpRORI:
		return mk(sbRoti, uint32(-in.Imm)) // left-rotation amount
	case isa.OpBSETI:
		return mk(sbOri, 1<<immU)
	case isa.OpBCLRI:
		return mk(sbAndi, ^(uint32(1) << immU))
	case isa.OpBINVI:
		return mk(sbXori, 1<<immU)
	case isa.OpBEXTI:
		return mk(sbBexti, immU)
	case isa.OpADD, isa.OpCADD:
		return mk(sbAdd, 0)
	case isa.OpCMV:
		// CMV reads rs2; normalize onto rs1 so the executor has one shape.
		if in.Rd == 0 {
			return sbOp{}, false, true
		}
		return sbOp{kind: sbMv, rd: uint8(in.Rd), rs1: uint8(in.Rs2)}, true, true
	case isa.OpSUB, isa.OpCSUB:
		return mk(sbSub, 0)
	case isa.OpSLL:
		return mk(sbSll, 0)
	case isa.OpSRL:
		return mk(sbSrl, 0)
	case isa.OpSRA:
		return mk(sbSra, 0)
	case isa.OpSLT:
		return mk(sbSlt, 0)
	case isa.OpSLTU:
		return mk(sbSltu, 0)
	case isa.OpXOR, isa.OpCXOR:
		return mk(sbXor, 0)
	case isa.OpOR, isa.OpCOR:
		return mk(sbOr, 0)
	case isa.OpAND, isa.OpCAND:
		return mk(sbAnd, 0)
	case isa.OpMUL:
		return mk(sbMul, 0)
	}
	if binOps[in.Op] != nil {
		return mk(sbBin, uint32(in.Op))
	}
	return sbOp{}, false, false
}

// ctlOp builds the micro-op for a branch or jump, folding the pending
// accounting flush into the op's own retire. ok=false leaves the
// instruction to the interpreter (misaligned target: execOne traps).
func ctlOp(in *decode.Inst, pc, cost uint32, prof *timing.Profile, pend, pendCyc uint64) (sbOp, bool) {
	op := sbOp{
		pc:  pc + uint32(in.Size),
		n:   uint16(pend),
		aux: uint32(pendCyc),
		rd:  uint8(in.Rd),
		rs1: uint8(in.Rs1),
		rs2: uint8(in.Rs2),
	}
	switch in.Op {
	case isa.OpJAL, isa.OpCJAL, isa.OpCJ:
		target := pc + uint32(in.Imm)
		if target&1 != 0 {
			return sbOp{}, false
		}
		op.kind = sbJal
		op.imm = target
		op.aux += cost + prof.JumpPenalty
		return op, true
	case isa.OpJALR, isa.OpCJR, isa.OpCJALR:
		op.kind = sbJalr
		op.imm = uint32(in.Imm)
		op.aux += cost + prof.JumpPenalty
		return op, true
	case isa.OpBEQ, isa.OpCBEQZ, isa.OpBNE, isa.OpCBNEZ,
		isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		target := pc + uint32(in.Imm)
		if target&1 != 0 {
			return sbOp{}, false
		}
		op.imm = target
		op.aux += cost
		op.pen = uint16(prof.BranchTakenPenalty)
		switch in.Op {
		case isa.OpBEQ, isa.OpCBEQZ:
			op.kind = sbBeq
		case isa.OpBNE, isa.OpCBNEZ:
			op.kind = sbBne
		case isa.OpBLT:
			op.kind = sbBlt
		case isa.OpBGE:
			op.kind = sbBge
		case isa.OpBLTU:
			op.kind = sbBltu
		default: // OpBGEU
			op.kind = sbBgeu
		}
		return op, true
	}
	return sbOp{}, false
}

// memOp builds the load/store micro-op. The op carries a snapshot of the
// pending deferral before itself so the slow path can flush exactly, and
// its own static cost for a store's self-retire; stores keep the value
// register in rs2 and reuse rd for the instruction size (the slow
// path's PC step).
func memOp(in *decode.Inst, pc, cost uint32, pend, pendCyc uint64) (sbOp, bool) {
	op := sbOp{
		imm: uint32(in.Imm),
		pc:  pc,
		n:   uint16(pend),
		aux: uint32(pendCyc),
		pen: uint16(cost),
		rd:  uint8(in.Rd),
		rs1: uint8(in.Rs1),
		rs2: uint8(in.Rs2),
	}
	switch in.Op {
	case isa.OpLW, isa.OpCLW, isa.OpCLWSP:
		op.kind = sbLw
	case isa.OpLH:
		op.kind = sbLh
	case isa.OpLHU:
		op.kind = sbLhu
	case isa.OpLB:
		op.kind = sbLb
	case isa.OpLBU:
		op.kind = sbLbu
	case isa.OpSW, isa.OpCSW, isa.OpCSWSP:
		op.kind = sbSw
		op.rd = uint8(in.Size)
	case isa.OpSH:
		op.kind = sbSh
		op.rd = uint8(in.Size)
	case isa.OpSB:
		op.kind = sbSb
		op.rd = uint8(in.Size)
	default:
		return sbOp{}, false
	}
	return op, true
}

// binOps is the long tail of register-register operations, executed by
// the one sbBin micro-op shape; the hottest ops get dedicated micro-ops
// instead. Unary ops ignore their second operand.
var binOps = [isa.NumOps]func(a, b uint32) uint32{
	isa.OpMUL: func(a, b uint32) uint32 { return a * b }, // sbMulDyn only
	isa.OpMULH: func(a, b uint32) uint32 {
		return uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32)
	},
	isa.OpMULHSU: func(a, b uint32) uint32 {
		return uint32(uint64(int64(int32(a))*int64(b)) >> 32)
	},
	isa.OpMULHU: func(a, b uint32) uint32 {
		return uint32(uint64(a) * uint64(b) >> 32)
	},
	isa.OpDIV: func(a, b uint32) uint32 {
		switch {
		case b == 0:
			return 0xffffffff
		case a == 0x80000000 && b == 0xffffffff:
			return 0x80000000 // overflow
		default:
			return uint32(int32(a) / int32(b))
		}
	},
	isa.OpDIVU: func(a, b uint32) uint32 {
		if b == 0 {
			return 0xffffffff
		}
		return a / b
	},
	isa.OpREM: func(a, b uint32) uint32 {
		switch {
		case b == 0:
			return a
		case a == 0x80000000 && b == 0xffffffff:
			return 0
		default:
			return uint32(int32(a) % int32(b))
		}
	},
	isa.OpREMU: func(a, b uint32) uint32 {
		if b == 0 {
			return a
		}
		return a % b
	},
	isa.OpANDN: func(a, b uint32) uint32 { return a &^ b },
	isa.OpORN:  func(a, b uint32) uint32 { return a | ^b },
	isa.OpXNOR: func(a, b uint32) uint32 { return ^(a ^ b) },
	isa.OpCLZ:  func(a, _ uint32) uint32 { return uint32(bits.LeadingZeros32(a)) },
	isa.OpCTZ:  func(a, _ uint32) uint32 { return uint32(bits.TrailingZeros32(a)) },
	isa.OpCPOP: func(a, _ uint32) uint32 { return uint32(bits.OnesCount32(a)) },
	isa.OpSEXTB: func(a, _ uint32) uint32 {
		return uint32(int32(a) << 24 >> 24)
	},
	isa.OpSEXTH: func(a, _ uint32) uint32 {
		return uint32(int32(a) << 16 >> 16)
	},
	isa.OpZEXTH: func(a, _ uint32) uint32 { return a & 0xffff },
	isa.OpMIN:   minS,
	isa.OpMAX:   maxS,
	isa.OpMINU:  func(a, b uint32) uint32 { return min(a, b) },
	isa.OpMAXU:  func(a, b uint32) uint32 { return max(a, b) },
	isa.OpROL: func(a, b uint32) uint32 {
		return bits.RotateLeft32(a, int(b&31))
	},
	isa.OpROR: func(a, b uint32) uint32 {
		return bits.RotateLeft32(a, -int(b&31))
	},
	isa.OpREV8: func(a, _ uint32) uint32 { return bits.ReverseBytes32(a) },
	isa.OpORCB: func(a, _ uint32) uint32 { return orcb(a) },
	isa.OpBSET: func(a, b uint32) uint32 { return a | 1<<(b&31) },
	isa.OpBCLR: func(a, b uint32) uint32 { return a &^ (1 << (b & 31)) },
	isa.OpBINV: func(a, b uint32) uint32 { return a ^ 1<<(b&31) },
	isa.OpBEXT: func(a, b uint32) uint32 { return a >> (b & 31) & 1 },
}
