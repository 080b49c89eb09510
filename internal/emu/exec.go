package emu

import (
	"math/bits"

	"repro/internal/decode"
	"repro/internal/isa"
	"repro/internal/plugin"
	"repro/internal/timing"
)

// memLoad performs a data load with plugin dispatch; ok=false means a
// trap was taken.
func (m *Machine) memLoad(pc, addr uint32, size uint8) (uint32, bool) {
	v, f := m.Bus.Load(addr, size)
	if f.Raised {
		m.trap(f.Cause, f.Addr, pc)
		return 0, false
	}
	if m.Hooks.HasMemHooks() {
		m.Hooks.MemAccess(plugin.MemEvent{PC: pc, Addr: addr, Value: v, Size: size})
	}
	return v, true
}

// memStore performs a data store with plugin dispatch and code-cache
// invalidation; ok=false means a trap was taken. invalidated reports
// whether the store invalidated the currently executing block, so the
// execution loops abandon its remaining (now stale) instructions.
// Invalidation is range-based: only blocks overlapping the written
// bytes are dropped, and the modelled I-cache is kept (only fence.i
// flushes it), so stores near code no longer flush the whole cache.
func (m *Machine) memStore(pc, addr uint32, size uint8, val uint32) (ok, invalidated bool) {
	if f := m.Bus.Store(addr, size, val); f.Raised {
		m.trap(f.Cause, f.Addr, pc)
		return false, false
	}
	if m.Hooks.HasMemHooks() {
		m.Hooks.MemAccess(plugin.MemEvent{PC: pc, Addr: addr, Value: val, Size: size, Store: true})
	}
	if uint64(addr-m.ramBase) < uint64(len(m.ram)) {
		m.noteRAMStore(addr, size)
	}
	return true, m.invalidateRange(addr, addr+uint32(size))
}

// execOne executes one instruction, updating PC, counters and cycles.
// It returns true when control flow diverted from straight-line execution
// (branch taken, jump, trap, serialization) so the block loop can exit.
func (m *Machine) execOne(in decode.Inst) (diverted bool) {
	h := &m.Hart
	pc := h.PC
	if !in.Valid() || !in.Op.In(m.ext) || !m.subsetAllows(in.Op) {
		m.trap(isa.ExcIllegalInst, in.Raw, pc)
		return true
	}

	rs1v := h.Reg(in.Rs1)
	rs2v := h.Reg(in.Rs2)

	cost := uint32(1)
	if m.prof != nil {
		cost = m.prof.DynamicCost(in, rs1v, rs2v)
		if m.lastLoad != 0 {
			r1, r2 := timing.ReadsIntRegs(in)
			if r1 == m.lastLoad || r2 == m.lastLoad {
				cost += m.prof.LoadUseStall
			}
		}
		if m.prof.HasICache() {
			cost += m.icacheFetch(pc, in.Size)
		}
	}
	m.lastLoad = 0

	next := pc + uint32(in.Size)
	target := next
	taken := false // conditional branch taken

	switch in.Op {
	case isa.OpLUI, isa.OpCLUI:
		h.SetReg(in.Rd, uint32(in.Imm))
	case isa.OpAUIPC:
		h.SetReg(in.Rd, pc+uint32(in.Imm))
	case isa.OpJAL, isa.OpCJAL, isa.OpCJ:
		target = pc + uint32(in.Imm)
		h.SetReg(in.Rd, next)
		diverted = true
	case isa.OpJALR, isa.OpCJR, isa.OpCJALR:
		target = (rs1v + uint32(in.Imm)) &^ 1
		h.SetReg(in.Rd, next)
		diverted = true
	case isa.OpBEQ, isa.OpCBEQZ:
		taken = rs1v == rs2v
	case isa.OpBNE, isa.OpCBNEZ:
		taken = rs1v != rs2v
	case isa.OpBLT:
		taken = int32(rs1v) < int32(rs2v)
	case isa.OpBGE:
		taken = int32(rs1v) >= int32(rs2v)
	case isa.OpBLTU:
		taken = rs1v < rs2v
	case isa.OpBGEU:
		taken = rs1v >= rs2v

	case isa.OpLB:
		v, ok := m.memLoad(pc, rs1v+uint32(in.Imm), 1)
		if !ok {
			return true
		}
		h.SetReg(in.Rd, uint32(int32(v)<<24>>24))
		m.lastLoad = in.Rd
	case isa.OpLH:
		v, ok := m.memLoad(pc, rs1v+uint32(in.Imm), 2)
		if !ok {
			return true
		}
		h.SetReg(in.Rd, uint32(int32(v)<<16>>16))
		m.lastLoad = in.Rd
	case isa.OpLW, isa.OpCLW, isa.OpCLWSP:
		v, ok := m.memLoad(pc, rs1v+uint32(in.Imm), 4)
		if !ok {
			return true
		}
		h.SetReg(in.Rd, v)
		m.lastLoad = in.Rd
	case isa.OpLBU:
		v, ok := m.memLoad(pc, rs1v+uint32(in.Imm), 1)
		if !ok {
			return true
		}
		h.SetReg(in.Rd, v)
		m.lastLoad = in.Rd
	case isa.OpLHU:
		v, ok := m.memLoad(pc, rs1v+uint32(in.Imm), 2)
		if !ok {
			return true
		}
		h.SetReg(in.Rd, v)
		m.lastLoad = in.Rd

	case isa.OpSB:
		ok, inval := m.memStore(pc, rs1v+uint32(in.Imm), 1, rs2v)
		if !ok {
			return true
		}
		diverted = diverted || inval
	case isa.OpSH:
		ok, inval := m.memStore(pc, rs1v+uint32(in.Imm), 2, rs2v)
		if !ok {
			return true
		}
		diverted = diverted || inval
	case isa.OpSW, isa.OpCSW, isa.OpCSWSP:
		ok, inval := m.memStore(pc, rs1v+uint32(in.Imm), 4, rs2v)
		if !ok {
			return true
		}
		diverted = diverted || inval

	case isa.OpADDI, isa.OpCADDI, isa.OpCADDI16SP, isa.OpCADDI4SPN, isa.OpCLI, isa.OpCNOP:
		h.SetReg(in.Rd, rs1v+uint32(in.Imm))
	case isa.OpSLTI:
		h.SetReg(in.Rd, b2u(int32(rs1v) < in.Imm))
	case isa.OpSLTIU:
		h.SetReg(in.Rd, b2u(rs1v < uint32(in.Imm)))
	case isa.OpXORI:
		h.SetReg(in.Rd, rs1v^uint32(in.Imm))
	case isa.OpORI:
		h.SetReg(in.Rd, rs1v|uint32(in.Imm))
	case isa.OpANDI, isa.OpCANDI:
		h.SetReg(in.Rd, rs1v&uint32(in.Imm))
	case isa.OpSLLI, isa.OpCSLLI:
		h.SetReg(in.Rd, rs1v<<uint32(in.Imm))
	case isa.OpSRLI, isa.OpCSRLI:
		h.SetReg(in.Rd, rs1v>>uint32(in.Imm))
	case isa.OpSRAI, isa.OpCSRAI:
		h.SetReg(in.Rd, uint32(int32(rs1v)>>uint32(in.Imm)))

	case isa.OpADD, isa.OpCADD:
		h.SetReg(in.Rd, rs1v+rs2v)
	case isa.OpCMV:
		h.SetReg(in.Rd, rs2v)
	case isa.OpSUB, isa.OpCSUB:
		h.SetReg(in.Rd, rs1v-rs2v)
	case isa.OpSLL:
		h.SetReg(in.Rd, rs1v<<(rs2v&31))
	case isa.OpSLT:
		h.SetReg(in.Rd, b2u(int32(rs1v) < int32(rs2v)))
	case isa.OpSLTU:
		h.SetReg(in.Rd, b2u(rs1v < rs2v))
	case isa.OpXOR, isa.OpCXOR:
		h.SetReg(in.Rd, rs1v^rs2v)
	case isa.OpSRL:
		h.SetReg(in.Rd, rs1v>>(rs2v&31))
	case isa.OpSRA:
		h.SetReg(in.Rd, uint32(int32(rs1v)>>(rs2v&31)))
	case isa.OpOR, isa.OpCOR:
		h.SetReg(in.Rd, rs1v|rs2v)
	case isa.OpAND, isa.OpCAND:
		h.SetReg(in.Rd, rs1v&rs2v)

	case isa.OpFENCE, isa.OpWFI:
		// Memory is sequentially consistent here; wfi is a legal no-op hint.
	case isa.OpFENCEI:
		m.InvalidateTBs()
		diverted = true
	case isa.OpECALL:
		m.trap(isa.ExcEcallM, 0, pc)
		return true
	case isa.OpEBREAK, isa.OpCEBREAK:
		if m.HaltOnEbreak {
			m.stop = &StopInfo{Reason: StopEbreak, PC: pc}
			return true
		}
		m.trap(isa.ExcBreakpoint, pc, pc)
		return true
	case isa.OpMRET:
		h.MRet()
		m.wakeIfDeliverable()
		target = h.PC
		diverted = true

	case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC, isa.OpCSRRWI, isa.OpCSRRSI, isa.OpCSRRCI:
		if !m.execCSR(in, pc, rs1v) {
			return true
		}

	case isa.OpMUL:
		h.SetReg(in.Rd, rs1v*rs2v)
	case isa.OpMULH:
		h.SetReg(in.Rd, uint32(uint64(int64(int32(rs1v))*int64(int32(rs2v)))>>32))
	case isa.OpMULHSU:
		h.SetReg(in.Rd, uint32(uint64(int64(int32(rs1v))*int64(rs2v))>>32))
	case isa.OpMULHU:
		h.SetReg(in.Rd, uint32(uint64(rs1v)*uint64(rs2v)>>32))
	case isa.OpDIV:
		switch {
		case rs2v == 0:
			h.SetReg(in.Rd, 0xffffffff)
		case rs1v == 0x80000000 && rs2v == 0xffffffff:
			h.SetReg(in.Rd, 0x80000000) // overflow
		default:
			h.SetReg(in.Rd, uint32(int32(rs1v)/int32(rs2v)))
		}
	case isa.OpDIVU:
		if rs2v == 0 {
			h.SetReg(in.Rd, 0xffffffff)
		} else {
			h.SetReg(in.Rd, rs1v/rs2v)
		}
	case isa.OpREM:
		switch {
		case rs2v == 0:
			h.SetReg(in.Rd, rs1v)
		case rs1v == 0x80000000 && rs2v == 0xffffffff:
			h.SetReg(in.Rd, 0)
		default:
			h.SetReg(in.Rd, uint32(int32(rs1v)%int32(rs2v)))
		}
	case isa.OpREMU:
		if rs2v == 0 {
			h.SetReg(in.Rd, rs1v)
		} else {
			h.SetReg(in.Rd, rs1v%rs2v)
		}

	// Xbmi.
	case isa.OpANDN:
		h.SetReg(in.Rd, rs1v&^rs2v)
	case isa.OpORN:
		h.SetReg(in.Rd, rs1v|^rs2v)
	case isa.OpXNOR:
		h.SetReg(in.Rd, ^(rs1v ^ rs2v))
	case isa.OpCLZ:
		h.SetReg(in.Rd, uint32(bits.LeadingZeros32(rs1v)))
	case isa.OpCTZ:
		h.SetReg(in.Rd, uint32(bits.TrailingZeros32(rs1v)))
	case isa.OpCPOP:
		h.SetReg(in.Rd, uint32(bits.OnesCount32(rs1v)))
	case isa.OpSEXTB:
		h.SetReg(in.Rd, uint32(int32(rs1v)<<24>>24))
	case isa.OpSEXTH:
		h.SetReg(in.Rd, uint32(int32(rs1v)<<16>>16))
	case isa.OpZEXTH:
		h.SetReg(in.Rd, rs1v&0xffff)
	case isa.OpMIN:
		h.SetReg(in.Rd, minS(rs1v, rs2v))
	case isa.OpMAX:
		h.SetReg(in.Rd, maxS(rs1v, rs2v))
	case isa.OpMINU:
		h.SetReg(in.Rd, min(rs1v, rs2v))
	case isa.OpMAXU:
		h.SetReg(in.Rd, max(rs1v, rs2v))
	case isa.OpROL:
		h.SetReg(in.Rd, bits.RotateLeft32(rs1v, int(rs2v&31)))
	case isa.OpROR:
		h.SetReg(in.Rd, bits.RotateLeft32(rs1v, -int(rs2v&31)))
	case isa.OpRORI:
		h.SetReg(in.Rd, bits.RotateLeft32(rs1v, -int(in.Imm)))
	case isa.OpREV8:
		h.SetReg(in.Rd, bits.ReverseBytes32(rs1v))
	case isa.OpORCB:
		h.SetReg(in.Rd, orcb(rs1v))
	case isa.OpBSET:
		h.SetReg(in.Rd, rs1v|1<<(rs2v&31))
	case isa.OpBCLR:
		h.SetReg(in.Rd, rs1v&^(1<<(rs2v&31)))
	case isa.OpBINV:
		h.SetReg(in.Rd, rs1v^1<<(rs2v&31))
	case isa.OpBEXT:
		h.SetReg(in.Rd, rs1v>>(rs2v&31)&1)
	case isa.OpBSETI:
		h.SetReg(in.Rd, rs1v|1<<uint32(in.Imm))
	case isa.OpBCLRI:
		h.SetReg(in.Rd, rs1v&^(1<<uint32(in.Imm)))
	case isa.OpBINVI:
		h.SetReg(in.Rd, rs1v^1<<uint32(in.Imm))
	case isa.OpBEXTI:
		h.SetReg(in.Rd, rs1v>>uint32(in.Imm)&1)

	default:
		if in.Op.Extension() == isa.ExtF {
			if !m.execFP(in, pc, rs1v) {
				return true
			}
		} else {
			m.trap(isa.ExcIllegalInst, in.Raw, pc)
			return true
		}
	}

	if taken {
		target = pc + uint32(in.Imm)
		diverted = true
	}
	if diverted && in.Op.IsControlFlow() && target&1 != 0 {
		m.trap(isa.ExcInstAddrMisaligned, target, pc)
		return true
	}
	if m.prof != nil {
		cost += m.prof.TransferPenalty(in.Op, taken)
	}
	h.Instret++
	h.Cycle += uint64(cost)
	h.PC = target
	return diverted
}

// execCSR executes the Zicsr instructions; returns false if it trapped.
func (m *Machine) execCSR(in decode.Inst, pc, rs1v uint32) bool {
	h := &m.Hart
	src := rs1v
	if in.Op == isa.OpCSRRWI || in.Op == isa.OpCSRRSI || in.Op == isa.OpCSRRCI {
		src = uint32(in.Imm)
	}
	// csrrw with rd=x0 must not read (avoids read side effects); csrrs/c
	// with rs1=x0 must not write.
	writeOnly := (in.Op == isa.OpCSRRW || in.Op == isa.OpCSRRWI) && in.Rd == 0
	readOnly := in.Rs1 == 0 && (in.Op == isa.OpCSRRS || in.Op == isa.OpCSRRC)
	if in.Op == isa.OpCSRRSI || in.Op == isa.OpCSRRCI {
		readOnly = in.Imm == 0
	}

	var old uint32
	if !writeOnly {
		v, err := h.ReadCSR(in.CSR)
		if err != nil {
			m.trap(isa.ExcIllegalInst, in.Raw, pc)
			return false
		}
		old = v
	}
	if !readOnly {
		var newv uint32
		switch in.Op {
		case isa.OpCSRRW, isa.OpCSRRWI:
			newv = src
		case isa.OpCSRRS, isa.OpCSRRSI:
			newv = old | src
		case isa.OpCSRRC, isa.OpCSRRCI:
			newv = old &^ src
		}
		if err := h.WriteCSR(in.CSR, newv); err != nil {
			m.trap(isa.ExcIllegalInst, in.Raw, pc)
			return false
		}
		switch in.CSR {
		case isa.CSRMstatus, isa.CSRMie:
			m.wakeIfDeliverable()
		case isa.CSRMip, isa.CSRMcycle, isa.CSRMcycleH:
			// The next poll re-mirrors the devices over a written mip
			// bit, and a moved cycle counter moves every device event.
			m.irqDeadline = 0
		}
	}
	h.SetReg(in.Rd, old)
	return true
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func minS(a, b uint32) uint32 {
	if int32(a) < int32(b) {
		return a
	}
	return b
}

func maxS(a, b uint32) uint32 {
	if int32(a) > int32(b) {
		return a
	}
	return b
}

// orcb sets each byte to 0xff if it has any bit set.
func orcb(v uint32) uint32 {
	var out uint32
	for i := 0; i < 4; i++ {
		if v>>(8*i)&0xff != 0 {
			out |= 0xff << (8 * i)
		}
	}
	return out
}
