package isa

import (
	"fmt"
	"strings"
)

// Op identifies one architectural instruction (one mnemonic).
type Op uint16

// OpInvalid is the zero Op and never names a real instruction.
const OpInvalid Op = 0

// RV32I base integer instruction set.
const (
	OpLUI Op = iota + 1
	OpAUIPC
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU
	OpSB
	OpSH
	OpSW
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	OpFENCE
	OpFENCEI
	OpECALL
	OpEBREAK

	// Privileged (M-mode).
	OpMRET
	OpWFI

	// Zicsr.
	OpCSRRW
	OpCSRRS
	OpCSRRC
	OpCSRRWI
	OpCSRRSI
	OpCSRRCI

	// M extension.
	OpMUL
	OpMULH
	OpMULHSU
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU

	// F extension (single precision).
	OpFLW
	OpFSW
	OpFMADDS
	OpFMSUBS
	OpFNMSUBS
	OpFNMADDS
	OpFADDS
	OpFSUBS
	OpFMULS
	OpFDIVS
	OpFSQRTS
	OpFSGNJS
	OpFSGNJNS
	OpFSGNJXS
	OpFMINS
	OpFMAXS
	OpFCVTWS
	OpFCVTWUS
	OpFMVXW
	OpFEQS
	OpFLTS
	OpFLES
	OpFCLASSS
	OpFCVTSW
	OpFCVTSWU
	OpFMVWX

	// Xbmi: bit-manipulation extension (Zbb/Zbs-compatible encodings),
	// the ecosystem's ISA-extension exploration component.
	OpANDN
	OpORN
	OpXNOR
	OpCLZ
	OpCTZ
	OpCPOP
	OpSEXTB
	OpSEXTH
	OpZEXTH
	OpMIN
	OpMAX
	OpMINU
	OpMAXU
	OpROL
	OpROR
	OpRORI
	OpREV8
	OpORCB
	OpBSET
	OpBCLR
	OpBINV
	OpBEXT
	OpBSETI
	OpBCLRI
	OpBINVI
	OpBEXTI

	// C extension (compressed, 16-bit).
	OpCADDI4SPN
	OpCLW
	OpCSW
	OpCNOP
	OpCADDI
	OpCJAL
	OpCLI
	OpCADDI16SP
	OpCLUI
	OpCSRLI
	OpCSRAI
	OpCANDI
	OpCSUB
	OpCXOR
	OpCOR
	OpCAND
	OpCJ
	OpCBEQZ
	OpCBNEZ
	OpCSLLI
	OpCLWSP
	OpCJR
	OpCMV
	OpCEBREAK
	OpCJALR
	OpCADD
	OpCSWSP

	opMax // sentinel; keep last
)

// NumOps is the number of defined Ops plus one (index 0 is OpInvalid).
const NumOps = int(opMax)

// Class groups instructions by their execution behaviour. The coverage
// metric counts "instruction types" at Op granularity and summarizes by
// Class; the timing model assigns base cycle costs by Class.
type Class uint8

const (
	ClassNone    Class = iota
	ClassALU           // register/immediate integer ALU
	ClassShift         // shifts
	ClassMul           // multiplications
	ClassDiv           // divisions and remainders
	ClassLoad          // memory loads
	ClassStore         // memory stores
	ClassBranch        // conditional branches
	ClassJump          // unconditional jumps and calls
	ClassSystem        // ecall/ebreak/mret/wfi/fence
	ClassCSR           // CSR accesses
	ClassFPALU         // FP arithmetic
	ClassFPMul         // FP multiply (incl. fused)
	ClassFPDiv         // FP divide / sqrt
	ClassFPCmp         // FP compares, classify, sign ops, min/max
	ClassFPCvt         // FP<->int conversions and moves
	ClassFPLoad        // FP loads
	ClassFPStore       // FP stores
	ClassBMI           // bit-manipulation (Xbmi)
)

// NumClasses is the number of defined Classes, for tables indexed by
// Class.
const NumClasses = int(ClassBMI) + 1

var classNames = map[Class]string{
	ClassNone: "none", ClassALU: "alu", ClassShift: "shift",
	ClassMul: "mul", ClassDiv: "div", ClassLoad: "load",
	ClassStore: "store", ClassBranch: "branch", ClassJump: "jump",
	ClassSystem: "system", ClassCSR: "csr", ClassFPALU: "fp-alu",
	ClassFPMul: "fp-mul", ClassFPDiv: "fp-div", ClassFPCmp: "fp-cmp",
	ClassFPCvt: "fp-cvt", ClassFPLoad: "fp-load", ClassFPStore: "fp-store",
	ClassBMI: "bmi",
}

func (c Class) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Ext identifies the ISA extension an instruction belongs to.
type Ext uint8

const (
	ExtI Ext = iota
	ExtM
	ExtF
	ExtZicsr
	ExtZifencei
	ExtPriv
	ExtXbmi
	ExtC
	numExts
)

var extNames = [numExts]string{"I", "M", "F", "Zicsr", "Zifencei", "priv", "Xbmi", "C"}

func (e Ext) String() string {
	if int(e) < len(extNames) {
		return extNames[e]
	}
	return fmt.Sprintf("ext(%d)", uint8(e))
}

// ExtSet is a bit set of extensions; it describes an ISA-module
// configuration such as RV32IM or RV32IMF+Xbmi.
type ExtSet uint16

// With returns s with e added.
func (s ExtSet) With(e Ext) ExtSet { return s | 1<<e }

// Has reports whether e is in the set.
func (s ExtSet) Has(e Ext) bool { return s&(1<<e) != 0 }

// Common ISA configurations.
var (
	RV32I    = ExtSet(0).With(ExtI).With(ExtZicsr).With(ExtZifencei).With(ExtPriv)
	RV32IM   = RV32I.With(ExtM)
	RV32IMF  = RV32IM.With(ExtF)
	RV32IMB  = RV32IM.With(ExtXbmi)
	RV32IMC  = RV32IM.With(ExtC)
	RV32IMFC = RV32IMF.With(ExtC)
	RV32Full = RV32IMF.With(ExtXbmi).With(ExtC)
)

// ParseExtSet maps a configuration name as the tools' -isa flags spell
// it (rv32i, rv32im, rv32imf, rv32imb, rv32imc, rv32imfc, and full or
// rv32full for RV32Full; any letter case) to its extension set.
func ParseExtSet(name string) (ExtSet, error) {
	switch strings.ToLower(name) {
	case "rv32i":
		return RV32I, nil
	case "rv32im":
		return RV32IM, nil
	case "rv32imf":
		return RV32IMF, nil
	case "rv32imb":
		return RV32IMB, nil
	case "rv32imc":
		return RV32IMC, nil
	case "rv32imfc":
		return RV32IMFC, nil
	case "full", "rv32full":
		return RV32Full, nil
	}
	return 0, fmt.Errorf("unknown ISA configuration %q", name)
}

func (s ExtSet) String() string {
	out := "RV32"
	for e := Ext(0); e < numExts; e++ {
		if s.Has(e) {
			switch e {
			case ExtPriv:
				// implied
			case ExtZicsr, ExtZifencei, ExtXbmi:
				out += "_" + extNames[e]
			default:
				out += extNames[e]
			}
		}
	}
	return out
}

// opInfo is the static description of one Op.
type opInfo struct {
	name  string
	class Class
	ext   Ext
}

var opInfos = [NumOps]opInfo{
	OpInvalid: {"invalid", ClassNone, ExtI},

	OpLUI:    {"lui", ClassALU, ExtI},
	OpAUIPC:  {"auipc", ClassALU, ExtI},
	OpJAL:    {"jal", ClassJump, ExtI},
	OpJALR:   {"jalr", ClassJump, ExtI},
	OpBEQ:    {"beq", ClassBranch, ExtI},
	OpBNE:    {"bne", ClassBranch, ExtI},
	OpBLT:    {"blt", ClassBranch, ExtI},
	OpBGE:    {"bge", ClassBranch, ExtI},
	OpBLTU:   {"bltu", ClassBranch, ExtI},
	OpBGEU:   {"bgeu", ClassBranch, ExtI},
	OpLB:     {"lb", ClassLoad, ExtI},
	OpLH:     {"lh", ClassLoad, ExtI},
	OpLW:     {"lw", ClassLoad, ExtI},
	OpLBU:    {"lbu", ClassLoad, ExtI},
	OpLHU:    {"lhu", ClassLoad, ExtI},
	OpSB:     {"sb", ClassStore, ExtI},
	OpSH:     {"sh", ClassStore, ExtI},
	OpSW:     {"sw", ClassStore, ExtI},
	OpADDI:   {"addi", ClassALU, ExtI},
	OpSLTI:   {"slti", ClassALU, ExtI},
	OpSLTIU:  {"sltiu", ClassALU, ExtI},
	OpXORI:   {"xori", ClassALU, ExtI},
	OpORI:    {"ori", ClassALU, ExtI},
	OpANDI:   {"andi", ClassALU, ExtI},
	OpSLLI:   {"slli", ClassShift, ExtI},
	OpSRLI:   {"srli", ClassShift, ExtI},
	OpSRAI:   {"srai", ClassShift, ExtI},
	OpADD:    {"add", ClassALU, ExtI},
	OpSUB:    {"sub", ClassALU, ExtI},
	OpSLL:    {"sll", ClassShift, ExtI},
	OpSLT:    {"slt", ClassALU, ExtI},
	OpSLTU:   {"sltu", ClassALU, ExtI},
	OpXOR:    {"xor", ClassALU, ExtI},
	OpSRL:    {"srl", ClassShift, ExtI},
	OpSRA:    {"sra", ClassShift, ExtI},
	OpOR:     {"or", ClassALU, ExtI},
	OpAND:    {"and", ClassALU, ExtI},
	OpFENCE:  {"fence", ClassSystem, ExtI},
	OpFENCEI: {"fence.i", ClassSystem, ExtZifencei},
	OpECALL:  {"ecall", ClassSystem, ExtI},
	OpEBREAK: {"ebreak", ClassSystem, ExtI},

	OpMRET: {"mret", ClassSystem, ExtPriv},
	OpWFI:  {"wfi", ClassSystem, ExtPriv},

	OpCSRRW:  {"csrrw", ClassCSR, ExtZicsr},
	OpCSRRS:  {"csrrs", ClassCSR, ExtZicsr},
	OpCSRRC:  {"csrrc", ClassCSR, ExtZicsr},
	OpCSRRWI: {"csrrwi", ClassCSR, ExtZicsr},
	OpCSRRSI: {"csrrsi", ClassCSR, ExtZicsr},
	OpCSRRCI: {"csrrci", ClassCSR, ExtZicsr},

	OpMUL:    {"mul", ClassMul, ExtM},
	OpMULH:   {"mulh", ClassMul, ExtM},
	OpMULHSU: {"mulhsu", ClassMul, ExtM},
	OpMULHU:  {"mulhu", ClassMul, ExtM},
	OpDIV:    {"div", ClassDiv, ExtM},
	OpDIVU:   {"divu", ClassDiv, ExtM},
	OpREM:    {"rem", ClassDiv, ExtM},
	OpREMU:   {"remu", ClassDiv, ExtM},

	OpFLW:     {"flw", ClassFPLoad, ExtF},
	OpFSW:     {"fsw", ClassFPStore, ExtF},
	OpFMADDS:  {"fmadd.s", ClassFPMul, ExtF},
	OpFMSUBS:  {"fmsub.s", ClassFPMul, ExtF},
	OpFNMSUBS: {"fnmsub.s", ClassFPMul, ExtF},
	OpFNMADDS: {"fnmadd.s", ClassFPMul, ExtF},
	OpFADDS:   {"fadd.s", ClassFPALU, ExtF},
	OpFSUBS:   {"fsub.s", ClassFPALU, ExtF},
	OpFMULS:   {"fmul.s", ClassFPMul, ExtF},
	OpFDIVS:   {"fdiv.s", ClassFPDiv, ExtF},
	OpFSQRTS:  {"fsqrt.s", ClassFPDiv, ExtF},
	OpFSGNJS:  {"fsgnj.s", ClassFPCmp, ExtF},
	OpFSGNJNS: {"fsgnjn.s", ClassFPCmp, ExtF},
	OpFSGNJXS: {"fsgnjx.s", ClassFPCmp, ExtF},
	OpFMINS:   {"fmin.s", ClassFPCmp, ExtF},
	OpFMAXS:   {"fmax.s", ClassFPCmp, ExtF},
	OpFCVTWS:  {"fcvt.w.s", ClassFPCvt, ExtF},
	OpFCVTWUS: {"fcvt.wu.s", ClassFPCvt, ExtF},
	OpFMVXW:   {"fmv.x.w", ClassFPCvt, ExtF},
	OpFEQS:    {"feq.s", ClassFPCmp, ExtF},
	OpFLTS:    {"flt.s", ClassFPCmp, ExtF},
	OpFLES:    {"fle.s", ClassFPCmp, ExtF},
	OpFCLASSS: {"fclass.s", ClassFPCmp, ExtF},
	OpFCVTSW:  {"fcvt.s.w", ClassFPCvt, ExtF},
	OpFCVTSWU: {"fcvt.s.wu", ClassFPCvt, ExtF},
	OpFMVWX:   {"fmv.w.x", ClassFPCvt, ExtF},

	OpANDN:  {"andn", ClassBMI, ExtXbmi},
	OpORN:   {"orn", ClassBMI, ExtXbmi},
	OpXNOR:  {"xnor", ClassBMI, ExtXbmi},
	OpCLZ:   {"clz", ClassBMI, ExtXbmi},
	OpCTZ:   {"ctz", ClassBMI, ExtXbmi},
	OpCPOP:  {"cpop", ClassBMI, ExtXbmi},
	OpSEXTB: {"sext.b", ClassBMI, ExtXbmi},
	OpSEXTH: {"sext.h", ClassBMI, ExtXbmi},
	OpZEXTH: {"zext.h", ClassBMI, ExtXbmi},
	OpMIN:   {"min", ClassBMI, ExtXbmi},
	OpMAX:   {"max", ClassBMI, ExtXbmi},
	OpMINU:  {"minu", ClassBMI, ExtXbmi},
	OpMAXU:  {"maxu", ClassBMI, ExtXbmi},
	OpROL:   {"rol", ClassBMI, ExtXbmi},
	OpROR:   {"ror", ClassBMI, ExtXbmi},
	OpRORI:  {"rori", ClassBMI, ExtXbmi},
	OpREV8:  {"rev8", ClassBMI, ExtXbmi},
	OpORCB:  {"orc.b", ClassBMI, ExtXbmi},
	OpBSET:  {"bset", ClassBMI, ExtXbmi},
	OpBCLR:  {"bclr", ClassBMI, ExtXbmi},
	OpBINV:  {"binv", ClassBMI, ExtXbmi},
	OpBEXT:  {"bext", ClassBMI, ExtXbmi},
	OpBSETI: {"bseti", ClassBMI, ExtXbmi},
	OpBCLRI: {"bclri", ClassBMI, ExtXbmi},
	OpBINVI: {"binvi", ClassBMI, ExtXbmi},
	OpBEXTI: {"bexti", ClassBMI, ExtXbmi},

	OpCADDI4SPN: {"c.addi4spn", ClassALU, ExtC},
	OpCLW:       {"c.lw", ClassLoad, ExtC},
	OpCSW:       {"c.sw", ClassStore, ExtC},
	OpCNOP:      {"c.nop", ClassALU, ExtC},
	OpCADDI:     {"c.addi", ClassALU, ExtC},
	OpCJAL:      {"c.jal", ClassJump, ExtC},
	OpCLI:       {"c.li", ClassALU, ExtC},
	OpCADDI16SP: {"c.addi16sp", ClassALU, ExtC},
	OpCLUI:      {"c.lui", ClassALU, ExtC},
	OpCSRLI:     {"c.srli", ClassShift, ExtC},
	OpCSRAI:     {"c.srai", ClassShift, ExtC},
	OpCANDI:     {"c.andi", ClassALU, ExtC},
	OpCSUB:      {"c.sub", ClassALU, ExtC},
	OpCXOR:      {"c.xor", ClassALU, ExtC},
	OpCOR:       {"c.or", ClassALU, ExtC},
	OpCAND:      {"c.and", ClassALU, ExtC},
	OpCJ:        {"c.j", ClassJump, ExtC},
	OpCBEQZ:     {"c.beqz", ClassBranch, ExtC},
	OpCBNEZ:     {"c.bnez", ClassBranch, ExtC},
	OpCSLLI:     {"c.slli", ClassShift, ExtC},
	OpCLWSP:     {"c.lwsp", ClassLoad, ExtC},
	OpCJR:       {"c.jr", ClassJump, ExtC},
	OpCMV:       {"c.mv", ClassALU, ExtC},
	OpCEBREAK:   {"c.ebreak", ClassSystem, ExtC},
	OpCJALR:     {"c.jalr", ClassJump, ExtC},
	OpCADD:      {"c.add", ClassALU, ExtC},
	OpCSWSP:     {"c.swsp", ClassStore, ExtC},
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < NumOps {
		return opInfos[o].name
	}
	return fmt.Sprintf("op(%d)", uint16(o))
}

// Class returns the execution class of the instruction.
func (o Op) Class() Class {
	if int(o) < NumOps {
		return opInfos[o].class
	}
	return ClassNone
}

// Extension returns the ISA extension the instruction belongs to.
func (o Op) Extension() Ext {
	if int(o) < NumOps {
		return opInfos[o].ext
	}
	return ExtI
}

// Valid reports whether o names a real instruction.
func (o Op) Valid() bool { return o > OpInvalid && int(o) < NumOps }

// In reports whether the instruction is available in the given ISA
// configuration.
func (o Op) In(s ExtSet) bool { return o.Valid() && s.Has(o.Extension()) }

// IsBranch reports whether the instruction conditionally alters control
// flow.
func (o Op) IsBranch() bool { return o.Class() == ClassBranch }

// IsJump reports whether the instruction unconditionally alters control
// flow.
func (o Op) IsJump() bool { return o.Class() == ClassJump }

// IsControlFlow reports whether the instruction may alter control flow
// (branches, jumps, and traps-returns). Basic-block construction treats
// these as block terminators.
func (o Op) IsControlFlow() bool {
	switch o.Class() {
	case ClassBranch, ClassJump:
		return true
	}
	switch o {
	case OpECALL, OpEBREAK, OpMRET, OpCEBREAK:
		return true
	}
	return false
}

// Ops returns all valid Ops in declaration order. It is the instruction-
// type coverage universe.
func Ops() []Op {
	out := make([]Op, 0, NumOps-1)
	for o := Op(1); int(o) < NumOps; o++ {
		out = append(out, o)
	}
	return out
}

// OpsIn returns the Ops available in the given ISA configuration.
func OpsIn(s ExtSet) []Op {
	var out []Op
	for _, o := range Ops() {
		if o.In(s) {
			out = append(out, o)
		}
	}
	return out
}

// opSetWords is the number of 64-bit words an OpSet needs.
const opSetWords = (NumOps + 63) / 64

// OpSet is a bit set over the instruction universe. It is a comparable
// value type (equality via ==), which lets cached compiled code be
// tagged with the exact subset it was specialized against. The zero
// value is the empty set; as an execution allowlist the empty set means
// "unrestricted" (see Allows), so plain machines need no setup.
type OpSet struct {
	w [opSetWords]uint64
}

// Add inserts o into the set.
func (s *OpSet) Add(o Op) {
	if o.Valid() {
		s.w[o>>6] |= 1 << (o & 63)
	}
}

// Has reports whether o is in the set.
func (s OpSet) Has(o Op) bool {
	return int(o) < NumOps && s.w[o>>6]&(1<<(o&63)) != 0
}

// Empty reports whether the set contains no ops.
func (s OpSet) Empty() bool { return s == OpSet{} }

// Allows reports whether o may execute under s as an allowlist: the
// empty set places no restriction, a non-empty set admits only its
// members. This is the subset-enforcement predicate shared by the
// interpreter and the specializing compilers.
func (s OpSet) Allows(o Op) bool { return s.Empty() || s.Has(o) }

// Len returns the number of ops in the set.
func (s OpSet) Len() int {
	n := 0
	for _, w := range s.w {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Ops returns the members in declaration order.
func (s OpSet) Ops() []Op {
	out := make([]Op, 0, s.Len())
	for o := Op(1); int(o) < NumOps; o++ {
		if s.Has(o) {
			out = append(out, o)
		}
	}
	return out
}

// Union returns s ∪ t.
func (s OpSet) Union(t OpSet) OpSet {
	var out OpSet
	for i := range out.w {
		out.w[i] = s.w[i] | t.w[i]
	}
	return out
}

// Extensions returns the ExtSet spanned by the set's members.
func (s OpSet) Extensions() ExtSet {
	var e ExtSet
	for o := Op(1); int(o) < NumOps; o++ {
		if s.Has(o) {
			e = e.With(o.Extension())
		}
	}
	return e
}

// OpSetOf builds the set containing the given ops.
func OpSetOf(ops ...Op) OpSet {
	var s OpSet
	for _, o := range ops {
		s.Add(o)
	}
	return s
}

// ExtGroup returns the reporting group of the instruction: the extension
// name, with the Xbmi exploration extension split into its Zbb-flavoured
// (logic/count/rotate/byte ops) and Zbs-flavoured (single-bit ops)
// halves. The subset analyzer and the coverage tool share these names so
// pruning and coverage reports agree on what a group means.
func (o Op) ExtGroup() string {
	if o.Extension() == ExtXbmi {
		if o >= OpBSET && o <= OpBEXTI {
			return "Xbmi/Zbs"
		}
		return "Xbmi/Zbb"
	}
	return o.Extension().String()
}

// ExtGroups returns the reporting groups of the given ISA configuration
// in declaration order of their first member op.
func ExtGroups(s ExtSet) []string {
	var out []string
	seen := map[string]bool{}
	for _, o := range OpsIn(s) {
		g := o.ExtGroup()
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

// ByName returns the Op with the given mnemonic, or OpInvalid.
func ByName(name string) Op {
	return opsByName[name]
}

var opsByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for o := Op(1); int(o) < NumOps; o++ {
		m[opInfos[o].name] = o
	}
	return m
}()
