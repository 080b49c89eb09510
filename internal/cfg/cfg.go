// Package cfg reconstructs control-flow graphs from RV32 machine code.
// It is the structural substrate of the WCET flow: the static analyzer
// annotates its blocks and edges with worst-case cycle costs, and the QTA
// co-simulation tracks execution through them. Reconstruction follows
// reachable code from the entry point (so data in the image is never
// misdecoded), splits at branch targets, distinguishes calls from jumps,
// and recognizes the bare-metal "jump-to-self" idle idiom as a halt node.
package cfg

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/decode"
	"repro/internal/isa"
)

// TermKind classifies how a basic block ends.
type TermKind uint8

const (
	TermFall   TermKind = iota // falls into the next block (split at a leader)
	TermBranch                 // conditional branch: taken + fallthrough edges
	TermJump                   // unconditional direct jump
	TermCall                   // jal/jalr with a link register: callee + return-to-fallthrough
	TermRet                    // indirect jump (function return)
	TermHalt                   // ebreak / self-loop idle / trap-raising end
)

func (k TermKind) String() string {
	switch k {
	case TermFall:
		return "fall"
	case TermBranch:
		return "branch"
	case TermJump:
		return "jump"
	case TermCall:
		return "call"
	case TermRet:
		return "ret"
	case TermHalt:
		return "halt"
	}
	return "term?"
}

// EdgeKind classifies a CFG edge for cost assignment.
type EdgeKind uint8

const (
	EdgeFall  EdgeKind = iota // straight-line continuation
	EdgeTaken                 // taken conditional branch
	EdgeJump                  // unconditional jump
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeFall:
		return "fall"
	case EdgeTaken:
		return "taken"
	case EdgeJump:
		return "jump"
	}
	return "edge?"
}

// Succ is one control-flow successor of a block.
type Succ struct {
	Addr uint32
	Kind EdgeKind
}

// Block is one basic block.
type Block struct {
	Start uint32
	Insts []decode.Inst
	Addrs []uint32
	Term  TermKind
	Succs []Succ

	// CallTarget is the callee entry for TermCall blocks. Indirect calls
	// carry 0 unless resolution (BuildResolved) pinned a single target.
	CallTarget uint32

	// CallTargets lists every statically resolved callee of an indirect
	// TermCall block (nil for direct calls and unresolved indirects).
	// len > 1 means a call through a table of known function pointers:
	// CallTarget stays 0, but the callees are all in the graph.
	CallTargets []uint32
}

// End returns the address one past the last instruction.
func (b *Block) End() uint32 {
	last := len(b.Insts) - 1
	return b.Addrs[last] + uint32(b.Insts[last].Size)
}

// Graph is a whole-program CFG.
type Graph struct {
	Entry  uint32
	Blocks map[uint32]*Block
	Order  []uint32 // block starts in ascending address order
}

// Build reconstructs the CFG of the code reachable from entry in image
// (loaded at base). Indirect jumps and calls terminate exploration: the
// graph is open at those points (TermRet / TermCall with CallTarget 0).
func Build(image []byte, base, entry uint32) (*Graph, error) {
	return BuildResolved(image, base, entry, nil)
}

// BuildResolved is Build with externally resolved indirect control flow:
// indirect maps the address of a jalr/c.jr/c.jalr instruction to the set
// of targets it can transfer to, as proven by a value analysis (see
// internal/subset). Resolved indirect jumps become TermJump blocks with
// one edge per target, closing the CFG; resolved indirect calls record
// their callees (CallTarget for a unique one, CallTargets always), so
// interprocedural walks follow them. Instructions absent from the map
// keep Build's open-graph behaviour.
func BuildResolved(image []byte, base, entry uint32, indirect map[uint32][]uint32) (*Graph, error) {
	fetch16 := func(addr uint32) (uint16, bool) {
		off := addr - base
		if addr < base || int(off)+2 > len(image) {
			return 0, false
		}
		return binary.LittleEndian.Uint16(image[off:]), true
	}
	decodeAt := func(addr uint32) (decode.Inst, bool) {
		lo, ok := fetch16(addr)
		if !ok {
			return decode.Inst{}, false
		}
		if decode.IsCompressed(lo) {
			return decode.Decode16(lo), true
		}
		hi, ok := fetch16(addr + 2)
		if !ok {
			return decode.Inst{}, false
		}
		return decode.Decode32(uint32(lo) | uint32(hi)<<16), true
	}

	insts := make(map[uint32]decode.Inst)
	leaders := map[uint32]bool{entry: true}
	work := []uint32{entry}
	seen := map[uint32]bool{}

	for len(work) > 0 {
		addr := work[len(work)-1]
		work = work[:len(work)-1]
		for addr != 0 && !seen[addr] {
			seen[addr] = true
			in, ok := decodeAt(addr)
			if !ok {
				return nil, fmt.Errorf("cfg: fetch out of image at 0x%08x", addr)
			}
			insts[addr] = in
			if !in.Valid() {
				break // decodes as illegal: terminates the path
			}
			next := addr + uint32(in.Size)
			switch {
			case in.Op.IsBranch():
				tgt, _ := in.Target(addr)
				leaders[tgt] = true
				leaders[next] = true
				work = append(work, tgt)
				addr = next
			case in.Op == isa.OpJAL || in.Op == isa.OpCJ || in.Op == isa.OpCJAL:
				tgt, _ := in.Target(addr)
				leaders[tgt] = true
				work = append(work, tgt)
				if in.Rd != isa.Zero { // call: execution resumes after it
					leaders[next] = true
					addr = next
				} else {
					addr = 0 // direct jump: the target is already queued
				}
			case in.Op == isa.OpJALR || in.Op == isa.OpCJR || in.Op == isa.OpCJALR:
				for _, tgt := range indirect[addr] {
					leaders[tgt] = true
					work = append(work, tgt)
				}
				if in.Rd != isa.Zero {
					// Indirect call (callees, if resolved, were queued
					// above): execution resumes after it.
					leaders[next] = true
					addr = next
				} else {
					addr = 0 // return / indirect jump terminates the path
				}
			case in.Op == isa.OpECALL, in.Op == isa.OpEBREAK, in.Op == isa.OpMRET,
				in.Op == isa.OpCEBREAK:
				addr = 0
			default:
				addr = next
			}
		}
	}

	// Split into blocks at leaders.
	addrs := make([]uint32, 0, len(insts))
	for a := range insts {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	g := &Graph{Entry: entry, Blocks: make(map[uint32]*Block)}
	var cur *Block
	flush := func() {
		if cur != nil && len(cur.Insts) > 0 {
			g.Blocks[cur.Start] = cur
			g.Order = append(g.Order, cur.Start)
		}
		cur = nil
	}
	for i, a := range addrs {
		in := insts[a]
		// Start a new block at leaders and after gaps.
		if cur == nil || leaders[a] || a != cur.End() {
			flush()
			cur = &Block{Start: a}
		}
		cur.Insts = append(cur.Insts, in)
		cur.Addrs = append(cur.Addrs, a)
		terminated := classify(cur, in, a, indirect)
		contiguousNext := i+1 < len(addrs) && addrs[i+1] == a+uint32(in.Size)
		if terminated || !contiguousNext {
			flush()
		}
	}
	flush()

	// Add fallthrough edges for blocks split at leaders.
	for _, start := range g.Order {
		b := g.Blocks[start]
		if b.Term == TermFall {
			next := b.End()
			if _, ok := g.Blocks[next]; ok {
				b.Succs = []Succ{{next, EdgeFall}}
			} else {
				b.Term = TermHalt
			}
		}
	}
	sort.Slice(g.Order, func(i, j int) bool { return g.Order[i] < g.Order[j] })
	if _, ok := g.Blocks[entry]; !ok {
		return nil, fmt.Errorf("cfg: entry 0x%08x produced no block", entry)
	}
	return g, nil
}

// classify fills the block's terminator info when in ends it; it reports
// whether in terminates the block. indirect carries resolved indirect
// targets keyed by instruction address (nil for the open graph).
func classify(b *Block, in decode.Inst, addr uint32, indirect map[uint32][]uint32) bool {
	if !in.Valid() {
		b.Term = TermHalt
		return true
	}
	next := addr + uint32(in.Size)
	switch {
	case in.Op.IsBranch():
		tgt, _ := in.Target(addr)
		b.Term = TermBranch
		b.Succs = []Succ{{tgt, EdgeTaken}, {next, EdgeFall}}
		return true
	case in.Op == isa.OpJAL, in.Op == isa.OpCJ, in.Op == isa.OpCJAL:
		tgt, _ := in.Target(addr)
		if in.Rd != isa.Zero {
			b.Term = TermCall
			b.CallTarget = tgt
			b.Succs = []Succ{{next, EdgeJump}}
			return true
		}
		if tgt == addr {
			// jump-to-self: the bare-metal idle/halt idiom.
			b.Term = TermHalt
			return true
		}
		b.Term = TermJump
		b.Succs = []Succ{{tgt, EdgeJump}}
		return true
	case in.Op == isa.OpJALR, in.Op == isa.OpCJR, in.Op == isa.OpCJALR:
		tgts := indirect[addr]
		if in.Rd != isa.Zero {
			// Indirect call: return-to-fallthrough; the callee set is
			// whatever resolution proved (possibly nothing).
			b.Term = TermCall
			b.CallTarget = 0
			b.CallTargets = tgts
			if len(tgts) == 1 {
				b.CallTarget = tgts[0]
			}
			b.Succs = []Succ{{next, EdgeJump}}
			return true
		}
		if len(tgts) > 0 {
			// Resolved computed goto (jump table): the graph closes with
			// one jump edge per proven target.
			b.Term = TermJump
			for _, t := range tgts {
				b.Succs = append(b.Succs, Succ{t, EdgeJump})
			}
			return true
		}
		b.Term = TermRet
		return true
	case in.Op == isa.OpECALL, in.Op == isa.OpEBREAK, in.Op == isa.OpMRET, in.Op == isa.OpCEBREAK:
		b.Term = TermHalt
		return true
	}
	return false
}

// BlockAt returns the block containing addr, if any.
func (g *Graph) BlockAt(addr uint32) (*Block, bool) {
	// Blocks are sorted; binary search on Order.
	i := sort.Search(len(g.Order), func(i int) bool { return g.Order[i] > addr })
	if i == 0 {
		return nil, false
	}
	b := g.Blocks[g.Order[i-1]]
	if addr >= b.Start && addr < b.End() {
		return b, true
	}
	return nil, false
}

// FunctionBlocks returns the starts of all blocks reachable from entry
// without following call edges (the intraprocedural region), sorted.
func (g *Graph) FunctionBlocks(entry uint32) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	var walk func(u uint32)
	walk = func(u uint32) {
		if seen[u] {
			return
		}
		b, ok := g.Blocks[u]
		if !ok {
			return
		}
		seen[u] = true
		out = append(out, u)
		for _, s := range b.Succs {
			walk(s.Addr)
		}
	}
	walk(entry)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Callees returns the statically known call targets in the function at
// entry.
func (g *Graph) Callees(entry uint32) []uint32 {
	set := map[uint32]bool{}
	for _, u := range g.FunctionBlocks(entry) {
		b := g.Blocks[u]
		if b.Term != TermCall {
			continue
		}
		if b.CallTarget != 0 {
			set[b.CallTarget] = true
		}
		for _, t := range b.CallTargets {
			set[t] = true
		}
	}
	out := make([]uint32, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DOT renders the graph in Graphviz format, with optional symbol names.
func (g *Graph) DOT(symbols map[uint32]string) string {
	return g.DOTAnnotated(symbols, nil, nil)
}

// DOTAnnotated renders the graph in Graphviz format with extra
// annotation lines appended to each block's label (keyed by block start
// address): loop facts, inferred bounds, lint findings. graphNotes, the
// notes that belong to no block, become the graph's own label.
func (g *Graph) DOTAnnotated(symbols map[uint32]string, notes map[uint32][]string, graphNotes []string) string {
	var sb strings.Builder
	sb.WriteString("digraph cfg {\n  node [shape=box fontname=monospace];\n")
	for _, start := range g.Order {
		b := g.Blocks[start]
		var lines []string
		if name, ok := symbols[start]; ok {
			lines = append(lines, name+":")
		}
		for i, in := range b.Insts {
			lines = append(lines, fmt.Sprintf("%08x: %s", b.Addrs[i], in))
		}
		for _, n := range notes[start] {
			lines = append(lines, "# "+n)
		}
		fmt.Fprintf(&sb, "  b%x [label=\"%s\"];\n", start, strings.Join(lines, "\\l")+"\\l")
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, "  b%x -> b%x [label=\"%s\"];\n", start, s.Addr, s.Kind)
		}
		if b.Term == TermCall && b.CallTarget != 0 {
			fmt.Fprintf(&sb, "  b%x -> b%x [style=dashed label=\"call\"];\n", start, b.CallTarget)
		}
	}
	if len(graphNotes) > 0 {
		fmt.Fprintf(&sb, "  label=\"# %s\\l\";\n  labeljust=l;\n", strings.Join(graphNotes, "\\l# "))
	}
	sb.WriteString("}\n")
	return sb.String()
}
