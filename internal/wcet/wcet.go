// Package wcet implements the static worst-case execution time analysis
// of the ecosystem — the from-scratch stand-in for the proprietary aiT
// analyzer whose reports the original QTA tool consumed. It reconstructs
// the control-flow graph of a binary, assigns every block and edge a
// worst-case cycle cost from a core timing profile, bounds loops with
// user-supplied flow facts (iteration bounds keyed by loop-head label),
// and computes the program WCET by structural longest-path evaluation
// over the loop-nest tree. Its output artifact, the WCET-annotated CFG,
// is exactly what the QTA co-simulation loads alongside the binary.
package wcet

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/timing"
)

// Config parametrizes an analysis.
type Config struct {
	// Profile is the core timing model (required).
	Profile *timing.Profile

	// Bounds gives the maximum iteration count per loop, keyed by the
	// label of the loop-head block. Every loop not covered by automatic
	// inference must appear here.
	Bounds map[string]int

	// InferBounds enables automatic bound derivation for the loops
	// Bounds does not cover: the interval-analysis trip counts of
	// dataflow.InferLoopBounds (down- and up-counting, strided, and
	// compare-terminated loops). Explicit Bounds entries always win.
	InferBounds bool

	// Symbols maps labels to addresses, used to resolve Bounds (and to
	// name blocks in reports).
	Symbols map[string]uint32
}

// BlockCost is one annotated basic block: [Start, End) and its local
// worst-case cost in cycles, excluding transfer penalties.
type BlockCost struct {
	Start uint32 `json:"start"`
	End   uint32 `json:"end"`
	Cost  uint64 `json:"cost"`
}

// EdgeCost is one annotated CFG edge: the worst-case cycle cost of
// running the source block and transferring control to the target block,
// matching the edge semantics of the QTA intermediate format.
type EdgeCost struct {
	From uint32 `json:"from"`
	To   uint32 `json:"to"`
	Cost uint64 `json:"cost"`
	Kind string `json:"kind"`
}

// Annotated is the WCET-annotated CFG: the artifact handed to QTA.
type Annotated struct {
	Entry   uint32         `json:"entry"`
	Profile string         `json:"profile"`
	WCET    uint64         `json:"wcet"`
	Blocks  []BlockCost    `json:"blocks"`
	Edges   []EdgeCost     `json:"edges"`
	Bounds  map[uint32]int `json:"bounds"` // loop head address -> iteration bound

	blockAt map[uint32]int // start -> index, built lazily
	edgeAt  map[uint64]int
}

// Analyze runs the full static analysis over the graph.
func Analyze(g *cfg.Graph, conf Config) (*Annotated, error) {
	return AnalyzeContext(context.Background(), g, conf)
}

// AnalyzeContext is Analyze under a context: cancellation (or a
// deadline) is checked at every function and loop-contraction boundary,
// so a job service can abandon an analysis of a pathological graph
// without waiting it out.
func AnalyzeContext(ctx context.Context, g *cfg.Graph, conf Config) (*Annotated, error) {
	if conf.Profile == nil {
		return nil, fmt.Errorf("wcet: timing profile required")
	}
	an := &Annotated{
		Entry:   g.Entry,
		Profile: conf.Profile.Name(),
		Bounds:  make(map[uint32]int),
	}

	// Local block and edge costs for every block in the program.
	for _, start := range g.Order {
		b := g.Blocks[start]
		cost := conf.Profile.BlockCost(b.Insts)
		an.Blocks = append(an.Blocks, BlockCost{Start: b.Start, End: b.End(), Cost: cost})
		for _, s := range b.Succs {
			pen := transferPenalty(conf.Profile, b, s.Kind)
			an.Edges = append(an.Edges, EdgeCost{
				From: b.Start, To: s.Addr,
				Cost: cost + uint64(pen),
				Kind: s.Kind.String(),
			})
		}
	}

	a := &analysis{ctx: ctx, g: g, conf: conf, an: an, funcMemo: map[uint32]uint64{}, inProgress: map[uint32]bool{}}
	total, err := a.functionWCET(g.Entry)
	if err != nil {
		return nil, err
	}
	an.WCET = total
	return an, nil
}

func transferPenalty(p *timing.Profile, b *cfg.Block, kind cfg.EdgeKind) uint32 {
	switch kind {
	case cfg.EdgeTaken:
		return p.BranchTakenPenalty
	case cfg.EdgeJump:
		return p.JumpPenalty
	}
	return 0
}

// analysis carries the per-run state of the structural WCET computation.
type analysis struct {
	ctx        context.Context
	g          *cfg.Graph
	conf       Config
	an         *Annotated
	funcMemo   map[uint32]uint64
	inProgress map[uint32]bool
}

// node is a block (or contracted loop) in the working graph.
type node struct {
	cost  uint64
	succs map[uint32]uint64 // target -> edge cost
	halt  bool              // terminates the function (halt or ret)
}

// functionWCET computes the WCET of the function at entry, including all
// callees.
func (a *analysis) functionWCET(entry uint32) (uint64, error) {
	if err := a.ctx.Err(); err != nil {
		return 0, err
	}
	if v, ok := a.funcMemo[entry]; ok {
		return v, nil
	}
	if a.inProgress[entry] {
		return 0, fmt.Errorf("wcet: recursive call cycle through 0x%08x is unbounded", entry)
	}
	a.inProgress[entry] = true
	defer delete(a.inProgress, entry)

	blocks := a.g.FunctionBlocks(entry)
	inFunc := map[uint32]bool{}
	for _, u := range blocks {
		inFunc[u] = true
	}

	// Working graph: local cost (+ callee WCET for call blocks) and edge
	// costs with transfer penalties.
	work := make(map[uint32]*node, len(blocks))
	for _, u := range blocks {
		b := a.g.Blocks[u]
		n := &node{
			cost:  a.conf.Profile.BlockCost(b.Insts),
			succs: map[uint32]uint64{},
			halt:  b.Term == cfg.TermHalt || b.Term == cfg.TermRet,
		}
		if b.Term == cfg.TermCall {
			if b.CallTarget == 0 {
				return 0, fmt.Errorf("wcet: indirect call at 0x%08x cannot be bounded", b.End())
			}
			callee, err := a.functionWCET(b.CallTarget)
			if err != nil {
				return 0, err
			}
			n.cost += callee + uint64(a.conf.Profile.JumpPenalty) // callee + return transfer
		}
		for _, s := range b.Succs {
			if !inFunc[s.Addr] {
				continue
			}
			c := n.cost + uint64(transferPenalty(a.conf.Profile, b, s.Kind))
			if old, ok := n.succs[s.Addr]; !ok || c > old {
				n.succs[s.Addr] = c
			}
		}
		work[u] = n
	}

	loops, err := a.g.NaturalLoops(entry)
	if err != nil {
		return 0, err
	}
	var auto map[uint32]int
	if a.conf.InferBounds && len(loops) > 0 {
		auto = dataflow.InferLoopBounds(a.g, entry, loops)
	}
	// Innermost first.
	sort.Slice(loops, func(i, j int) bool { return loops[i].Depth > loops[j].Depth })

	for _, l := range loops {
		if err := a.ctx.Err(); err != nil {
			return 0, err
		}
		bound, err := a.boundFor(l, auto)
		if err != nil {
			return 0, err
		}
		a.an.Bounds[l.Head] = bound
		if err := contractLoop(work, l, bound); err != nil {
			return 0, err
		}
	}

	// The contracted graph is a DAG; longest path from entry to any halt.
	memo := map[uint32]uint64{}
	onPath := map[uint32]bool{}
	var longest func(u uint32) (uint64, error)
	longest = func(u uint32) (uint64, error) {
		if v, ok := memo[u]; ok {
			return v, nil
		}
		if onPath[u] {
			return 0, fmt.Errorf("wcet: residual cycle at 0x%08x (missing loop bound?)", u)
		}
		onPath[u] = true
		defer delete(onPath, u)
		n := work[u]
		if n == nil {
			return 0, fmt.Errorf("wcet: dangling edge to 0x%08x", u)
		}
		best := n.cost // path ends here (halt/ret or no successors)
		for to, ec := range n.succs {
			sub, err := longest(to)
			if err != nil {
				return 0, err
			}
			// Edge cost already includes the source block cost.
			if ec+sub > best {
				best = ec + sub
			}
		}
		memo[u] = best
		return best, nil
	}
	total, err := longest(entry)
	if err != nil {
		return 0, err
	}
	a.funcMemo[entry] = total
	return total, nil
}

// boundFor resolves the iteration bound of a loop: explicit flow facts
// first, then the interval-inferred bounds in auto (empty unless
// inference is enabled).
func (a *analysis) boundFor(l *cfg.Loop, auto map[uint32]int) (int, error) {
	head := l.Head
	for label, bound := range a.conf.Bounds {
		if addr, ok := a.conf.Symbols[label]; ok && addr == head {
			if bound < 1 {
				return 0, fmt.Errorf("wcet: bound for %q must be >= 1", label)
			}
			return bound, nil
		}
	}
	if bound, ok := auto[head]; ok {
		return bound, nil
	}
	name := "?"
	var bestAddr uint32
	for label, addr := range a.conf.Symbols {
		if addr <= head && addr >= bestAddr {
			bestAddr, name = addr, label
		}
	}
	return 0, fmt.Errorf("wcet: no iteration bound for loop head 0x%08x (near label %q)", head, name)
}

// contractLoop replaces the loop with a single node at its head whose
// cost covers bound iterations plus the worst exit path. Inner loops
// were already contracted, so the members present in work form a DAG
// once edges to the head are ignored.
func contractLoop(work map[uint32]*node, l *cfg.Loop, bound int) error {
	members := map[uint32]bool{}
	for b := range l.Blocks {
		if _, ok := work[b]; ok {
			members[b] = true
		}
	}
	head := l.Head
	if !members[head] {
		return fmt.Errorf("wcet: loop head 0x%08x already contracted", head)
	}

	// Longest path inside the loop from head, treating edges to head as
	// closing an iteration.
	type best struct {
		iter    uint64            // max path cost ending with a back edge to head
		exit    map[uint32]uint64 // max path cost per outside target
		halt    uint64            // max path cost ending at a halting member
		hasHalt bool
		hasIter bool
	}
	memo := map[uint32]*best{}
	onPath := map[uint32]bool{}
	var walk func(u uint32) (*best, error)
	walk = func(u uint32) (*best, error) {
		if b, ok := memo[u]; ok {
			return b, nil
		}
		if onPath[u] {
			return nil, fmt.Errorf("wcet: irreducible cycle inside loop 0x%08x at 0x%08x", head, u)
		}
		onPath[u] = true
		defer delete(onPath, u)
		n := work[u]
		b := &best{exit: map[uint32]uint64{}}
		if n.halt || len(n.succs) == 0 {
			b.halt, b.hasHalt = n.cost, true
		}
		for to, ec := range n.succs {
			switch {
			case to == head:
				if ec > b.iter {
					b.iter = ec
				}
				b.hasIter = true
			case members[to]:
				sub, err := walk(to)
				if err != nil {
					return nil, err
				}
				if sub.hasIter && ec+sub.iter > b.iter {
					b.iter = ec + sub.iter
					b.hasIter = true
				}
				for t, c := range sub.exit {
					if ec+c > b.exit[t] {
						b.exit[t] = ec + c
					}
				}
				if sub.hasHalt && ec+sub.halt > b.halt {
					b.halt = ec + sub.halt
					b.hasHalt = true
				}
			default:
				// Exit edge: cost of the path ends with this edge; the
				// target's own cost is added by the outer longest-path.
				if ec > b.exit[to] {
					b.exit[to] = ec
				}
			}
		}
		memo[u] = b
		return b, nil
	}
	hb, err := walk(head)
	if err != nil {
		return err
	}

	// Total loop cost: the head executes at most `bound` times, so the
	// back edge is taken at most bound-1 times; the final head execution
	// leaves via the worst exit path (which includes the head cost).
	var iterCost uint64
	if hb.hasIter {
		iterCost = hb.iter
	}
	total := uint64(bound-1) * iterCost

	n := &node{cost: total, succs: map[uint32]uint64{}}
	for t, c := range hb.exit {
		n.succs[t] = total + c
	}
	if hb.hasHalt {
		n.halt = true
		n.cost = total + hb.halt
	}
	work[head] = n
	for m := range members {
		if m != head {
			delete(work, m)
		}
	}
	// Redirect: reducible loops are entered only through the head, so no
	// other incoming edges need rewriting; edges into the head keep their
	// cost (they carry the predecessor's cost).
	return nil
}
