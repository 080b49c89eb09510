// Package dataflow is a generic forward dataflow / abstract
// interpretation engine over the reconstructed CFG, in the style of the
// value analysis at the core of static WCET tools: a worklist solver
// iterating in reverse postorder with widening at loop heads. Concrete
// domains supplied here are per-register value intervals and
// initialized-register tracking; internal/lint and internal/wcet build
// their checks and loop-bound inference on top.
package dataflow

import "repro/internal/cfg"

// Domain is one abstract domain: S is the abstract state attached to
// program points. All operations must be monotone for the solver to
// terminate (Widen must additionally stabilize any ascending chain).
type Domain[S any] interface {
	// Entry is the state on entry to the analyzed function.
	Entry() S
	// Top is the no-information state, used as a sound fallback if the
	// solver fails to converge within its iteration budget.
	Top() S
	// Join merges two states at a control-flow merge.
	Join(a, b S) S
	// Widen extrapolates next against the previous state at a loop head.
	Widen(prev, next S) S
	// Equal reports whether two states carry the same information.
	Equal(a, b S) bool
	// TransferBlock pushes a state through every instruction of a block
	// (including call havoc for TermCall blocks).
	TransferBlock(b *cfg.Block, in S) S
	// TransferEdge refines the block's out-state along one successor
	// edge (e.g. a branch condition); ok=false marks the edge statically
	// infeasible.
	TransferEdge(b *cfg.Block, s cfg.Succ, out S) (S, bool)
}

// Result holds the fixpoint states of one function-level solve.
type Result[S any] struct {
	// In and Out are the states before and after each reachable block.
	In, Out map[uint32]S
	// Order is the reverse postorder over the function's blocks.
	Order []uint32
	// Preds lists the intraprocedural predecessors of each block.
	Preds map[uint32][]uint32

	g *cfg.Graph
	d Domain[S]
}

// EdgeState returns the out-state of block `from` refined along its edge
// to `to`. ok=false means the edge is statically infeasible or from is
// unreachable. When a block has several edges to the same target their
// refined states are joined.
func (r *Result[S]) EdgeState(from, to uint32) (S, bool) {
	var zero S
	out, ok := r.Out[from]
	if !ok {
		return zero, false
	}
	b := r.g.Blocks[from]
	var acc S
	have := false
	for _, s := range b.Succs {
		if s.Addr != to {
			continue
		}
		es, feasible := r.d.TransferEdge(b, s, out)
		if !feasible {
			continue
		}
		if !have {
			acc, have = es, true
		} else {
			acc = r.d.Join(acc, es)
		}
	}
	return acc, have
}

// Solve runs the forward analysis over the function at entry (following
// intraprocedural edges only; call blocks are handled by the domain's
// TransferBlock). Blocks whose every incoming edge is infeasible keep no
// state and are absent from Result.In/Out.
func Solve[S any](g *cfg.Graph, entry uint32, d Domain[S]) *Result[S] {
	order, preds := g.RPO(entry)
	idx := make(map[uint32]int, len(order))
	for i, u := range order {
		idx[u] = i
	}
	// Widening points: targets of retreating edges in RPO.
	widenAt := map[uint32]bool{}
	for _, u := range order {
		for _, s := range g.Blocks[u].Succs {
			if j, ok := idx[s.Addr]; ok && j <= idx[u] {
				widenAt[s.Addr] = true
			}
		}
	}

	r := &Result[S]{
		In:    make(map[uint32]S, len(order)),
		Out:   make(map[uint32]S, len(order)),
		Order: order,
		Preds: preds,
		g:     g,
		d:     d,
	}
	visits := map[uint32]int{}

	maxRounds := 8*len(order) + 32
	for round := 0; ; round++ {
		if round >= maxRounds {
			// Did not converge (should not happen with a proper Widen);
			// fall back to the sound no-information answer everywhere.
			for _, u := range order {
				r.In[u] = d.Top()
				r.Out[u] = d.TransferBlock(g.Blocks[u], d.Top())
			}
			return r
		}
		changed := false
		for _, u := range order {
			var in S
			have := false
			if u == entry {
				in, have = d.Entry(), true
			}
			for _, p := range preds[u] {
				es, ok := r.EdgeState(p, u)
				if !ok {
					continue
				}
				if !have {
					in, have = es, true
				} else {
					in = d.Join(in, es)
				}
			}
			if !have {
				continue // no feasible path in yet
			}
			old, hadIn := r.In[u]
			if hadIn {
				if widenAt[u] && visits[u] >= 2 {
					in = d.Widen(old, in)
				} else if widenAt[u] {
					in = d.Join(old, in)
				}
				if d.Equal(old, in) {
					continue
				}
			}
			visits[u]++
			r.In[u] = in
			r.Out[u] = d.TransferBlock(g.Blocks[u], in)
			changed = true
		}
		if !changed {
			return r
		}
	}
}
