package cfg

import (
	"fmt"
	"sort"
)

// RPO computes a reverse postorder over the function at entry, along with
// predecessor lists (intraprocedural edges only).
func (g *Graph) RPO(entry uint32) (order []uint32, preds map[uint32][]uint32) {
	preds = make(map[uint32][]uint32)
	seen := map[uint32]bool{}
	var post []uint32
	var dfs func(u uint32)
	dfs = func(u uint32) {
		if seen[u] {
			return
		}
		seen[u] = true
		b, ok := g.Blocks[u]
		if !ok {
			return
		}
		for _, s := range b.Succs {
			if _, ok := g.Blocks[s.Addr]; ok {
				preds[s.Addr] = append(preds[s.Addr], u)
				dfs(s.Addr)
			}
		}
		post = append(post, u)
	}
	dfs(entry)
	order = make([]uint32, len(post))
	for i, u := range post {
		order[len(post)-1-i] = u
	}
	return order, preds
}

// Dominators computes the immediate dominator of every block in the
// function at entry (Cooper–Harvey–Kennedy iterative algorithm). The
// entry maps to itself.
func (g *Graph) Dominators(entry uint32) map[uint32]uint32 {
	order, preds := g.RPO(entry)
	rpoNum := make(map[uint32]int, len(order))
	for i, u := range order {
		rpoNum[u] = i
	}
	idom := map[uint32]uint32{entry: entry}
	intersect := func(a, b uint32) uint32 {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, u := range order {
			if u == entry {
				continue
			}
			var newIdom uint32
			have := false
			for _, p := range preds[u] {
				if _, ok := idom[p]; !ok {
					continue
				}
				if !have {
					newIdom = p
					have = true
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if have && idom[u] != newIdom {
				idom[u] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b under the idom map
// returned by Dominators.
func Dominates(idom map[uint32]uint32, a, b uint32) bool {
	return dominates(idom, a, b)
}

// dominates reports whether a dominates b under idom.
func dominates(idom map[uint32]uint32, a, b uint32) bool {
	for {
		if a == b {
			return true
		}
		next, ok := idom[b]
		if !ok || next == b {
			return false
		}
		b = next
	}
}

// Loop is one natural loop.
type Loop struct {
	Head   uint32
	Blocks map[uint32]bool
	Parent *Loop    // innermost enclosing loop, nil at top level
	Depth  int      // 1 = outermost
	Back   []uint32 // sources of the back edges
}

// NaturalLoops finds the natural loops of the function at entry, sorted
// by head address, with nesting computed. It returns an error for
// irreducible flow (a back edge whose target does not dominate its
// source), which the WCET analyzer refuses to bound.
func (g *Graph) NaturalLoops(entry uint32) ([]*Loop, error) {
	order, preds := g.RPO(entry)
	idom := g.Dominators(entry)
	inFunc := map[uint32]bool{}
	for _, u := range order {
		inFunc[u] = true
	}

	loops := map[uint32]*Loop{}
	for _, u := range order {
		for _, s := range g.Blocks[u].Succs {
			h := s.Addr
			if !inFunc[h] {
				continue
			}
			if !dominates(idom, h, u) {
				// Forward or cross edge unless it closes a cycle; detect
				// retreating edges that are not back edges (irreducible).
				if reaches(g, inFunc, h, u) && rpoIndex(order, h) <= rpoIndex(order, u) {
					return nil, fmt.Errorf("cfg: irreducible loop around 0x%08x -> 0x%08x", u, h)
				}
				continue
			}
			l := loops[h]
			if l == nil {
				l = &Loop{Head: h, Blocks: map[uint32]bool{h: true}}
				loops[h] = l
			}
			l.Back = append(l.Back, u)
			// Natural loop body: backwards walk from u to h.
			stack := []uint32{u}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[v] {
					continue
				}
				l.Blocks[v] = true
				for _, p := range preds[v] {
					stack = append(stack, p)
				}
			}
		}
	}

	out := make([]*Loop, 0, len(loops))
	for _, l := range loops {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Head < out[j].Head })

	// Nesting: the parent is the smallest strictly containing loop.
	for _, l := range out {
		var best *Loop
		for _, m := range out {
			if m == l || !m.Blocks[l.Head] || len(m.Blocks) <= len(l.Blocks) {
				continue
			}
			contains := true
			for b := range l.Blocks {
				if !m.Blocks[b] {
					contains = false
					break
				}
			}
			if contains && (best == nil || len(m.Blocks) < len(best.Blocks)) {
				best = m
			}
		}
		l.Parent = best
	}
	for _, l := range out {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return out, nil
}

func rpoIndex(order []uint32, u uint32) int {
	for i, v := range order {
		if v == u {
			return i
		}
	}
	return -1
}

// reaches reports whether dst is reachable from src within the function.
func reaches(g *Graph, inFunc map[uint32]bool, src, dst uint32) bool {
	seen := map[uint32]bool{}
	stack := []uint32{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == dst {
			return true
		}
		if seen[u] || !inFunc[u] {
			continue
		}
		seen[u] = true
		for _, s := range g.Blocks[u].Succs {
			stack = append(stack, s.Addr)
		}
	}
	return false
}
