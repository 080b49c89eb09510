package emu

// ExecOps counts the sbExec micro-ops — calls into the interpreter — in
// the compiled form of the block at pc and in the trace entered there,
// if any; ok is false when no compiled block starts at pc.
func ExecOps(m *Machine, pc uint32) (block, trace int, ok bool) {
	t := m.tbs[pc]
	if t == nil || t.ops == nil {
		return 0, 0, false
	}
	count := func(ops []sbOp) (n int) {
		for _, op := range ops {
			if op.kind == sbExec {
				n++
			}
		}
		return n
	}
	if t.trace != nil {
		trace = count(t.trace.ops)
	}
	return count(t.ops), trace, true
}
