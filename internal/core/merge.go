package core

import "repro/internal/expr"

// Opportunistic state merging (a lightweight take on veritesting /
// MergePoint-style path merging): whenever two live states sit at the
// same program counter with the same input position, they are merged
// into one state whose registers and memory are if-then-else selections
// over the two path conditions, and whose path condition is the
// disjunction. On branch-ladder programs this collapses the 2^k paths
// into k+1 live states, trading path count for term size.
//
// The merge is *opportunistic*: it fires only when the candidate states
// coexist in the live set (BFS-style strategies align reconverging
// branches best; DFS usually retires one side before the other arrives).
// Full veritesting-style merging would require static CFG analysis to
// force reconvergence points, which is out of scope.

// mergeLive folds mergeable state pairs in the live set. It preserves
// the relative order of the surviving states (important for DFS).
func (e *Engine) mergeLive(live []*State) []*State {
	if len(live) < 2 {
		return live
	}
	out := live[:0]
	byPC := make(map[uint64]int, len(live)) // pc -> index in out
	for _, st := range live {
		if idx, ok := byPC[st.PC]; ok {
			if merged := e.merge(out[idx], st); merged != nil {
				out[idx] = merged
				e.rec.merge(merged)
				continue
			}
		}
		byPC[st.PC] = len(out)
		out = append(out, st)
	}
	return out
}

// merge combines two states at the same pc; nil when they are not
// mergeable (different input positions or output streams of different
// shape).
func (e *Engine) merge(a, b *State) *State {
	if a.PC != b.PC || a.inputCount != b.inputCount || len(a.Output) != len(b.Output) {
		return nil
	}
	condA := e.conj(a.PathCond)
	condB := e.conj(b.PathCond)

	m := &State{
		ID:         e.nextID,
		Parent:     a.ID,
		regs:       make([]*expr.Expr, len(a.regs)),
		PC:         a.PC,
		Steps:      max(a.Steps, b.Steps),
		Depth:      max(a.Depth, b.Depth),
		inputCount: a.inputCount,
		PathCond:   []*expr.Expr{e.B.BoolOr(condA, condB)},
		model:      a.model, // satisfies condA, hence the disjunction
	}
	m.sig = expr.MixHash(0, expr.Hash(m.PathCond[0]))
	e.nextID++
	for i := range a.regs {
		m.regs[i] = e.ite(condA, a.regs[i], b.regs[i])
	}
	m.Output = make([]*expr.Expr, len(a.Output))
	for i := range a.Output {
		m.Output[i] = e.ite(condA, a.Output[i], b.Output[i])
	}
	m.mem = e.mergeMemory(condA, a.mem, b.mem)
	return m
}

func (e *Engine) ite(c, x, y *expr.Expr) *expr.Expr {
	if x == y {
		return x
	}
	return e.B.ITE(c, x, y)
}

// conj folds a path condition list into one boolean term.
func (e *Engine) conj(conds []*expr.Expr) *expr.Expr {
	acc := e.B.True()
	for _, c := range conds {
		acc = e.B.BoolAnd(acc, c)
	}
	return acc
}

// mergeMemory builds the byte-wise ite merge of two overlays sharing a
// base image.
func (e *Engine) mergeMemory(condA *expr.Expr, a, b *Memory) *Memory {
	m := newMemory(a.base, a.mask)
	a.each(func(addr uint64, va *expr.Expr) {
		vb := b.get(addr)
		if vb == nil {
			vb = e.B.Const(8, uint64(b.base[addr]))
		}
		m.set(addr, e.ite(condA, va, vb))
	})
	b.each(func(addr uint64, vb *expr.Expr) {
		if a.get(addr) == nil {
			m.set(addr, e.ite(condA, e.B.Const(8, uint64(a.base[addr])), vb))
		}
	})
	return m
}
