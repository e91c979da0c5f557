package smt

import (
	"fmt"
	"testing"

	"repro/internal/expr"
)

func BenchmarkBlastAndSolve(b *testing.B) {
	ops := []struct {
		name string
		mk   func(bld *expr.Builder, x, y *expr.Expr) *expr.Expr
	}{
		{"add", func(bld *expr.Builder, x, y *expr.Expr) *expr.Expr { return bld.Add(x, y) }},
		{"mul", func(bld *expr.Builder, x, y *expr.Expr) *expr.Expr { return bld.Mul(x, y) }},
		{"udiv", func(bld *expr.Builder, x, y *expr.Expr) *expr.Expr { return bld.UDiv(x, y) }},
	}
	for _, op := range ops {
		for _, w := range []uint{8, 32} {
			b.Run(fmt.Sprintf("%s/w%d", op.name, w), func(b *testing.B) {
				for b.Loop() {
					bld := expr.NewBuilder()
					s := New(bld)
					x := bld.Var(w, "x")
					y := bld.Var(w, "y")
					q := bld.BoolAnd(
						bld.Eq(op.mk(bld, x, y), bld.Const(w, 42)),
						bld.UGt(y, bld.Const(w, 1)),
					)
					if _, err := s.Check(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkIncrementalPathConditions(b *testing.B) {
	// The engine's pattern: one growing path condition queried at every
	// prefix length.
	bld := expr.NewBuilder()
	s := New(bld)
	var conds []*expr.Expr
	for i := 0; i < 16; i++ {
		in := bld.Var(8, fmt.Sprintf("in%d", i))
		conds = append(conds, bld.ULt(in, bld.Const(8, uint64(100+i))))
	}
	b.ResetTimer()
	for b.Loop() {
		for i := 1; i <= len(conds); i++ {
			if r, err := s.Check(conds[:i]...); err != nil || r != Sat {
				b.Fatal(r, err)
			}
		}
	}
}

// BenchmarkHashGuard is one bughunt fork on a fresh solver: blast the
// 5-round multiply-add hash guard and decide both sides. Run it with
// -benchmem; its B/op and allocs/op are the solver's share of bughunt's
// allocations per fork.
func BenchmarkHashGuard(b *testing.B) {
	for b.Loop() {
		bld := expr.NewBuilder()
		s := New(bld)
		g := hashGuard(bld, 0x6c1d)
		for _, q := range []*expr.Expr{g, bld.BoolNot(g)} {
			if _, err := s.Check(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}
