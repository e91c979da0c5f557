package smt

import (
	"testing"

	"repro/internal/expr"
)

// fuzzBytes hands out fuzz input bytes, then zeros once it runs dry.
type fuzzBytes struct {
	data []byte
	i    int
}

func (r *fuzzBytes) next() int {
	if r.i >= len(r.data) {
		return 0
	}
	r.i++
	return int(r.data[r.i-1])
}

// fuzzTerm builds one width-w operation over a and c, chosen by op.
func fuzzTerm(b *expr.Builder, op int, a, c *expr.Expr, w uint) *expr.Expr {
	switch op % 17 {
	case 0:
		return b.Add(a, c)
	case 1:
		return b.Sub(a, c)
	case 2:
		return b.Mul(a, c)
	case 3:
		return b.UDiv(a, c)
	case 4:
		return b.URem(a, c)
	case 5:
		return b.SDiv(a, c)
	case 6:
		return b.SRem(a, c)
	case 7:
		return b.And(a, c)
	case 8:
		return b.Or(a, c)
	case 9:
		return b.Xor(a, c)
	case 10:
		return b.Shl(a, c)
	case 11:
		return b.LShr(a, c)
	case 12:
		return b.AShr(a, c)
	case 13:
		return b.Not(a)
	case 14:
		return b.Neg(c)
	case 15:
		return b.ITE(fuzzPred(b, op/17, a, c), a, c)
	}
	if w < 2 {
		return a
	}
	k := uint(1 + op/17%int(w-1)) // rotate a right by k
	return b.Concat(b.Extract(a, k-1, 0), b.Extract(a, w-1, k))
}

// fuzzPred builds one comparison of a and c, chosen by op.
func fuzzPred(b *expr.Builder, op int, a, c *expr.Expr) *expr.Expr {
	switch op % 6 {
	case 0:
		return b.Eq(a, c)
	case 1:
		return b.Ne(a, c)
	case 2:
		return b.ULt(a, c)
	case 3:
		return b.ULe(a, c)
	case 4:
		return b.SLt(a, c)
	}
	return b.SLe(a, c)
}

// FuzzSolverAgainstEval decodes random QF_BV terms of one width w <= 8
// over x (w bits) and y (at most 4 bits, extended to w), then checks a
// growing sequence of conjunctions on one incremental solver. Every Sat
// model must satisfy the conjunction under expr.Eval, and every Unsat
// answer is confirmed by enumerating all inputs. Each conjunction is
// also posed through CheckUnder on a second, cached solver, with its
// last Sat model and a prefix that model satisfies: the answer must
// equal a fresh solver's full-decision Check, and a Sat model, whether
// reused or solved, must satisfy every conjunct.
func FuzzSolverAgainstEval(f *testing.F) {
	f.Add([]byte{7, 3, 5, 2, 0, 1, 2, 2, 0, 3, 14, 1, 4, 2, 9, 3, 5, 7, 1, 0, 6})
	f.Add([]byte{3, 1, 0, 4, 0, 1, 3, 5, 1, 2, 1, 3, 2, 0})
	f.Add([]byte{0, 0, 9, 6, 5, 1, 0, 6, 2, 1, 11, 3, 2, 16, 0, 3, 1, 4, 2, 0})
	f.Add([]byte{5, 2, 255, 7, 2, 1, 2, 15, 3, 0, 12, 4, 1, 10, 0, 2, 3, 1, 0, 5, 2, 4})
	f.Add([]byte("700002100002")) // CheckUnder must evaluate every conjunct past the known prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzBytes{data: data}
		b := expr.NewBuilder()
		w := uint(1 + r.next()%8)
		yw := 1 + uint(r.next())%min(w, 4)
		x, y := b.Var(w, "x"), b.Var(yw, "y")
		ye := b.ZExt(y, w)
		if r.next()%2 == 1 {
			ye = b.SExt(y, w)
		}
		pool := []*expr.Expr{x, ye, b.Const(w, uint64(r.next()))}
		for n := r.next() % 8; n > 0; n-- {
			a, c := pool[r.next()%len(pool)], pool[r.next()%len(pool)]
			pool = append(pool, fuzzTerm(b, r.next(), a, c, w))
		}
		s := New(b)
		u := New(b)
		u.Cache = NewQueryCache()
		var m expr.Env // u's last Sat model; it satisfies conds[:known]
		known := 0
		var conds []*expr.Expr
		for q := 1 + r.next()%4; q > 0; q-- {
			a, c := pool[r.next()%len(pool)], pool[r.next()%len(pool)]
			p := fuzzPred(b, r.next(), a, c)
			if op := r.next() % 4; op == 1 && len(conds) > 0 {
				p = b.BoolOr(p, conds[len(conds)-1])
			} else if op == 2 {
				p = b.BoolNot(p)
			}
			conds = append(conds, p)
			res, err := s.Check(conds...)
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			switch res {
			case Sat:
				for i, c := range conds {
					if !expr.EvalBool(c, s.Model()) {
						t.Fatalf("sat model %v falsifies assumption %d: %v", s.Model(), i, c)
					}
				}
			case Unsat:
				for xv := uint64(0); xv < 1<<w; xv++ {
					for yv := uint64(0); yv < 1<<yw; yv++ {
						env := expr.Env{"x": xv, "y": yv}
						all := true
						for _, c := range conds {
							all = all && expr.EvalBool(c, env)
						}
						if all {
							t.Fatalf("unsat, but x=%d y=%d satisfies %v", xv, yv, conds)
						}
					}
				}
			default:
				t.Fatalf("Check = %v", res)
			}

			k := r.next() % (known + 1) // any prefix of a satisfied prefix holds
			ru, err := u.CheckUnder(m, k, conds...)
			if err != nil {
				t.Fatalf("CheckUnder: %v", err)
			}
			if full, err := New(b).Check(conds...); err != nil || ru != full {
				t.Fatalf("CheckUnder(known=%d) = %v, full-decision Check = %v, %v", k, ru, full, err)
			}
			if ru == Sat {
				for i, c := range conds {
					if !expr.EvalBool(c, u.Model()) {
						t.Fatalf("CheckUnder model %v (model hits %d) falsifies assumption %d: %v",
							u.Model(), u.Stats.ModelHits, i, c)
					}
				}
				m, known = u.Model(), len(conds)
			}
		}
	})
}
