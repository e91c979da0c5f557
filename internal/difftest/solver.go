package difftest

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/expr"
	"repro/internal/smt"
)

// solverConflicts bounds each metamorphic query; over budget the check
// is skipped rather than failed.
const solverConflicts = 20000

// termGen draws random QF_BV terms and predicates over a fixed variable
// pool, concrete-evaluable by internal/bv through expr.Eval.
type termGen struct {
	b      *expr.Builder
	r      *rand.Rand
	widths []uint
}

func newTermGen(b *expr.Builder, r *rand.Rand) *termGen {
	return &termGen{b: b, r: r, widths: []uint{8, 13, 16, 32, 64}}
}

func (t *termGen) width() uint { return t.widths[t.r.Intn(len(t.widths))] }

func (t *termGen) varNames(w uint) []string {
	return []string{fmt.Sprintf("a%d", w), fmt.Sprintf("b%d", w), fmt.Sprintf("c%d", w)}
}

// term draws a random bit-vector term of the given width.
func (t *termGen) term(depth int, w uint) *expr.Expr {
	b, r := t.b, t.r
	if depth <= 0 || r.Intn(4) == 0 {
		if r.Intn(2) == 0 {
			names := t.varNames(w)
			return b.Var(w, names[r.Intn(len(names))])
		}
		return b.Const(w, r.Uint64())
	}
	switch r.Intn(16) {
	case 0:
		return b.Add(t.term(depth-1, w), t.term(depth-1, w))
	case 1:
		return b.Sub(t.term(depth-1, w), t.term(depth-1, w))
	case 2:
		return b.Mul(t.term(depth-1, w), t.term(depth-1, w))
	case 3:
		return b.And(t.term(depth-1, w), t.term(depth-1, w))
	case 4:
		return b.Or(t.term(depth-1, w), t.term(depth-1, w))
	case 5:
		return b.Xor(t.term(depth-1, w), t.term(depth-1, w))
	case 6:
		return b.Shl(t.term(depth-1, w), t.term(depth-1, w))
	case 7:
		return b.LShr(t.term(depth-1, w), t.term(depth-1, w))
	case 8:
		return b.AShr(t.term(depth-1, w), t.term(depth-1, w))
	case 9:
		return b.Not(t.term(depth-1, w))
	case 10:
		return b.Neg(t.term(depth-1, w))
	case 11:
		// SMT-LIB division semantics (x/0 = all-ones) are part of what
		// the concrete bv layer must agree on.
		if r.Intn(2) == 0 {
			return b.UDiv(t.term(depth-1, w), t.term(depth-1, w))
		}
		return b.SDiv(t.term(depth-1, w), t.term(depth-1, w))
	case 12:
		if r.Intn(2) == 0 {
			return b.URem(t.term(depth-1, w), t.term(depth-1, w))
		}
		return b.SRem(t.term(depth-1, w), t.term(depth-1, w))
	case 13:
		inner := t.term(depth-1, w)
		hi := uint(r.Intn(int(w)))
		lo := uint(r.Intn(int(hi + 1)))
		ext := b.Extract(inner, hi, lo)
		if ext.Width() < w {
			if r.Intn(2) == 0 {
				return b.ZExt(ext, w)
			}
			return b.SExt(ext, w)
		}
		return ext
	case 14:
		if w >= 2 {
			lo := 1 + uint(r.Intn(int(w-1)))
			return b.Concat(t.term(depth-1, w-lo), t.term(depth-1, lo))
		}
		return t.term(depth-1, w)
	default:
		return b.ITE(t.pred(depth-1), t.term(depth-1, w), t.term(depth-1, w))
	}
}

// pred draws a random boolean predicate.
func (t *termGen) pred(depth int) *expr.Expr {
	b, r := t.b, t.r
	if depth <= 0 || r.Intn(3) == 0 {
		w := t.width()
		x, y := t.term(depth-1, w), t.term(depth-1, w)
		switch r.Intn(6) {
		case 0:
			return b.Eq(x, y)
		case 1:
			return b.Ne(x, y)
		case 2:
			return b.ULt(x, y)
		case 3:
			return b.ULe(x, y)
		case 4:
			return b.SLt(x, y)
		default:
			return b.SLe(x, y)
		}
	}
	switch r.Intn(4) {
	case 0:
		return b.BoolAnd(t.pred(depth-1), t.pred(depth-1))
	case 1:
		return b.BoolOr(t.pred(depth-1), t.pred(depth-1))
	case 2:
		return b.BoolNot(t.pred(depth - 1))
	default:
		return b.BoolXor(t.pred(depth-1), t.pred(depth-1))
	}
}

// randomEnv assigns random concrete values to every variable of the
// given roots.
func randomEnv(r *rand.Rand, roots ...*expr.Expr) expr.Env {
	env := expr.Env{}
	for _, v := range expr.VarsOf(roots...) {
		env[v.VarName()] = r.Uint64()
	}
	return env
}

// solverRound is one metamorphic check of the solver against concrete
// bit-vector evaluation:
//
//   - Sat answers must come with a model that satisfies every predicate
//     under concrete evaluation, and pinning any term to its model value
//     must stay Sat.
//   - Unsat answers must resist random concrete assignments.
//   - A query-cached solver, an uncached solver, and per-goroutine
//     solvers over the one shared builder with a shared cache must all
//     agree on the verdict; each goroutine also interns and pins a term
//     of its own, concurrently with the others.
func (r *run) solverRound(subSeed int64) {
	r.res.Checks[LayerSolver]++
	// The solver layer builds its own solvers and is deliberately not
	// injector-wired; the checkpoint keeps its divergence decisions
	// independent of faults fired by earlier units in the round.
	r.checkpoint()
	rg := rand.New(rand.NewSource(subSeed))
	b := expr.NewBuilder()
	tg := newTermGen(b, rg)

	conds := make([]*expr.Expr, 1+rg.Intn(2))
	for i := range conds {
		conds[i] = tg.pred(3)
	}
	fail := func(format string, args ...interface{}) {
		r.diverged(Divergence{
			Layer: LayerSolver, Seed: subSeed,
			Detail:  fmt.Sprintf(format, args...),
			Program: condsText(conds),
		})
	}

	cached := smt.New(b)
	cached.Obs = r.sobs
	cached.Cache = smt.NewQueryCache()
	cached.MaxConflicts = solverConflicts
	res, err := cached.Check(conds...)
	if err != nil || res == smt.Unknown {
		r.res.Skipped[LayerSolver]++
		return
	}

	switch res {
	case smt.Sat:
		model := cached.Model()
		for i, c := range conds {
			if !expr.EvalBool(c, model) {
				fail("Sat model does not satisfy condition %d under concrete bv evaluation (model %v)", i, model)
				return
			}
		}
		// Metamorphic pin: any term evaluated under the model can be
		// asserted as an equality without flipping the verdict.
		t := tg.term(3, tg.width())
		pin := b.Eq(t, b.Const(t.Width(), expr.Eval(t, model)))
		res2, err2 := cached.Check(append(append([]*expr.Expr{}, conds...), pin)...)
		if err2 == nil && res2 == smt.Unsat {
			fail("pinning a term to its model value turned Sat into Unsat (term %v)", t)
			return
		}
	case smt.Unsat:
		for i := 0; i < 8; i++ {
			env := randomEnv(rg, conds...)
			if expr.EvalAll(conds, env) {
				fail("Unsat verdict refuted by concrete assignment %v", env)
				return
			}
		}
	}

	// Cached and uncached verdicts agree.
	uncached := smt.New(b)
	uncached.Obs = r.sobs
	uncached.MaxConflicts = solverConflicts
	if res2, err2 := uncached.Check(conds...); err2 == nil && res2 != smt.Unknown && res2 != res {
		fail("cached solver says %v, uncached says %v", res, res2)
		return
	}

	// Per-goroutine solvers over the one shared builder and a shared
	// query cache agree with the reference verdict, as the workers of a
	// parallel run do. On Sat each goroutine draws a term of its own,
	// interning it concurrently with the others, and pins it to its
	// model value, which must stay Sat.
	b.Share()
	for _, w := range r.opts.Workers {
		if w < 2 {
			continue
		}
		shared := smt.NewQueryCache()
		results := make([]smt.Result, w)
		errs := make([]error, w)
		models := make([]expr.Env, w)
		pinned := make([]smt.Result, w)
		pins := make([]*expr.Expr, w)
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := smt.New(b)
				s.Obs = r.sobs
				s.Cache = shared
				s.MaxConflicts = solverConflicts
				results[i], errs[i] = s.Check(conds...)
				if results[i] != smt.Sat {
					return
				}
				models[i] = s.Model()
				gen := newTermGen(b, rand.New(rand.NewSource(subSeed+int64(i)+1)))
				t := gen.term(3, gen.width())
				pins[i] = b.Eq(t, b.Const(t.Width(), expr.Eval(t, models[i])))
				pinned[i], _ = s.Check(append(append([]*expr.Expr{}, conds...), pins[i])...)
			}(i)
		}
		wg.Wait()
		for i := 0; i < w; i++ {
			if errs[i] != nil || results[i] == smt.Unknown {
				r.res.Skipped[LayerSolver]++
				continue
			}
			if results[i] != res {
				fail("worker %d/%d (shared builder, shared cache) says %v, reference says %v", i, w, results[i], res)
				return
			}
			if results[i] == smt.Sat {
				for k, c := range conds {
					if !expr.EvalBool(c, models[i]) {
						fail("worker %d/%d Sat model does not satisfy condition %d", i, w, k)
						return
					}
				}
				if pinned[i] == smt.Unsat {
					fail("worker %d/%d: pinning a term to its model value turned Sat into Unsat (pin %v)", i, w, pins[i])
					return
				}
			}
		}
	}
}

func condsText(conds []*expr.Expr) string {
	var sb []byte
	for i, c := range conds {
		sb = append(sb, fmt.Sprintf("cond %d: %v\n", i, c)...)
	}
	return string(sb)
}
