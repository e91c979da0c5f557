package smt

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/faultinject"
)

func TestCacheHitOnRepeatQuery(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	s.Cache = NewQueryCache()
	x := b.Var(8, "x")
	q := b.Eq(x, b.Const(8, 42))
	r1, err := s.Check(q)
	if err != nil || r1 != Sat {
		t.Fatalf("first check: %v, %v", r1, err)
	}
	r2, err := s.Check(q)
	if err != nil || r2 != Sat {
		t.Fatalf("second check: %v, %v", r2, err)
	}
	if s.Stats.CacheHits != 1 || s.Stats.CacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", s.Stats.CacheHits, s.Stats.CacheMisses)
	}
	if got := s.Value(x); got != 42 {
		t.Errorf("cached model: x = %d, want 42", got)
	}
}

func TestCacheSharedAcrossSolvers(t *testing.T) {
	cache := NewQueryCache()
	mkQuery := func(b *expr.Builder) *expr.Expr {
		x := b.Var(8, "x")
		return b.BoolAnd(b.ULt(x, b.Const(8, 10)), b.UGt(x, b.Const(8, 20)))
	}

	b1 := expr.NewBuilder()
	s1 := New(b1)
	s1.Cache = cache
	if r, err := s1.Check(mkQuery(b1)); err != nil || r != Unsat {
		t.Fatalf("solver 1: %v, %v", r, err)
	}

	// A second solver over a different builder poses the structurally
	// identical query; the shared cache must answer it.
	b2 := expr.NewBuilder()
	b2.Var(16, "noise") // desynchronize intern order
	s2 := New(b2)
	s2.Cache = cache
	if r, err := s2.Check(mkQuery(b2)); err != nil || r != Unsat {
		t.Fatalf("solver 2: %v, %v", r, err)
	}
	if s2.Stats.CacheHits != 1 {
		t.Errorf("solver 2 hits = %d, want 1", s2.Stats.CacheHits)
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Errorf("cache hits=%d misses=%d, want 1/1", cache.Hits(), cache.Misses())
	}
}

func TestCacheKeyOrderInsensitive(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	s.Cache = NewQueryCache()
	x := b.Var(8, "x")
	a1 := b.ULt(x, b.Const(8, 100))
	a2 := b.UGt(x, b.Const(8, 50))
	if r, err := s.Check(a1, a2); err != nil || r != Sat {
		t.Fatalf("first order: %v, %v", r, err)
	}
	if r, err := s.Check(a2, a1); err != nil || r != Sat {
		t.Fatalf("permuted order: %v, %v", r, err)
	}
	if s.Stats.CacheHits != 1 {
		t.Errorf("hits = %d, want 1 (permuted conjuncts should share an entry)", s.Stats.CacheHits)
	}
	v := s.Value(x)
	if v <= 50 || v >= 100 {
		t.Errorf("cached model out of range: x = %d", v)
	}
}

func TestCacheDistinguishesQueries(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	s.Cache = NewQueryCache()
	x := b.Var(8, "x")
	if r, _ := s.Check(b.Eq(x, b.Const(8, 1))); r != Sat {
		t.Fatal("q1 not sat")
	}
	if r, _ := s.Check(b.Eq(x, b.Const(8, 2))); r != Sat {
		t.Fatal("q2 not sat")
	}
	if s.Stats.CacheHits != 0 {
		t.Errorf("hits = %d, want 0 for distinct queries", s.Stats.CacheHits)
	}
	if s.Cache.Size() != 2 {
		t.Errorf("size = %d, want 2", s.Cache.Size())
	}
}

func TestCacheConcurrentUse(t *testing.T) {
	cache := NewQueryCache()
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- true }()
			b := expr.NewBuilder()
			s := New(b)
			s.Cache = cache
			x := b.Var(16, "x")
			for i := 0; i < 40; i++ {
				// Everyone poses the same 20 queries; results must agree.
				want := Sat
				q := b.Eq(b.And(x, b.Const(16, 0xff)), b.Const(16, uint64(i%20)))
				if r, err := s.Check(q); err != nil || r != want {
					t.Errorf("worker %d query %d: %v, %v", w, i, r, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if cache.Size() != 20 {
		t.Errorf("size = %d, want 20", cache.Size())
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Queries: 1, SatResults: 2, UnsatCount: 3, AuxVars: 4, Clauses: 5, CacheHits: 6, CacheMisses: 7, ModelHits: 8}
	b := Stats{Queries: 10, SatResults: 20, UnsatCount: 30, AuxVars: 40, Clauses: 50, CacheHits: 60, CacheMisses: 70, ModelHits: 80}
	a.Add(b)
	if a.Queries != 11 || a.SatResults != 22 || a.UnsatCount != 33 ||
		a.AuxVars != 44 || a.Clauses != 55 || a.CacheHits != 66 || a.CacheMisses != 77 || a.ModelHits != 88 {
		t.Errorf("Add merged wrong: %+v", a)
	}
}

// TestCheckUnderAnswersFromModel: a known model that satisfies the new
// conjuncts answers Sat without a lookup, blast or search, counted as a
// cache hit and a model hit; one that does not, or a solver without a
// cache, decides the query as Check does.
func TestCheckUnderAnswersFromModel(t *testing.T) {
	b := expr.NewBuilder()
	x, y := b.Var(8, "x"), b.Var(8, "y")
	pc := b.ULt(x, b.Const(8, 10))
	m := expr.Env{"x": 3}
	guard := b.Eq(y, b.Const(8, 0))

	s := New(b)
	s.Cache = NewQueryCache()
	r, err := s.CheckUnder(m, 1, pc, guard)
	if err != nil || r != Sat {
		t.Fatalf("CheckUnder = %v, %v; want sat", r, err)
	}
	if s.Stats.ModelHits != 1 || s.Stats.CacheHits != 1 || s.Stats.CacheMisses != 0 || s.Stats.Queries != 1 {
		t.Errorf("stats %+v, want one query answered as a model hit", s.Stats)
	}
	if s.Stats.Clauses != 0 || s.Cache.Size() != 0 {
		t.Errorf("model hit blasted %d clauses and stored %d cache entries, want none", s.Stats.Clauses, s.Cache.Size())
	}
	if s.Value(x) != 3 || s.Value(y) != 0 {
		t.Errorf("model hit answered x=%d y=%d, want the known model", s.Value(x), s.Value(y))
	}

	// The model falsifies the new conjunct: the solver decides it.
	r, err = s.CheckUnder(m, 1, pc, b.BoolNot(guard))
	if err != nil || r != Sat {
		t.Fatalf("CheckUnder(¬guard) = %v, %v; want sat", r, err)
	}
	if s.Stats.ModelHits != 1 || s.Stats.CacheMisses != 1 {
		t.Errorf("stats %+v, want the second query solved", s.Stats)
	}
	if s.Value(y) == 0 || s.Value(x) >= 10 {
		t.Errorf("solved model x=%d y=%d falsifies the query", s.Value(x), s.Value(y))
	}

	// Without a cache the model is not consulted.
	plain := New(b)
	if r, err := plain.CheckUnder(m, 1, pc, guard); err != nil || r != Sat || plain.Stats.ModelHits != 0 || plain.Stats.CacheHits != 0 {
		t.Errorf("uncached CheckUnder = %v, %v with %+v; want a solved sat", r, err, plain.Stats)
	}

	// Fault injection fires before the model is tried.
	inj := New(b)
	inj.Cache = NewQueryCache()
	inj.Inject = faultinject.New(1, 1).Enable(faultinject.SiteSolver, faultinject.KindBudget)
	if r, err := inj.CheckUnder(m, 1, pc, guard); err != ErrBudget || r != Unknown || inj.Stats.ModelHits != 0 {
		t.Errorf("injected CheckUnder = %v, %v with %d model hits; want the budget fault", r, err, inj.Stats.ModelHits)
	}
}
