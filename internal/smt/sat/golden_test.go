package sat

import (
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
)

// The search-identity golden test: clause storage is an implementation
// detail, so a change to it must leave every search step the same. The
// values below were recorded from the pointer-per-clause solver that
// preceded the clause arena; each instance must reproduce its full
// Stats and a hash of every answer and model exactly.

// goldenRun is the fingerprint of one instance: the solver's cumulative
// Stats and an FNV-64 hash over each Solve's result and, for Sat, the
// value of every variable.
type goldenRun struct {
	Stats Stats
	Hash  uint64
}

// goldenHash folds each Solve's result and model into one FNV-64.
type goldenHash struct{ h hash.Hash64 }

func newGoldenHash() *goldenHash { return &goldenHash{fnv.New64a()} }

func (g *goldenHash) solve(s *Solver, assumptions ...Lit) {
	r, _ := s.Solve(assumptions...)
	g.h.Write([]byte{byte(r)})
	if r == Sat {
		for v := 0; v < s.NumVars(); v++ {
			if s.Value(v) {
				g.h.Write([]byte{1})
			} else {
				g.h.Write([]byte{0})
			}
		}
	}
}

func random3CNF(r *rand.Rand, nVars, nClauses int) [][]Lit {
	cnf := make([][]Lit, nClauses)
	for c := range cnf {
		cl := make([]Lit, 3)
		for k := range cl {
			cl[k] = MkLit(r.Intn(nVars), r.Intn(2) == 1)
		}
		cnf[c] = cl
	}
	return cnf
}

func loadCNF(nVars int, cnf [][]Lit) *Solver {
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, cl := range cnf {
		s.AddClause(cl...)
	}
	return s
}

// goldenInstances builds and solves each golden instance.
var goldenInstances = map[string]func() goldenRun{
	// The seeded random 3-SAT of BenchmarkRandom3SAT, at the
	// phase-transition ratio 4.26.
	"random3sat": func() goldenRun {
		s := loadCNF(120, random3CNF(rand.New(rand.NewSource(3)), 120, 511))
		g := newGoldenHash()
		g.solve(s)
		return goldenRun{s.Stats, g.h.Sum64()}
	},
	"pigeonhole8": func() goldenRun {
		s := New()
		pigeonhole(s, 9, 8)
		g := newGoldenHash()
		g.solve(s)
		return goldenRun{s.Stats, g.h.Sum64()}
	},
	// One under-constrained database queried under many assumption
	// sets, with a permanent clause added between queries, so problem
	// clauses land in storage after learned ones.
	"incremental": func() goldenRun {
		r := rand.New(rand.NewSource(11))
		const n = 90
		s := loadCNF(n, random3CNF(r, n, 3*n))
		g := newGoldenHash()
		for q := 0; q < 120; q++ {
			var as []Lit
			for k := 0; k < 4+q%5; k++ {
				as = append(as, MkLit(r.Intn(n), r.Intn(2) == 1))
			}
			g.solve(s, as...)
			if q%3 == 0 {
				s.AddClause(random3CNF(r, n, 1)[0]...)
			}
		}
		return goldenRun{s.Stats, g.h.Sum64()}
	},
	// Long enough for restarts and several learned-clause reductions,
	// then solved again under assumptions on the reduced database.
	"reducedb": func() goldenRun {
		r := rand.New(rand.NewSource(5))
		const n = 200
		s := loadCNF(n, random3CNF(r, n, 852))
		g := newGoldenHash()
		g.solve(s)
		for q := 0; q < 8; q++ {
			g.solve(s, MkLit(r.Intn(n), r.Intn(2) == 1), MkLit(r.Intn(n), r.Intn(2) == 1))
		}
		return goldenRun{s.Stats, g.h.Sum64()}
	},
}

// goldenWant holds the recorded fingerprints. Stats fields in order:
// Decisions, Propagations, Conflicts, Restarts, Learned, Deleted,
// Solves, Deadlines.
var goldenWant = map[string]goldenRun{
	"random3sat":  {Stats{493, 11496, 395, 2, 393, 0, 1, 0}, 0x9f8b43ce1b449b83},
	"pigeonhole8": {Stats{53414, 563792, 44705, 124, 44697, 39450, 1, 0}, 0xaf63bf4c8601bb45},
	"incremental": {Stats{2704, 15684, 309, 0, 309, 0, 120, 0}, 0x4623acc43feb9c99},
	"reducedb":    {Stats{26359, 836849, 21729, 97, 21728, 20120, 9, 0}, 0xf1969b68906e298},
}

func TestSearchIdentityGolden(t *testing.T) {
	for name, run := range goldenInstances {
		if got, want := run(), goldenWant[name]; got != want {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
}
