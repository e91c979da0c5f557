// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat lineage: two-watched-literal propagation, VSIDS
// branching with activity decay, phase saving, first-UIP conflict analysis
// with clause minimization, Luby restarts, and activity-based deletion of
// learned clauses.
//
// The solver supports solving under assumptions, which the SMT layer uses
// for incremental path-condition queries: the bit-blasted definitions are
// added once as permanent clauses and each query only assumes the literals
// of the current path condition.
//
// Clauses live in one pointer-free arena addressed by uint32 references,
// stored so that the search matches a pointer-per-clause solver exactly.
package sat

import (
	"errors"
	"slices"
	"sort"
	"time"
)

// Lit is a literal: variable v (numbered from 0) appears positively as
// 2v and negated as 2v+1.
type Lit int32

// MkLit builds a literal from a variable index and a sign (true = negated).
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) not() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

// A clause reference (cref) c addresses a clause in the arena: arena[c]
// holds its size and arena[c+1:] its literals.
const crefUndef = ^uint32(0) // no clause: a decision, assumption or unit

// learnedClause is a learned clause's cref and its activity.
type learnedClause struct {
	c   uint32
	act float64
}

// Result is the outcome of a Solve call.
type Result int

// Solve outcomes.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// ErrBudget is returned when the solver exceeds its conflict budget.
var ErrBudget = errors.New("sat: conflict budget exhausted")

// ErrDeadline is returned when a Solve call runs past the wall-clock
// Deadline set on the solver.
var ErrDeadline = errors.New("sat: solve deadline exceeded")

// Stats collects cumulative solver counters.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learned      int64
	Deleted      int64
	Solves       int64
	Deadlines    int64
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena    []Lit
	nClauses int // problem clauses
	learnts  []learnedClause
	dead     []uint32 // scratch for reduceDB: crefs of deleted clauses
	watches  [][]uint32

	assign  []lbool
	level   []int32
	reason  []uint32
	phase   []bool // saved phases
	trail   []Lit
	trailLo []int32 // decision-level start indices in trail
	qhead   int

	activity []float64
	varInc   float64
	order    *varHeap

	seen    []bool
	sstack  []int // scratch for clause minimization
	clarify []Lit
	buf     []Lit // scratch: AddClause's sorted copy, analyze's learned clause

	claInc float64

	ok bool // false once the clause DB is unsat at level 0

	// MaxConflicts bounds a single Solve call; 0 means unlimited.
	MaxConflicts int64

	// Deadline, when nonzero, bounds a single Solve call by wall
	// clock. Expiry is checked on entry and every few hundred
	// propagation rounds (the time.Now cost is amortized), returning
	// ErrDeadline. A deadline at or before the entry check expires
	// immediately.
	Deadline time.Time

	Stats Stats
}

// deadlineExpired reports whether the wall-clock deadline is set and
// has passed. A deadline equal to now counts as expired, so callers can
// force deterministic expiry with an already-elapsed deadline.
func (s *Solver) deadlineExpired() bool {
	return !s.Deadline.IsZero() && !time.Now().Before(s.Deadline)
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order = &varHeap{s: s}
	return s
}

// NumVars returns the number of variables allocated so far.
func (s *Solver) NumVars() int { return len(s.assign) }

// NumClauses returns the number of problem (non-learned) clauses.
func (s *Solver) NumClauses() int { return s.nClauses }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int { return s.NewVars(1) }

// NewVars allocates n consecutive variables, as n NewVar calls would.
func (s *Solver) NewVars(n int) int {
	v := len(s.assign)
	s.assign = append(reserve(s.assign, n), make([]lbool, n)...)
	s.level = append(reserve(s.level, n), make([]int32, n)...)
	s.reason = append(reserve(s.reason, n), make([]uint32, n)...)
	s.phase = append(reserve(s.phase, n), make([]bool, n)...)
	s.activity = append(reserve(s.activity, n), make([]float64, n)...)
	s.seen = append(reserve(s.seen, n), make([]bool, n)...)
	s.watches = append(reserve(s.watches, 2*n), make([][]uint32, 2*n)...)
	s.order.indices = append(reserve(s.order.indices, n), make([]int, n)...)
	for i := v; i < v+n; i++ {
		s.reason[i] = crefUndef
		s.order.push(i)
	}
	return v
}

// reserve makes room for n more elements of s, doubling its capacity
// when it must reallocate (append grows large slices by only 1.25x).
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) < n {
		t := make([]T, len(s), 2*len(s)+n)
		copy(t, s)
		return t
	}
	return s
}

// lits returns the literals of clause c, aliasing the arena.
func (s *Solver) lits(c uint32) []Lit {
	return s.arena[c+1 : c+1+uint32(s.arena[c])]
}

// alloc appends a clause to the arena, watches it and returns its cref.
func (s *Solver) alloc(lits []Lit) uint32 {
	c := uint32(len(s.arena))
	s.arena = append(append(reserve(s.arena, 1+len(lits)), Lit(len(lits))), lits...)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], c)
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], c)
	return c
}

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if l.Neg() {
		return v.not()
	}
	return v
}

// AddClause adds a permanent clause. It returns false if the clause makes
// the problem trivially unsatisfiable. Must be called at decision level 0
// (i.e. outside Solve).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// Sort in scratch (slices.Sort insertion-sorts short slices, without
	// allocating) and strip duplicates / tautologies / false literals.
	ls := append(s.buf[:0], lits...)
	slices.Sort(ls)
	s.buf = ls
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology: x | ~x
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			prev = l
			continue // drop false literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], crefUndef) {
			s.ok = false
			return false
		}
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	s.nClauses++
	s.alloc(out)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLo) }

func (s *Solver) enqueue(l Lit, from uint32) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns a conflicting clause or
// crefUndef.
func (s *Solver) propagate() uint32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		confl := crefUndef
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			if confl != crefUndef {
				kept = append(kept, c)
				continue
			}
			lits := s.lits(c)
			// Normalize so that the falsified watch is lits[1].
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.value(lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Look for a replacement watch.
			moved := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(lits[0], c) {
				confl = c
				s.qhead = len(s.trail)
			}
		}
		s.watches[p] = kept
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first, in solver-owned scratch) and
// the backtrack level.
func (s *Solver) analyze(confl uint32) ([]Lit, int) {
	learnt := append(s.buf[:0], 0) // placeholder for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		for _, q := range s.lits(confl) {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reason[v]
	}

	// Clause minimization: drop literals whose reason clauses are fully
	// covered by the rest of the learned clause.
	s.buf = learnt
	orig := append(s.clarify[:0], learnt...)
	s.clarify = orig
	for _, l := range learnt {
		s.seen[l.Var()] = true
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		if s.reason[learnt[i].Var()] == crefUndef || !s.redundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	minimized := learnt[:j]
	// Clear the marks of every original literal (the compaction above
	// overwrote dropped entries in learnt, so iterate the saved copy).
	for _, l := range orig {
		s.seen[l.Var()] = false
	}

	// Compute backtrack level: the second-highest level in the clause.
	btLevel := 0
	if len(minimized) > 1 {
		maxI := 1
		for i := 2; i < len(minimized); i++ {
			if s.level[minimized[i].Var()] > s.level[minimized[maxI].Var()] {
				maxI = i
			}
		}
		minimized[1], minimized[maxI] = minimized[maxI], minimized[1]
		btLevel = int(s.level[minimized[1].Var()])
	}
	return minimized, btLevel
}

// redundant reports whether literal l in a learned clause is implied by
// the other marked literals (local minimization, one reason level deep
// with a bounded recursive extension).
func (s *Solver) redundant(l Lit) bool {
	s.sstack = append(s.sstack[:0], l.Var())
	ok := true
	for top := 0; ok && top < len(s.sstack); top++ {
		v := s.sstack[top]
		c := s.reason[v]
		if ok = c != crefUndef; !ok {
			break
		}
		for _, q := range s.lits(c) {
			qv := q.Var()
			if qv == v || s.seen[qv] || s.level[qv] == 0 {
				continue
			}
			if ok = s.reason[qv] != crefUndef; !ok {
				break
			}
			s.seen[qv] = true
			s.sstack = append(s.sstack, qv)
		}
		ok = ok && len(s.sstack) <= 64
	}
	// Clear the temporary marks (all but l's) whatever the outcome: the
	// caller only unmarks the learned clause's own literals, and stale
	// seen bits would corrupt the next conflict analysis.
	for _, u := range s.sstack[1:] {
		s.seen[u] = false
	}
	return ok
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lo := s.trailLo[level]
	for i := len(s.trail) - 1; i >= int(lo); i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = crefUndef
		s.order.push(v)
	}
	s.trail = s.trail[:lo]
	s.trailLo = s.trailLo[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(lc *learnedClause) {
	lc.act += s.claInc
	if lc.act > 1e20 {
		for i := range s.learnts {
			s.learnts[i].act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

const (
	varDecay = 1.0 / 0.95
	claDecay = 1.0 / 0.999
)

// reduceDB removes roughly half of the learned clauses, keeping the most
// active and all binary and locked (reason) clauses. A clause is locked
// exactly when it is its first literal's reason: propagation enqueues
// only lits[0] and never moves a true lits[0].
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool { return s.learnts[i].act > s.learnts[j].act })
	keep := s.learnts[:0]
	lim := len(s.learnts) / 2
	s.dead = s.dead[:0]
	for i, lc := range s.learnts {
		lits := s.lits(lc.c)
		if i < lim || len(lits) <= 2 || s.reason[lits[0].Var()] == lc.c {
			keep = append(keep, lc)
		} else {
			s.detach(lc.c)
			s.dead = append(s.dead, lc.c)
			s.Stats.Deleted++
		}
	}
	s.learnts = keep
	s.compact()
}

func (s *Solver) detach(c uint32) {
	lits := s.lits(c)
	for _, w := range [2]Lit{lits[0].Not(), lits[1].Not()} {
		ws := s.watches[w]
		for i, wc := range ws {
			if wc == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// compact slides the live clauses down over the deleted ones in s.dead,
// in order, and forwards every held cref. A deleted header becomes the
// words freed through its clause: how far the live run after it moves.
func (s *Solver) compact() {
	slices.Sort(s.dead)
	dead, freed := s.dead, Lit(0)
	for _, c := range dead {
		freed += 1 + s.arena[c]
		s.arena[c] = freed
	}
	fwd := func(c uint32) uint32 {
		if k, _ := slices.BinarySearch(dead, c); k > 0 {
			return c - uint32(s.arena[dead[k-1]])
		}
		return c
	}
	for _, ws := range s.watches {
		for i, c := range ws {
			ws[i] = fwd(c)
		}
	}
	for v, c := range s.reason {
		if c != crefUndef {
			s.reason[v] = fwd(c)
		}
	}
	for i := range s.learnts {
		s.learnts[i].c = fwd(s.learnts[i].c)
	}
	s.dead = append(dead, uint32(len(s.arena))) // the end of the last run
	prev := uint32(0)
	for k, c := range dead {
		gone := uint32(s.arena[c])
		from := c + gone - prev
		copy(s.arena[from-gone:], s.arena[from:s.dead[k+1]])
		prev = gone
	}
	s.arena = s.arena[:uint32(len(s.arena))-prev]
}

// luby computes the Luby restart sequence term for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i >= 1<<(k-1) && i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Solve decides satisfiability of the clause database under the given
// assumption literals. On Sat, Value reports the model. On Unsat with a
// non-empty assumption set, the database itself may still be satisfiable.
func (s *Solver) Solve(assumptions ...Lit) (Result, error) {
	if !s.ok {
		return Unsat, nil
	}
	s.Stats.Solves++
	defer s.backtrackTo(0)

	if s.deadlineExpired() {
		s.Stats.Deadlines++
		return Unknown, ErrDeadline
	}

	ticks := uint(0)
	restartIdx := int64(1)
	conflictsAtStart := s.Stats.Conflicts
	conflictBudget := int64(luby(restartIdx)) * 128
	conflictsThisRestart := int64(0)
	maxLearnts := int64(s.nClauses/3 + 1000)

	for {
		if ticks++; ticks&255 == 0 && s.deadlineExpired() {
			s.Stats.Deadlines++
			return Unknown, ErrDeadline
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.Stats.Conflicts++
			conflictsThisRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat, nil
			}
			learnt, btLevel := s.analyze(confl)
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], crefUndef) {
					s.ok = false
					return Unsat, nil
				}
			} else {
				c := s.alloc(learnt)
				s.learnts = append(s.learnts, learnedClause{c: c})
				s.bumpClause(&s.learnts[len(s.learnts)-1])
				s.Stats.Learned++
				if !s.enqueue(learnt[0], c) {
					s.ok = false
					return Unsat, nil
				}
			}
			s.varInc *= varDecay
			s.claInc *= claDecay
			if s.MaxConflicts > 0 && s.Stats.Conflicts-conflictsAtStart > s.MaxConflicts {
				return Unknown, ErrBudget
			}
			continue
		}

		if conflictsThisRestart >= conflictBudget {
			// Restart: keep assumptions by backtracking to level 0 and
			// letting the assumption loop below re-assume.
			s.Stats.Restarts++
			restartIdx++
			conflictBudget = luby(restartIdx) * 128
			conflictsThisRestart = 0
			s.backtrackTo(0)
			continue
		}
		if int64(len(s.learnts)) > maxLearnts+int64(len(s.trail)) {
			s.reduceDB()
			maxLearnts += maxLearnts / 10
		}

		// Re-establish assumptions as pseudo-decisions.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied: still open a level to keep the
				// level<->assumption correspondence simple.
				s.trailLo = append(s.trailLo, int32(len(s.trail)))
				continue
			case lFalse:
				return Unsat, nil
			}
			s.trailLo = append(s.trailLo, int32(len(s.trail)))
			s.enqueue(a, crefUndef)
			continue
		}

		// Pick a branching variable.
		v := -1
		for s.order.size() > 0 {
			cand := s.order.pop()
			if s.assign[cand] == lUndef {
				v = cand
				break
			}
		}
		if v < 0 {
			// Snapshot the model into the phase store: backtracking only
			// saves phases for variables above level 0, so copy every
			// assignment explicitly before the deferred backtrack runs.
			for i := range s.assign {
				s.phase[i] = s.assign[i] == lTrue
			}
			return Sat, nil
		}
		s.Stats.Decisions++
		s.trailLo = append(s.trailLo, int32(len(s.trail)))
		s.enqueue(MkLit(v, !s.phase[v]), crefUndef)
	}
}

// Value reports the assignment of variable v in the most recent Sat
// result. It must be called before the next Solve; after backtracking the
// phase store preserves the model, which is what we read here.
func (s *Solver) Value(v int) bool { return s.phase[v] }

// varHeap is a max-heap over variable activities.
type varHeap struct {
	s       *Solver
	heap    []int
	indices []int // var -> heap position+1; 0 = absent
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(i, j int) bool {
	return h.s.activity[h.heap[i]] > h.s.activity[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.indices[h.heap[i]] = i + 1
	h.indices[h.heap[j]] = j + 1
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.heap) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) push(v int) {
	if h.indices[v] != 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 1
	h.heap = h.heap[:last]
	h.indices[v] = 0
	if last > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if v < len(h.indices) && h.indices[v] != 0 {
		h.up(h.indices[v] - 1)
	}
}
