// Package profile attributes exploration cost to guest program
// counters: solver wall time and query counts, fork fan-out,
// degradations by cause, compile- and query-cache misses, states
// killed and merged, and sampled per-PC step time. It answers the
// question the stage histograms of internal/obs cannot — not *how
// much* time the engine spends solving, but *where in the guest
// program* that time is incurred (the paper's Fig. 2 measurement puts
// the solver share at 78% of exploration by depth 9; ROADMAP item 5
// needs the program points responsible).
//
// The collection discipline mirrors internal/obs: a nil *Profiler (and
// the nil *Shard it hands out) makes every recording call a no-op on a
// nil receiver, so an unprofiled run pays only a pointer test per hook.
// Unlike obs, nothing on the hot path is atomic: each engine worker
// records into its own unsynchronized Shard, and shards are folded
// into the owning Profiler under one mutex at merge points (end of a
// serial run, the parallel report merge, the end of a concolic drive).
//
// Three surfaces are derived from the folded data: a gzipped pprof
// protobuf (guest PC as location, mnemonic as function, ADL name as
// mapping — see pprof.go), a ranked hotspot report naming diamond
// fork/rejoin regions as merge candidates (report.go), and JSON.
package profile

import (
	"sync"
	"time"
)

// stepSample is the sampling interval of step wall time: the engine
// times one in stepSample steps (core.StepSampleRate) and StepTime
// scales each reading back up, so profiled step time stays comparable
// to the obs stage histograms.
const stepSample = 8

// Meta identifies what a profile describes. ADL becomes the pprof
// mapping filename; JobID correlates daemon profiles with trace events
// and logs from the same job.
type Meta struct {
	ADL   string `json:"adl"`
	JobID string `json:"job,omitempty"`
}

// Edge is one observed control transfer between guest PCs. The edge
// multiset is what the report's diamond detection walks to find
// fork/rejoin regions.
type Edge struct {
	From uint64
	To   uint64
}

// PCStats aggregates every cost series attributed to one guest PC.
// All counts are exact; StepNS is sampled (1 in stepSample, scaled).
type PCStats struct {
	Mnemonic string `json:"mnemonic,omitempty"`
	Format   string `json:"format,omitempty"`

	Execs         int64 `json:"execs"`              // instructions executed at this PC
	StepNS        int64 `json:"step_ns"`            // sampled symbolic step wall time
	SolverNS      int64 `json:"solver_ns"`          // solver wall time for queries issued while stepping this PC
	SolverQueries int64 `json:"solver_queries"`     // queries issued (hits + misses)
	CacheHits     int64 `json:"cache_hits"`         // query-cache hits
	CacheMisses   int64 `json:"cache_misses"`       // query-cache misses (blast+solve ran)
	Forks         int64 `json:"forks"`              // states forked at this PC
	Infeasible    int64 `json:"infeasible"`         // branch sides pruned as unsat
	Kills         int64 `json:"kills"`              // states killed by budgets/governor at this PC
	Merges        int64 `json:"merges"`             // opportunistic state merges at this PC
	CompileMisses int64 `json:"compile_misses"`     // decodes: compile-cache misses and self-modified windows
	Degraded      int64 `json:"degraded,omitempty"` // degradations attributed to this PC
}

func (s *PCStats) add(o *PCStats) {
	if o.Mnemonic != "" {
		s.Mnemonic, s.Format = o.Mnemonic, o.Format
	}
	s.Execs += o.Execs
	s.StepNS += o.StepNS
	s.SolverNS += o.SolverNS
	s.SolverQueries += o.SolverQueries
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Forks += o.Forks
	s.Infeasible += o.Infeasible
	s.Kills += o.Kills
	s.Merges += o.Merges
	s.CompileMisses += o.CompileMisses
	s.Degraded += o.Degraded
}

// Profiler owns the folded profile of one exploration (or, for the
// daemon's aggregate, many). All methods are safe on a nil receiver
// and safe for concurrent use.
type Profiler struct {
	meta Meta

	mu     sync.Mutex
	pcs    map[uint64]*PCStats
	edges  map[Edge]int64
	causes map[string]int64 // degradations by cause, profile-wide
}

// New returns a profiler for one exploration. A nil Profiler is the
// "off" switch: it hands out nil shards and ignores folds.
func New(meta Meta) *Profiler {
	return &Profiler{
		meta:   meta,
		pcs:    make(map[uint64]*PCStats),
		edges:  make(map[Edge]int64),
		causes: make(map[string]int64),
	}
}

// NewShard returns a worker-local recording shard. On a nil profiler
// it returns nil, and every Shard method no-ops on nil — the zero-cost
// off switch.
func (p *Profiler) NewShard() *Shard {
	if p == nil {
		return nil
	}
	return &Shard{
		pcs:    make(map[uint64]*PCStats),
		edges:  make(map[Edge]int64),
		causes: make(map[string]int64),
		blocks: make(map[any]*blockAgg),
	}
}

// Fold merges a shard into the profiler and resets the shard for
// reuse. Called at merge points only (end of run, parallel report
// merge), never on the step path.
func (p *Profiler) Fold(s *Shard) {
	if p == nil || s == nil {
		return
	}
	s.drain()
	p.mu.Lock()
	for pc, st := range s.pcs {
		dst, ok := p.pcs[pc]
		if !ok {
			dst = &PCStats{}
			p.pcs[pc] = dst
		}
		dst.add(st)
	}
	for e, n := range s.edges {
		p.edges[e] += n
	}
	for c, n := range s.causes {
		p.causes[c] += n
	}
	p.mu.Unlock()
	s.pcs = make(map[uint64]*PCStats)
	s.edges = make(map[Edge]int64)
	s.causes = make(map[string]int64)
	s.blocks = make(map[any]*blockAgg)
}

// Absorb folds another profiler's snapshot into this one (the daemon's
// server-wide aggregate absorbs each finished job's profile).
func (p *Profiler) Absorb(o *Profiler) {
	if p == nil || o == nil {
		return
	}
	snap := o.Snapshot()
	p.mu.Lock()
	for pc, st := range snap.PCs {
		dst, ok := p.pcs[pc]
		if !ok {
			dst = &PCStats{}
			p.pcs[pc] = dst
		}
		dst.add(st)
	}
	for e, n := range snap.Edges {
		p.edges[e] += n
	}
	for c, n := range snap.Causes {
		p.causes[c] += n
	}
	p.mu.Unlock()
}

// Snapshot deep-copies the folded profile for rendering.
type Snapshot struct {
	Meta   Meta
	PCs    map[uint64]*PCStats
	Edges  map[Edge]int64
	Causes map[string]int64
}

func (p *Profiler) Snapshot() *Snapshot {
	if p == nil {
		return &Snapshot{PCs: map[uint64]*PCStats{}, Edges: map[Edge]int64{}, Causes: map[string]int64{}}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{
		Meta:   p.meta,
		PCs:    make(map[uint64]*PCStats, len(p.pcs)),
		Edges:  make(map[Edge]int64, len(p.edges)),
		Causes: make(map[string]int64, len(p.causes)),
	}
	for pc, st := range p.pcs {
		c := *st
		s.PCs[pc] = &c
	}
	for e, n := range p.edges {
		s.Edges[e] = n
	}
	for c, n := range p.causes {
		s.Causes[c] = n
	}
	return s
}

// Shard is one worker's unsynchronized recording surface. All methods
// are nil-receiver-safe; none takes a lock or touches shared state.
// The owning engine folds the shard at merge points.
type Shard struct {
	pcs    map[uint64]*PCStats
	edges  map[Edge]int64
	causes map[string]int64
	blocks map[any]*blockAgg
	curPC  uint64 // PC of the state being stepped; solver queries attribute here
}

// BlockUnit is one unit of a compiled superblock, precomputed by the
// engine at block-build time so that executing the block records one
// map operation (ExecBlock) instead of two per instruction (Exec +
// Edge).
type BlockUnit struct {
	PC       uint64
	Mnemonic string
	Format   string
	Cont     uint64
}

// blockAgg counts executions of one superblock; the per-unit expansion
// happens once at fold time.
type blockAgg struct {
	units   []BlockUnit
	full    int64
	partial map[int]int64 // executed-prefix length -> count, for early-exited runs
}

func (s *Shard) at(pc uint64) *PCStats {
	st, ok := s.pcs[pc]
	if !ok {
		st = &PCStats{}
		s.pcs[pc] = st
	}
	return st
}

// SetPC marks the PC whose step is in flight. Solver queries and
// degradations recorded until the next SetPC attribute to it.
func (s *Shard) SetPC(pc uint64) {
	if s == nil {
		return
	}
	s.curPC = pc
}

// Exec records one executed instruction with its ADL symbolization.
func (s *Shard) Exec(pc uint64, mnemonic, format string) {
	if s == nil {
		return
	}
	st := s.at(pc)
	st.Execs++
	if st.Mnemonic == "" {
		st.Mnemonic, st.Format = mnemonic, format
	}
}

// ExecBlock records one execution of the first k units of a compiled
// superblock: the instruction and fall-through edge of every executed
// unit, deferred until fold time. key must be stable for the block
// across executions (the engine passes the shared block pointer); a
// fresh key per call would grow the aggregate map without bound.
func (s *Shard) ExecBlock(key any, units []BlockUnit, k int) {
	if s == nil || k <= 0 {
		return
	}
	a, ok := s.blocks[key]
	if !ok {
		a = &blockAgg{units: units}
		s.blocks[key] = a
	}
	if k >= len(a.units) {
		a.full++
		return
	}
	if a.partial == nil {
		a.partial = make(map[int]int64)
	}
	a.partial[k]++
}

// drain expands the per-block execution counts into the shard's
// ordinary per-PC and edge series. Called by Fold.
func (s *Shard) drain() {
	for _, a := range s.blocks {
		for i, u := range a.units {
			n := a.full
			for k, c := range a.partial {
				if i < k {
					n += c
				}
			}
			if n == 0 {
				continue
			}
			st := s.at(u.PC)
			st.Execs += n
			if st.Mnemonic == "" {
				st.Mnemonic, st.Format = u.Mnemonic, u.Format
			}
			s.edges[Edge{u.PC, u.Cont}] += n
		}
	}
}

// StepTime records a step duration sampled one in stepSample steps by
// the caller, scaled back up by the sampling interval. Superblock steps
// attribute the whole block to its head PC.
func (s *Shard) StepTime(pc uint64, d time.Duration) {
	if s == nil {
		return
	}
	s.at(pc).StepNS += int64(d) * stepSample
}

// Query implements the solver attribution hook (smt.QueryProf): one
// solver query, cache hit or full blast+solve, charged to the PC being
// stepped.
func (s *Shard) Query(d time.Duration, cacheHit bool) {
	if s == nil {
		return
	}
	st := s.at(s.curPC)
	st.SolverQueries++
	st.SolverNS += int64(d)
	if cacheHit {
		st.CacheHits++
	} else {
		st.CacheMisses++
	}
}

// Fork records n new states forked at pc.
func (s *Shard) Fork(pc uint64, n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.at(pc).Forks += n
}

// Infeasible records a branch side pruned as unsatisfiable at pc.
func (s *Shard) Infeasible(pc uint64) {
	if s == nil {
		return
	}
	s.at(pc).Infeasible++
}

// Kill records a state killed by a budget or the governor at pc.
func (s *Shard) Kill(pc uint64) {
	if s == nil {
		return
	}
	s.at(pc).Kills++
}

// Merge records an opportunistic state merge at pc.
func (s *Shard) Merge(pc uint64) {
	if s == nil {
		return
	}
	s.at(pc).Merges++
}

// CompileMiss records a decode at pc: a compile-cache miss or a
// self-modified fetch window.
func (s *Shard) CompileMiss(pc uint64) {
	if s == nil {
		return
	}
	s.at(pc).CompileMisses++
}

// Degrade records a graceful degradation by cause, attributed to the
// PC being stepped.
func (s *Shard) Degrade(cause string) {
	if s == nil {
		return
	}
	s.causes[cause]++
	s.at(s.curPC).Degraded++
}

// Edge records one control transfer from -> to.
func (s *Shard) Edge(from, to uint64) {
	if s == nil {
		return
	}
	s.edges[Edge{from, to}]++
}
