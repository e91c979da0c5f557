package profile

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShardFoldExactTotals drives N goroutines, each recording into
// its own shard, folds them all, and requires exact totals — the
// worker-local-shard discipline must lose nothing under -race.
func TestShardFoldExactTotals(t *testing.T) {
	const (
		workers = 8
		perPC   = 250
	)
	p := New(Meta{ADL: "tiny32"})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := p.NewShard()
			for i := 0; i < perPC; i++ {
				for pc := uint64(0x1000); pc < 0x1004; pc++ {
					s.Exec(pc, "addi", "itype")
					s.SetPC(pc)
					s.Query(time.Microsecond, i%2 == 0)
					s.Fork(pc, 1)
					s.Infeasible(pc)
					s.Kill(pc)
					s.Merge(pc)
					s.CompileMiss(pc)
					s.Degrade("branch-budget")
					s.Edge(pc, pc+4)
					s.StepTime(pc, time.Microsecond)
				}
			}
			p.Fold(s)
		}()
	}
	wg.Wait()

	snap := p.Snapshot()
	if len(snap.PCs) != 4 {
		t.Fatalf("got %d PCs, want 4", len(snap.PCs))
	}
	total := int64(workers * perPC)
	for pc, st := range snap.PCs {
		if st.Execs != total {
			t.Errorf("pc %#x: Execs = %d, want %d", pc, st.Execs, total)
		}
		if st.SolverQueries != total {
			t.Errorf("pc %#x: SolverQueries = %d, want %d", pc, st.SolverQueries, total)
		}
		if st.CacheHits != total/2 || st.CacheMisses != total/2 {
			t.Errorf("pc %#x: hits/misses = %d/%d, want %d/%d", pc, st.CacheHits, st.CacheMisses, total/2, total/2)
		}
		if st.SolverNS != total*int64(time.Microsecond) {
			t.Errorf("pc %#x: SolverNS = %d, want %d", pc, st.SolverNS, total*int64(time.Microsecond))
		}
		if st.StepNS != total*int64(time.Microsecond)*stepSample {
			t.Errorf("pc %#x: StepNS = %d, want %d", pc, st.StepNS, total*int64(time.Microsecond)*stepSample)
		}
		for name, got := range map[string]int64{
			"Forks": st.Forks, "Infeasible": st.Infeasible, "Kills": st.Kills,
			"Merges": st.Merges, "CompileMisses": st.CompileMisses, "Degraded": st.Degraded,
		} {
			if got != total {
				t.Errorf("pc %#x: %s = %d, want %d", pc, name, got, total)
			}
		}
	}
	if got := snap.Causes["branch-budget"]; got != 4*total {
		t.Errorf("causes[branch-budget] = %d, want %d", got, 4*total)
	}
	for e, n := range snap.Edges {
		if n != total {
			t.Errorf("edge %#x->%#x = %d, want %d", e.From, e.To, n, total)
		}
	}
}

// TestExecBlock checks the deferred superblock expansion: full and
// partial executions recorded against one block key must expand at
// fold time into exactly the Exec and Edge records the per-unit hooks
// would have produced.
func TestExecBlock(t *testing.T) {
	units := []BlockUnit{
		{PC: 0x100, Mnemonic: "addi", Format: "itype", Cont: 0x104},
		{PC: 0x104, Mnemonic: "xor", Format: "rtype", Cont: 0x108},
		{PC: 0x108, Mnemonic: "sw", Format: "stype", Cont: 0x10c},
	}
	p := New(Meta{ADL: "tiny32"})
	s := p.NewShard()
	key := &units
	for i := 0; i < 5; i++ {
		s.ExecBlock(key, units, len(units)) // 5 full runs
	}
	s.ExecBlock(key, units, 2) // one run exited before the third unit
	s.ExecBlock(key, units, 0) // no units executed: no records
	p.Fold(s)

	snap := p.Snapshot()
	want := map[uint64]int64{0x100: 6, 0x104: 6, 0x108: 5}
	if len(snap.PCs) != len(want) {
		t.Fatalf("got %d PCs, want %d", len(snap.PCs), len(want))
	}
	for pc, execs := range want {
		st := snap.PCs[pc]
		if st == nil || st.Execs != execs {
			t.Errorf("pc %#x: Execs = %v, want %d", pc, st, execs)
		}
	}
	if snap.PCs[0x100].Mnemonic != "addi" {
		t.Errorf("pc 0x100 mnemonic %q, want addi", snap.PCs[0x100].Mnemonic)
	}
	for _, e := range []struct {
		edge Edge
		n    int64
	}{
		{Edge{0x100, 0x104}, 6},
		{Edge{0x104, 0x108}, 6},
		{Edge{0x108, 0x10c}, 5},
	} {
		if got := snap.Edges[e.edge]; got != e.n {
			t.Errorf("edge %#x->%#x = %d, want %d", e.edge.From, e.edge.To, got, e.n)
		}
	}

	// A second fold of the same (reset) shard must not double-count.
	p.Fold(s)
	if got := p.Snapshot().PCs[0x100].Execs; got != 6 {
		t.Errorf("after refold, pc 0x100 Execs = %d, want 6", got)
	}
}

// TestNilSafety: a nil profiler hands out nil shards and every method
// on both must be a no-op, not a panic — the zero-cost off switch.
func TestNilSafety(t *testing.T) {
	var p *Profiler
	s := p.NewShard()
	if s != nil {
		t.Fatal("nil profiler produced a non-nil shard")
	}
	s.SetPC(1)
	s.Exec(1, "x", "y")
	s.StepTime(1, time.Second)
	s.Query(time.Second, true)
	s.Fork(1, 2)
	s.Infeasible(1)
	s.Kill(1)
	s.Merge(1)
	s.CompileMiss(1)
	s.Degrade("c")
	s.Edge(1, 2)
	s.ExecBlock("k", nil, 1)
	p.Fold(s)
	p.Fold(nil)
	p.Absorb(nil)
	if rep := p.Report(); len(rep.Hotspots) != 0 {
		t.Fatalf("nil profiler report has %d hotspots", len(rep.Hotspots))
	}
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatalf("nil WritePprof: %v", err)
	}
}

// TestPprofRoundTrip is the golden decode test: encode a known
// profile, parse it back through our own decoder, and require every
// sample type, value, symbolization and meta field to survive.
func TestPprofRoundTrip(t *testing.T) {
	p := New(Meta{ADL: "tiny32", JobID: "j000042"})
	s := p.NewShard()
	s.SetPC(0x1000)
	s.Exec(0x1000, "beq", "btype")
	s.Query(3*time.Millisecond, false)
	s.Fork(0x1000, 2)
	s.Exec(0x1008, "addi", "itype")
	s.StepTime(0x1008, time.Millisecond)
	p.Fold(s)

	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []ValueType{
		{"solver_time", "nanoseconds"},
		{"solver_queries", "count"},
		{"execs", "count"},
		{"step_time", "nanoseconds"},
		{"forks", "count"},
	}
	if len(parsed.SampleTypes) != len(wantTypes) {
		t.Fatalf("got %d sample types, want %d", len(parsed.SampleTypes), len(wantTypes))
	}
	for i, vt := range wantTypes {
		if parsed.SampleTypes[i] != vt {
			t.Errorf("sample type %d = %+v, want %+v", i, parsed.SampleTypes[i], vt)
		}
	}
	if parsed.DefaultSampleType != "solver_time" {
		t.Errorf("default sample type %q", parsed.DefaultSampleType)
	}
	if parsed.Mapping != "tiny32" {
		t.Errorf("mapping %q, want tiny32", parsed.Mapping)
	}
	if parsed.TimeNanos == 0 {
		t.Error("time_nanos missing")
	}
	if len(parsed.Samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(parsed.Samples))
	}
	s0 := parsed.Samples[0] // sorted by address
	if s0.Addr != 0x1000 || s0.Func != "0x1000 beq" || s0.SystemName != "beq" {
		t.Errorf("sample 0 = %+v", s0)
	}
	want0 := []int64{int64(3 * time.Millisecond), 1, 1, 0, 2}
	for i, v := range want0 {
		if s0.Values[i] != v {
			t.Errorf("sample 0 value %d = %d, want %d", i, s0.Values[i], v)
		}
	}
	s1 := parsed.Samples[1]
	if s1.Addr != 0x1008 || s1.Func != "0x1008 addi" {
		t.Errorf("sample 1 = %+v", s1)
	}
	if got := s1.Values[3]; got != int64(time.Millisecond)*stepSample {
		t.Errorf("sample 1 step_time = %d, want %d", got, int64(time.Millisecond)*stepSample)
	}
}

// TestDiamondDetection builds the canonical diamond — fork at 0x10
// into 0x14/0x20, rejoining at 0x24 — and requires the report to name
// it as a merge candidate with the right interior.
func TestDiamondDetection(t *testing.T) {
	p := New(Meta{ADL: "tiny32"})
	s := p.NewShard()
	s.Edge(0x10, 0x14) // taken arm
	s.Edge(0x10, 0x20) // fall-through arm
	s.Edge(0x14, 0x18)
	s.Edge(0x18, 0x24) // rejoin
	s.Edge(0x20, 0x24) // rejoin
	s.Edge(0x24, 0x28) // past the diamond
	s.Fork(0x10, 1)
	s.SetPC(0x18)
	s.Query(2*time.Millisecond, false)
	p.Fold(s)

	rep := p.Report()
	if len(rep.MergeCandidates) == 0 {
		t.Fatal("no merge candidates found")
	}
	mc := rep.MergeCandidates[0]
	if mc.Fork != 0x10 || mc.Rejoin != 0x24 || mc.Arms != 2 {
		t.Fatalf("candidate = %+v", mc)
	}
	wantRegion := []uint64{0x14, 0x18, 0x20}
	if len(mc.Region) != len(wantRegion) {
		t.Fatalf("region = %#v, want %#v", mc.Region, wantRegion)
	}
	for i, pc := range wantRegion {
		if mc.Region[i] != pc {
			t.Fatalf("region = %#v, want %#v", mc.Region, wantRegion)
		}
	}
	if mc.SolverNS != int64(2*time.Millisecond) {
		t.Errorf("region solver cost = %d, want %d", mc.SolverNS, int64(2*time.Millisecond))
	}

	var txt bytes.Buffer
	if err := rep.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "merge candidates") || !strings.Contains(txt.String(), "fork 0x10 -> rejoin 0x24") {
		t.Errorf("text report missing merge candidate section:\n%s", txt.String())
	}
}

// TestJSONReport: the JSON surface round-trips through encoding/json
// and carries the meta, hotspots and degradation causes.
func TestJSONReport(t *testing.T) {
	p := New(Meta{ADL: "rv32i", JobID: "j000001"})
	s := p.NewShard()
	s.Exec(0x2000, "lw", "itype")
	s.SetPC(0x2000)
	s.Degrade("jump-enum-budget")
	p.Fold(s)
	data, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Meta.ADL != "rv32i" || rep.Meta.JobID != "j000001" {
		t.Errorf("meta = %+v", rep.Meta)
	}
	if len(rep.Hotspots) != 1 || rep.Hotspots[0].PC != 0x2000 || rep.Hotspots[0].Mnemonic != "lw" {
		t.Errorf("hotspots = %+v", rep.Hotspots)
	}
	if rep.Degraded["jump-enum-budget"] != 1 {
		t.Errorf("degraded = %+v", rep.Degraded)
	}
}

// TestAbsorbAggregates: the daemon-side aggregate must sum job
// profiles without mutating them.
func TestAbsorbAggregates(t *testing.T) {
	agg := New(Meta{ADL: "all"})
	for i := 0; i < 3; i++ {
		job := New(Meta{ADL: "tiny32"})
		s := job.NewShard()
		s.Exec(0x100, "add", "rtype")
		job.Fold(s)
		agg.Absorb(job)
		if job.Snapshot().PCs[0x100].Execs != 1 {
			t.Fatal("Absorb mutated the source profile")
		}
	}
	if got := agg.Snapshot().PCs[0x100].Execs; got != 3 {
		t.Fatalf("aggregate Execs = %d, want 3", got)
	}
}
