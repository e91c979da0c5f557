package smt

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/expr"
)

// fillCache solves n distinct queries (a mix of sat and unsat) against
// a fresh solver sharing the cache, returning the solver for model
// re-checks.
func fillCache(t *testing.T, cache *QueryCache, n int) *Solver {
	t.Helper()
	b := expr.NewBuilder()
	s := New(b)
	s.Cache = cache
	x := b.Var(16, "x")
	for i := 0; i < n; i++ {
		var q *expr.Expr
		if i%3 == 0 {
			// Unsat: x < i ∧ x > i+10.
			q = b.BoolAnd(b.ULt(x, b.Const(16, uint64(i))), b.UGt(x, b.Const(16, uint64(i+10))))
		} else {
			q = b.Eq(b.Add(x, b.Const(16, uint64(i))), b.Const(16, uint64(3*i+7)))
		}
		if _, err := s.Check(q); err != nil {
			t.Fatalf("fill query %d: %v", i, err)
		}
	}
	return s
}

// snapshotEntries exports the cache as a map for bit-for-bit comparison.
func snapshotEntries(c *QueryCache) map[[2]uint64]ExportedEntry {
	out := map[[2]uint64]ExportedEntry{}
	c.Export(func(e ExportedEntry) { out[[2]uint64{e.K0, e.K1}] = e })
	return out
}

func TestPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.sxqc")
	c1 := NewQueryCache()
	p1, err := OpenPersistentCache(path, c1, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, c1, 20)
	want := snapshotEntries(c1)
	if err := p1.Close(); err != nil { // Close flushes
		t.Fatal(err)
	}

	c2 := NewQueryCache()
	p2, err := OpenPersistentCache(path, c2, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	st := p2.Stats()
	if st.Corruptions != 0 {
		t.Fatalf("clean file: %d corruptions", st.Corruptions)
	}
	if st.Loaded != int64(len(want)) {
		t.Fatalf("loaded %d entries, want %d", st.Loaded, len(want))
	}
	got := snapshotEntries(c2)
	if len(got) != len(want) {
		t.Fatalf("reloaded size %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("entry %x missing after reload", k)
		}
		if g.R != w.R {
			t.Fatalf("entry %x: result %v, want %v", k, g.R, w.R)
		}
		if len(g.Model) != len(w.Model) {
			t.Fatalf("entry %x: model size %d, want %d", k, len(g.Model), len(w.Model))
		}
		for name, v := range w.Model {
			if g.Model[name] != v { // bit-for-bit model preservation
				t.Fatalf("entry %x: model[%s] = %#x, want %#x", k, name, g.Model[name], v)
			}
		}
		if !g.Disk {
			t.Fatalf("entry %x not marked as disk-loaded", k)
		}
	}

	// A re-posed query must be answered from the reloaded cache with the
	// persisted model, and count as a cross-run (disk) hit.
	b := expr.NewBuilder()
	s := New(b)
	s.Cache = c2
	x := b.Var(16, "x")
	q := b.Eq(b.Add(x, b.Const(16, 1)), b.Const(16, 10))
	if r, err := s.Check(q); err != nil || r != Sat {
		t.Fatalf("cross-run check: %v, %v", r, err)
	}
	if s.Stats.CacheHits != 1 {
		t.Fatalf("cross-run check missed the reloaded cache")
	}
	if c2.DiskHits() != 1 {
		t.Fatalf("DiskHits = %d, want 1", c2.DiskHits())
	}
	if got := s.Value(x); got != 9 {
		t.Fatalf("persisted model unsound: x = %d", got)
	}
}

func TestPersistTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.sxqc")
	c1 := NewQueryCache()
	p1, err := OpenPersistentCache(path, c1, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, c1, 12)
	total := c1.Size()
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear off the last few bytes, as a crash mid-append would.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewQueryCache()
	p2, err := OpenPersistentCache(path, c2, PersistOptions{})
	if err != nil {
		t.Fatalf("torn tail must not fail the open: %v", err)
	}
	st := p2.Stats()
	if st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1 (the torn tail)", st.Corruptions)
	}
	if st.Loaded != int64(total-1) {
		t.Fatalf("loaded %d, want %d (all but the torn entry)", st.Loaded, total-1)
	}
	// Writer recovery truncates the torn suffix: the next open is clean.
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	c3 := NewQueryCache()
	p3, err := OpenPersistentCache(path, c3, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if st := p3.Stats(); st.Corruptions != 0 || st.Loaded != int64(total-1) {
		t.Fatalf("after truncate recovery: corruptions=%d loaded=%d, want 0/%d",
			st.Corruptions, st.Loaded, total-1)
	}
}

func TestPersistFlippedCRCByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.sxqc")
	c1 := NewQueryCache()
	p1, err := OpenPersistentCache(path, c1, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, c1, 10)
	total := c1.Size()
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the middle of the log: the entry it
	// lands in fails its checksum and is skipped, and nothing panics.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewQueryCache()
	p2, err := OpenPersistentCache(path, c2, PersistOptions{})
	if err != nil {
		t.Fatalf("flipped byte must not fail the open: %v", err)
	}
	defer p2.Close()
	st := p2.Stats()
	if st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
	if st.Loaded >= int64(total) || c2.Size() >= total {
		t.Fatalf("loaded %d of %d entries despite corruption", st.Loaded, total)
	}
	// Whatever did load is still sound: re-posing the first fill query
	// must agree with a fresh solver.
	b := expr.NewBuilder()
	s := New(b)
	s.Cache = c2
	x := b.Var(16, "x")
	q := b.BoolAnd(b.ULt(x, b.Const(16, 0)), b.UGt(x, b.Const(16, 10)))
	if r, err := s.Check(q); err != nil || r != Unsat {
		t.Fatalf("post-corruption check: %v, %v", r, err)
	}
}

func TestPersistSingleWriterLease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.sxqc")
	c1 := NewQueryCache()
	p1, err := OpenPersistentCache(path, c1, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	if p1.ReadOnly() {
		t.Fatal("first opener must hold the writer lease")
	}
	fillCache(t, c1, 8)
	if err := p1.Flush(); err != nil {
		t.Fatal(err)
	}

	// A second opener (same file, separate descriptor — what a second
	// daemon process would hold) attaches read-only: it loads, but its
	// flushes are refused, so the two can never interleave appends.
	c2 := NewQueryCache()
	p2, err := OpenPersistentCache(path, c2, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !p2.ReadOnly() {
		t.Fatal("second opener must be read-only while the lease is held")
	}
	if c2.Size() != c1.Size() {
		t.Fatalf("read-only load got %d entries, want %d", c2.Size(), c1.Size())
	}
	if err := p2.Flush(); err != ErrReadOnly {
		t.Fatalf("read-only flush: %v, want ErrReadOnly", err)
	}

	// The writer keeps appending; the reader reloads and sees the new
	// entries; the file stays uncorrupted end to end.
	fillCache(t, c1, 16)
	if err := p1.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p2.Reload(); err != nil {
		t.Fatal(err)
	}
	if c2.Size() != c1.Size() {
		t.Fatalf("after reload: reader has %d entries, writer %d", c2.Size(), c1.Size())
	}
	if st := p2.Stats(); st.Corruptions != 0 {
		t.Fatalf("reader saw %d corruptions on a live shared file", st.Corruptions)
	}

	// Lease handover: once the writer closes, a new opener owns writes.
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	c3 := NewQueryCache()
	p3, err := OpenPersistentCache(path, c3, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if p3.ReadOnly() {
		t.Fatal("lease must be free after the writer closed")
	}
	if st := p3.Stats(); st.Corruptions != 0 {
		t.Fatalf("handover load saw %d corruptions", st.Corruptions)
	}
}

func TestPersistLRUCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.sxqc")
	c1 := NewQueryCache()
	p1, err := OpenPersistentCache(path, c1, PersistOptions{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, c1, 24)
	// Touch a known query so it is the most recently used entry.
	b := expr.NewBuilder()
	s2 := New(b)
	s2.Cache = c1
	x := b.Var(16, "x")
	hot := b.Eq(b.Add(x, b.Const(16, 1)), b.Const(16, 10))
	if r, err := s2.Check(hot); err != nil || r != Sat {
		t.Fatalf("hot check: %v, %v", r, err)
	}
	if err := p1.Flush(); err != nil { // exceeds MaxEntries -> compacts
		t.Fatal(err)
	}
	st := p1.Stats()
	if st.Compactions == 0 {
		t.Fatal("flush past MaxEntries did not compact")
	}
	if st.FileEntries != 8 {
		t.Fatalf("file entries after compaction = %d, want 8", st.FileEntries)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	// The reloaded cache holds only the LRU-bounded set, and the hot
	// entry survived.
	c2 := NewQueryCache()
	p2, err := OpenPersistentCache(path, c2, PersistOptions{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := c2.Size(); got != 8 {
		t.Fatalf("reloaded size %d, want 8", got)
	}
	b3 := expr.NewBuilder()
	s3 := New(b3)
	s3.Cache = c2
	x3 := b3.Var(16, "x")
	hot3 := b3.Eq(b3.Add(x3, b3.Const(16, 1)), b3.Const(16, 10))
	if r, err := s3.Check(hot3); err != nil || r != Sat {
		t.Fatalf("hot check after reload: %v, %v", r, err)
	}
	if s3.Stats.CacheHits != 1 {
		t.Fatal("most recently used entry was evicted by compaction")
	}
}

// TestPersistFlushUnderConcurrentSolving is the snapshot-consistency
// proof the background flusher depends on: flushes interleave with
// concurrent solving on shared-cache solvers, under -race, and every
// flushed file loads cleanly with sound entries.
func TestPersistFlushUnderConcurrentSolving(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.sxqc")
	cache := NewQueryCache()
	p, err := OpenPersistentCache(path, cache, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := expr.NewBuilder()
			s := New(b)
			s.Cache = cache
			x := b.Var(16, fmt.Sprintf("x%d", w%2))
			for i := 0; i < 80; i++ {
				q := b.Eq(b.Add(x, b.Const(16, uint64(i))), b.Const(16, uint64(2*i+3)))
				if _, err := s.Check(q); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	flushDone := make(chan struct{})
	go func() {
		defer close(flushDone)
		for i := 0; i < 20; i++ {
			if err := p.Flush(); err != nil {
				t.Errorf("concurrent flush: %v", err)
				return
			}
		}
	}()
	// Stats must stay internally consistent while everything mutates.
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		for i := 0; i < 200; i++ {
			st := cache.Stats()
			if st.DiskHits > st.Hits {
				t.Errorf("snapshot: disk hits %d > hits %d", st.DiskHits, st.Hits)
				return
			}
			if n := st.Hits + st.Misses; n > 0 {
				if r := float64(st.Hits) / float64(n); r < 0 || r > 1 {
					t.Errorf("snapshot: hit rate %v out of [0,1]", r)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-flushDone
	<-statsDone
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := NewQueryCache()
	p2, err := OpenPersistentCache(path, c2, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if st := p2.Stats(); st.Corruptions != 0 {
		t.Fatalf("file written under concurrency has %d corruptions", st.Corruptions)
	}
	if c2.Size() != cache.Size() {
		t.Fatalf("reloaded %d entries, want %d", c2.Size(), cache.Size())
	}
}
