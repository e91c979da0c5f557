// Query caching: a concurrent, sharded memo table over solver queries,
// shared by every Solver of one analysis (and, in parallel runs, by every
// worker's solver). Symbolic execution re-poses huge numbers of
// structurally identical queries — both branch sides share the path
// prefix, sibling paths re-check the same conditions, and concolic replay
// re-solves conditions full exploration already discharged — so a
// memoized sat/unsat/model lookup in front of the bit-blaster removes a
// large share of solver time.
//
// Keys are 128-bit structural digests (expr.Digest) folded over the
// query's assumptions in sorted order, which makes the key independent of
// both the owning Builder and the order in which the conjuncts were
// listed. Sat results memoize the model that was found; it remains a
// valid model for any later structurally identical query.
package smt

import (
	"sync"
	"sync/atomic"

	"repro/internal/expr"
)

const cacheShards = 64

// QueryCache memoizes Check outcomes keyed by the structural digest of
// the assumption set. It is safe for concurrent use.
type QueryCache struct {
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64

	// diskHits counts lookups answered by an entry that was loaded from
	// a persistent cache file (persist.go) rather than solved in this
	// process — the cross-run hit counter of the service layer.
	diskHits atomic.Int64

	// tick is the logical use clock behind per-entry LRU ordering: every
	// lookup hit and store stamps the entry, and the persistent cache's
	// size-bounded compaction keeps the most recently stamped entries.
	tick atomic.Int64
}

type cacheShard struct {
	mu sync.Mutex
	m  map[cacheKey]cacheEntry
}

// cacheKey is the order-insensitive 128-bit digest of an assumption set.
type cacheKey struct{ k0, k1 uint64 }

type cacheEntry struct {
	r     Result
	model expr.Env // satisfying assignment for Sat entries; must not be mutated
	used  int64    // logical use-clock stamp of the last lookup hit (LRU)
	disk  bool     // entry came from a persistent cache file (cross-run)
}

// NewQueryCache returns an empty cache.
func NewQueryCache() *QueryCache {
	c := &QueryCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]cacheEntry)
	}
	return c
}

// queryKey folds the assumption digests, sorted, into one key, so that
// permutations of the same conjunct set share an entry.
func queryKey(assumptions []*expr.Expr) cacheKey {
	ds := make([]expr.Digest, len(assumptions))
	for i, a := range assumptions {
		ds[i] = a.Digest()
	}
	// Insertion sort: assumption lists are short-ish and mostly sorted
	// (shared path prefixes), so this beats sort.Slice allocations.
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Less(ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	k := cacheKey{k0: 0x8f14e45fceea167a, k1: 0x5bd1e9955bd1e995}
	k.k0 = expr.MixHash(k.k0, uint64(len(ds)))
	k.k1 = expr.MixHash(k.k1, uint64(len(ds)))
	for _, d := range ds {
		k.k0 = expr.MixHash(k.k0, d.H0)
		k.k1 = expr.MixHash(k.k1, d.H1)
	}
	return k
}

func (c *QueryCache) shard(k cacheKey) *cacheShard {
	return &c.shards[k.k0%cacheShards]
}

// lookup returns a memoized result for the key, counting hit/miss. A
// hit restamps the entry's LRU use clock under the shard lock.
func (c *QueryCache) lookup(k cacheKey) (cacheEntry, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if ok {
		e.used = c.tick.Add(1)
		s.m[k] = e
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		if e.disk {
			c.diskHits.Add(1)
		}
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// store memoizes a definitive result. Budget-limited (Unknown) outcomes
// must not be stored: they are not canonical.
func (c *QueryCache) store(k cacheKey, e cacheEntry) {
	s := c.shard(k)
	s.mu.Lock()
	if _, ok := s.m[k]; !ok {
		e.used = c.tick.Add(1)
		s.m[k] = e
	}
	s.mu.Unlock()
}

// Insert seeds a memoized result under a raw 128-bit key, bypassing the
// digest fold — the persistent loader's entry point (persist.go). An
// entry already present wins: in-process results are at least as fresh
// as anything read back from disk. fromDisk marks the entry for the
// cross-run DiskHits counter.
func (c *QueryCache) Insert(k0, k1 uint64, r Result, model expr.Env, fromDisk bool) {
	if r != Unknown { // non-canonical, same rule as store
		c.store(cacheKey{k0: k0, k1: k1}, cacheEntry{r: r, model: model, disk: fromDisk})
	}
}

// ExportedEntry is one memoized query as seen by Export.
type ExportedEntry struct {
	K0, K1 uint64
	R      Result
	Model  expr.Env // shared, not copied: callers must not mutate
	Used   int64    // LRU use-clock stamp (higher = more recent)
	Disk   bool     // loaded from a persistent file rather than solved here
}

// Export calls fn for every memoized entry. Each shard is copied under
// its lock, so the callback runs lock-free on a per-shard-consistent
// snapshot: an entry stored concurrently with the export is either
// wholly present or wholly absent, never torn. Cross-shard skew is
// limited to entries being stored while the export walks — acceptable
// for the persistent flusher, which only ever appends what it sees and
// catches stragglers on the next flush.
func (c *QueryCache) Export(fn func(ExportedEntry)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		snap := make([]ExportedEntry, 0, len(s.m))
		for k, e := range s.m {
			snap = append(snap, ExportedEntry{K0: k.k0, K1: k.k1, R: e.r, Model: e.model, Used: e.used, Disk: e.disk})
		}
		s.mu.Unlock()
		for _, e := range snap {
			fn(e)
		}
	}
}

// Hits returns the number of lookups answered from the cache.
func (c *QueryCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of lookups that fell through to the solver.
func (c *QueryCache) Misses() int64 { return c.misses.Load() }

// DiskHits returns the number of lookups answered by an entry loaded
// from a persistent cache file — hits that crossed a process boundary.
func (c *QueryCache) DiskHits() int64 { return c.diskHits.Load() }

// CacheStats is a consistent counter snapshot (see QueryCache.Stats).
type CacheStats struct {
	Hits     int64
	Misses   int64
	DiskHits int64
	Size     int
}

// Stats returns a snapshot of the counters that is consistent enough
// for ratio math while shards mutate: the hit counter is re-read until
// it is stable around the other loads, so a concurrently recorded
// lookup can never produce a snapshot with more disk hits than hits, or
// a hit rate above 1. Size is summed shard by shard (each shard
// consistent under its lock); with no eviction it is monotonic, so the
// sum is a valid lower bound of the instantaneous size.
func (c *QueryCache) Stats() CacheStats {
	var st CacheStats
	for {
		h0 := c.hits.Load()
		st.Misses = c.misses.Load()
		st.DiskHits = c.diskHits.Load()
		st.Hits = c.hits.Load()
		if st.Hits == h0 {
			break
		}
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Size += len(s.m)
		s.mu.Unlock()
	}
	return st
}

// Size returns the number of memoized queries. Each shard is counted
// under its lock; with no eviction the result is a lower bound of the
// instantaneous size and is exact once stores quiesce.
func (c *QueryCache) Size() int { return c.Stats().Size }
