// Persistent solver-query cache: a content-addressed, cross-run store
// behind QueryCache (docs/service.md). Because queries are keyed by
// 128-bit *structural* digests (expr.Digest), a memoized sat/unsat
// result is valid for any process that ever poses a structurally
// identical query — across runs, jobs and tenants. The persistent layer
// makes that sharing survive process restarts:
//
//   - the file is an append-only log in the shared internal/wal format
//     (magic "SXQC"): CRC-framed entries of (key, result, model), so a
//     flush is a single sequential write and a crash mid-append costs
//     only the torn tail;
//   - Load replays the log into the in-memory QueryCache, skipping any
//     entry whose checksum fails and (when writable) truncating a torn
//     tail — a flipped bit or truncated tail can never poison results,
//     only shrink the cache;
//   - a background flusher (service layer or caller-driven) appends the
//     entries solved since the last flush;
//   - compaction bounds the file: when the live entry count exceeds the
//     configured maximum, the log is rewritten with only the most
//     recently used entries (LRU order from the QueryCache use clock);
//   - a flock-based single-writer lease makes concurrent daemons safe:
//     the first opener owns appends, later openers attach read-only and
//     still load (and re-load) the shared file.
package smt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/expr"
	"repro/internal/wal"
)

// Persist file layout (all integers little-endian):
//
//	header:  "SXQC" | u32 version
//	entry:   u32 payloadLen | u32 crc32(payload) | payload
//	payload: u64 k0 | u64 k1 | u8 result | u32 nvars |
//	         { u16 nameLen | name bytes | u64 value } * nvars
const (
	persistMagic   = "SXQC"
	persistVersion = 1
)

// ErrReadOnly is returned by Flush and Compact when another process
// holds the single-writer lease on the cache file.
var ErrReadOnly = errors.New("smt: persistent cache is read-only (another writer holds the lease)")

// PersistStats is a snapshot of the persistent layer's counters.
type PersistStats struct {
	Loaded      int64 // entries loaded from the file into the QueryCache
	Flushed     int64 // entries appended to the file by this process
	Corruptions int64 // corrupt entries (bad CRC, torn tail) skipped on load
	Compactions int64 // log rewrites performed
	FileEntries int64 // entries believed on disk after the last load/flush
	ReadOnly    bool  // true when another process owns the writer lease
}

// PersistOptions configures OpenPersistentCache.
type PersistOptions struct {
	// MaxEntries bounds the on-disk log: when a flush would leave more
	// than this many entries in the file, the log is compacted down to
	// the MaxEntries most recently used ones. 0 means unbounded.
	MaxEntries int
}

// PersistentCache binds a QueryCache to an on-disk log file.
type PersistentCache struct {
	cache *QueryCache
	opts  PersistOptions

	mu     sync.Mutex
	log    *wal.Log
	onDisk map[cacheKey]struct{} // keys known to be in the file
	stats  PersistStats          // Corruptions/ReadOnly read through from the wal
	closed bool
}

// OpenPersistentCache opens (creating if needed) the cache file at path,
// acquires the single-writer flock lease when available, and loads every
// intact entry into cache. When another process already holds the lease
// the cache attaches read-only: Load works, Flush returns ErrReadOnly,
// and the file is never truncated or appended to. The returned cache is
// usable even when the load found corruption — bad entries are skipped,
// a torn tail is truncated away by the writer, and both count in
// Stats().Corruptions.
func OpenPersistentCache(path string, cache *QueryCache, opts PersistOptions) (*PersistentCache, error) {
	if cache == nil {
		return nil, errors.New("smt: OpenPersistentCache needs a QueryCache")
	}
	log, err := wal.Open(path, wal.Options{Magic: persistMagic, Version: persistVersion})
	if err != nil {
		return nil, fmt.Errorf("smt: persistent cache: %w", err)
	}
	p := &PersistentCache{
		cache:  cache,
		opts:   opts,
		log:    log,
		onDisk: make(map[cacheKey]struct{}),
	}
	if err := p.loadLocked(); err != nil {
		log.Close()
		return nil, err
	}
	return p, nil
}

// loadLocked replays the log into the QueryCache. Insert keeps existing
// entries, so replay is idempotent, and onDisk dedups the file-entry
// count.
func (p *PersistentCache) loadLocked() error {
	err := p.log.Load(func(payload []byte) error {
		k, r, model, ok := decodeEntry(payload)
		if !ok {
			return errors.New("undecodable entry")
		}
		p.cache.Insert(k.k0, k.k1, r, model, true)
		if _, dup := p.onDisk[k]; !dup {
			p.onDisk[k] = struct{}{}
			p.stats.FileEntries++
		}
		p.stats.Loaded++
		return nil
	})
	if err != nil {
		return fmt.Errorf("smt: persistent cache: %w", err)
	}
	return nil
}

// Reload re-reads the file, inserting entries appended by another
// process since the last load. Only meaningful for read-only attachers
// following an active writer; the writer already has everything.
func (p *PersistentCache) Reload() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("smt: persistent cache is closed")
	}
	return p.loadLocked()
}

func encodeEntry(e ExportedEntry) []byte {
	n := 8 + 8 + 1 + 4
	names := make([]string, 0, len(e.Model))
	for name := range e.Model {
		names = append(names, name)
		n += 2 + len(name) + 8
	}
	sort.Strings(names) // deterministic bytes for a given entry
	buf := make([]byte, 0, n)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], e.K0)
	buf = append(buf, u64[:]...)
	binary.LittleEndian.PutUint64(u64[:], e.K1)
	buf = append(buf, u64[:]...)
	buf = append(buf, byte(e.R))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(names)))
	buf = append(buf, u32[:]...)
	for _, name := range names {
		var u16 [2]byte
		binary.LittleEndian.PutUint16(u16[:], uint16(len(name)))
		buf = append(buf, u16[:]...)
		buf = append(buf, name...)
		binary.LittleEndian.PutUint64(u64[:], e.Model[name])
		buf = append(buf, u64[:]...)
	}
	return buf
}

func decodeEntry(b []byte) (k cacheKey, r Result, model expr.Env, ok bool) {
	if len(b) < 8+8+1+4 {
		return k, r, nil, false
	}
	k.k0 = binary.LittleEndian.Uint64(b)
	k.k1 = binary.LittleEndian.Uint64(b[8:])
	r = Result(b[16])
	if r != Sat && r != Unsat {
		return k, r, nil, false
	}
	nvars := binary.LittleEndian.Uint32(b[17:])
	b = b[21:]
	if nvars > 0 {
		model = make(expr.Env, nvars)
	}
	for i := uint32(0); i < nvars; i++ {
		if len(b) < 2 {
			return k, r, nil, false
		}
		nl := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < nl+8 {
			return k, r, nil, false
		}
		model[string(b[:nl])] = binary.LittleEndian.Uint64(b[nl:])
		b = b[nl+8:]
	}
	if len(b) != 0 {
		return k, r, nil, false
	}
	return k, r, model, true
}

// Flush appends every definitive entry solved since the last flush (or
// load) to the log, then compacts if the file grew past MaxEntries.
// Safe to call concurrently with lookups and stores; entries stored
// while the flush runs are caught by the next one.
func (p *PersistentCache) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("smt: persistent cache is closed")
	}
	if p.log.ReadOnly() {
		return ErrReadOnly
	}
	var payloads [][]byte
	var added []cacheKey
	p.cache.Export(func(e ExportedEntry) {
		k := cacheKey{k0: e.K0, k1: e.K1}
		if _, ok := p.onDisk[k]; ok {
			return
		}
		payloads = append(payloads, encodeEntry(e))
		added = append(added, k)
	})
	if len(payloads) > 0 {
		if err := p.log.AppendBatch(payloads); err != nil {
			if errors.Is(err, wal.ErrReadOnly) {
				return ErrReadOnly
			}
			return fmt.Errorf("smt: persistent cache: append: %w", err)
		}
		for _, k := range added {
			p.onDisk[k] = struct{}{}
		}
		p.stats.Flushed += int64(len(added))
		p.stats.FileEntries += int64(len(added))
	}
	if p.opts.MaxEntries > 0 && p.stats.FileEntries > int64(p.opts.MaxEntries) {
		return p.compactLocked()
	}
	return nil
}

// Compact rewrites the log keeping only the MaxEntries most recently
// used entries (all of them when MaxEntries is 0 — still useful to drop
// duplicate and superseded records after many appends).
func (p *PersistentCache) Compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("smt: persistent cache is closed")
	}
	if p.log.ReadOnly() {
		return ErrReadOnly
	}
	return p.compactLocked()
}

func (p *PersistentCache) compactLocked() error {
	var entries []ExportedEntry
	p.cache.Export(func(e ExportedEntry) { entries = append(entries, e) })
	// Most recently used first; the survivors are the LRU-bounded set.
	sort.Slice(entries, func(i, j int) bool { return entries[i].Used > entries[j].Used })
	if p.opts.MaxEntries > 0 && len(entries) > p.opts.MaxEntries {
		entries = entries[:p.opts.MaxEntries]
	}
	payloads := make([][]byte, len(entries))
	onDisk := make(map[cacheKey]struct{}, len(entries))
	for i, e := range entries {
		payloads[i] = encodeEntry(e)
		onDisk[cacheKey{k0: e.K0, k1: e.K1}] = struct{}{}
	}
	if err := p.log.Rewrite(payloads); err != nil {
		if errors.Is(err, wal.ErrReadOnly) {
			return ErrReadOnly
		}
		return fmt.Errorf("smt: persistent cache: compact: %w", err)
	}
	p.onDisk = onDisk
	p.stats.FileEntries = int64(len(entries))
	p.stats.Compactions++
	return nil
}

// Stats returns a snapshot of the persistence counters.
func (p *PersistentCache) Stats() PersistStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	ws := p.log.Stats()
	st := p.stats
	st.Corruptions = ws.Corruptions
	st.ReadOnly = ws.ReadOnly
	return st
}

// ReadOnly reports whether this process lost the single-writer lease.
func (p *PersistentCache) ReadOnly() bool { return p.log.ReadOnly() }

// Close flushes (when writable) and releases the file and its lease.
func (p *PersistentCache) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	var flushErr error
	if !p.ReadOnly() {
		flushErr = p.Flush()
	}
	p.mu.Lock()
	p.closed = true
	err := p.log.Close() // releases the flock lease
	p.mu.Unlock()
	if flushErr != nil {
		return flushErr
	}
	return err
}
