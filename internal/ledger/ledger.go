// Package ledger is the run ledger: an append-only, CRC-checked store
// of one compact Record per completed exploration, giving the engine a
// memory *across* runs — the longitudinal complement to the per-run
// instruments in internal/obs, internal/cover and internal/profile.
// The regression gate (gate.go) diffs a fresh run against the rolling
// median of its same-digest predecessors; cmd/symex, cmd/experiments,
// cmd/difftest and symexd all append to it.
//
// The file format is the shared record discipline of internal/wal
// (magic "SXRL"): CRC-framed JSON records, skip-and-truncate tail
// recovery, and a flock-based single-writer lease — the first opener
// owns appends, later openers attach read-only and may Reload to
// follow the writer.
package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/wal"
)

const (
	magic   = "SXRL"
	version = 1

	// FileName is the ledger log inside the ledger directory.
	FileName = "runs.sxrl"
)

// ErrReadOnly is returned by Append when another process holds the
// writer lease and this ledger is attached read-only.
var ErrReadOnly = errors.New("ledger: attached read-only (another process holds the writer lease)")

// Stats counts what open/load/append did, for surfacing and tests.
type Stats struct {
	Loaded      int // records read intact from the file
	Appended    int // records appended by this handle
	Corruptions int // bad-checksum entries skipped and torn tails truncated
	ReadOnly    bool
}

// Ledger is an open run ledger. Safe for concurrent use.
type Ledger struct {
	mu     sync.Mutex
	log    *wal.Log
	recs   []Record
	closed bool
}

// Open opens (creating if needed) the ledger in dir, acquires the
// single-writer flock lease when available, and loads every intact
// record. When another process already holds the lease the ledger
// attaches read-only: Records works, Append returns ErrReadOnly, and
// the file is never truncated or appended to.
func Open(dir string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	log, err := wal.Open(filepath.Join(dir, FileName), wal.Options{Magic: magic, Version: version})
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l := &Ledger{log: log}
	if err := l.load(); err != nil {
		log.Close()
		return nil, err
	}
	return l, nil
}

func (l *Ledger) load() error {
	var recs []Record
	err := l.log.Load(func(payload []byte) error {
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	l.recs = recs
	return nil
}

// Append durably appends one record: framed, CRC'd, written and synced
// before it lands in the in-memory view. Returns ErrReadOnly when this
// handle does not hold the writer lease.
func (l *Ledger) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("ledger: closed")
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := l.log.Append(payload); err != nil {
		if errors.Is(err, wal.ErrReadOnly) {
			return ErrReadOnly
		}
		return fmt.Errorf("ledger: %w", err)
	}
	l.recs = append(l.recs, r)
	return nil
}

// Records returns every loaded+appended record in append order. The
// slice is a copy; the records share no mutable state with the ledger.
func (l *Ledger) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.recs))
	copy(out, l.recs)
	return out
}

// ByDigest returns the records of one baseline series, in append order.
func (l *Ledger) ByDigest(digest string) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Record
	for _, r := range l.recs {
		if r.Digest == digest {
			out = append(out, r)
		}
	}
	return out
}

// Digests returns the distinct config digests present, in first-seen
// order.
func (l *Ledger) Digests() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, r := range l.recs {
		if !seen[r.Digest] {
			seen[r.Digest] = true
			out = append(out, r.Digest)
		}
	}
	return out
}

// Reload re-reads the file, picking up records appended by another
// process since the last load. Only meaningful for read-only followers;
// the writer already has everything.
func (l *Ledger) Reload() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("ledger: closed")
	}
	return l.load()
}

// Stats returns load/append/corruption counters.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	ws := l.log.Stats()
	return Stats{
		Loaded:      int(ws.Loaded),
		Appended:    int(ws.Appended),
		Corruptions: int(ws.Corruptions),
		ReadOnly:    ws.ReadOnly,
	}
}

// ReadOnly reports whether this handle lost the writer-lease race.
func (l *Ledger) ReadOnly() bool { return l.log.ReadOnly() }

// Path returns the backing file path.
func (l *Ledger) Path() string { return l.log.Path() }

// Close releases the writer lease (if held) and the file handle.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.log.Close() // releases the flock lease
}
