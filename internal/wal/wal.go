// Package wal is the shared CRC-framed append-only log underneath
// every durable store in the tree: the persistent solver-query cache
// (smt), the run ledger (ledger) and the analysis-service job journal
// (service). It extracts the record discipline those stores proved
// independently:
//
//   - an 8-byte header (4-byte magic + u32 format version) rejects
//     foreign files;
//   - each entry is u32 payload length + u32 CRC32(payload) + payload,
//     so a torn or bit-flipped tail is detected per entry;
//   - recovery is skip-and-truncate: a frame whose length is in bounds
//     and whose payload reads in full but fails its CRC is skipped and
//     the scan goes on, so one flipped bit loses one entry; a torn or
//     short tail stops the scan, and the lease-holding writer truncates
//     it away so the next append lands on an intact boundary;
//   - a flock-based single-writer lease makes concurrent processes
//     safe: the first opener owns appends, later openers attach
//     read-only and may re-Load to follow the writer;
//   - a rewrite replaces the whole log atomically (temp file, lease
//     handover, fsync, rename) for compaction.
//
// Consumers keep their own record encoding (JSON or binary) — the log
// only sees opaque payloads. The optional fault injector (SiteWAL)
// perturbs append and rewrite I/O with short writes, CRC flips and
// lease steals for the chaos harness (docs/robustness.md).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/faultinject"
)

// DefaultMaxPayload bounds a single entry when Options.MaxPayload is
// zero; anything larger in a length field is treated as corruption,
// not an allocation request.
const DefaultMaxPayload = 1 << 20

// ErrReadOnly is returned by the mutating methods when another process
// holds the single-writer flock lease (or an injected lease steal
// simulates losing it).
var ErrReadOnly = errors.New("wal: attached read-only (another process holds the writer lease)")

// InjectedError marks a failure manufactured by the fault injector, so
// chaos harnesses can tell injected I/O faults from real ones.
type InjectedError struct {
	Kind faultinject.Kind
}

func (e *InjectedError) Error() string {
	return "wal: injected " + e.Kind.String() + " fault"
}

// Options configures a log file's format identity and bounds.
type Options struct {
	Magic      string // exactly 4 bytes, stamps the file header
	Version    uint32 // format version; a mismatch is whole-file corruption
	MaxPayload int    // per-entry payload bound; 0 means DefaultMaxPayload

	// Inject, when non-nil, perturbs Append/AppendBatch/Rewrite at
	// faultinject.SiteWAL: KindShortWrite tears a frame (the writer
	// truncates it back and reports the error), KindCRCFlip silently
	// writes a bad checksum (detected as one corruption on the next
	// load), KindLease simulates a stolen lease (ErrReadOnly).
	Inject *faultinject.Injector
}

// Stats counts what open/load/append did, for surfacing and tests.
type Stats struct {
	Loaded      int64 // entries read intact by the most recent Load
	Appended    int64 // entries appended by this handle
	Corruptions int64 // bad-CRC frames skipped and corrupt suffixes truncated, cumulative
	Rewrites    int64 // atomic whole-log rewrites performed
	ReadOnly    bool  // true when another process owns the writer lease
}

// Log is an open append-only log. Safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	opts   Options
	rdOnly bool
	closed bool
	stats  Stats
}

// Open opens (creating if needed) the log at path and acquires the
// single-writer flock lease when available. When another process
// already holds the lease the log attaches read-only: Load works, the
// mutating methods return ErrReadOnly, and the file is never truncated
// or appended to. Open does not read the file; call Load.
func Open(path string, opts Options) (*Log, error) {
	if len(opts.Magic) != 4 {
		return nil, fmt.Errorf("wal: magic %q must be exactly 4 bytes", opts.Magic)
	}
	if opts.MaxPayload == 0 {
		opts.MaxPayload = DefaultMaxPayload
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{f: f, path: path, opts: opts}
	// Single-writer lease: first process in owns appends; later ones
	// degrade to read-only followers instead of interleaving writes.
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		l.rdOnly = true
		l.stats.ReadOnly = true
	}
	// Position the writer for appends even before any Load: stamp the
	// header on a fresh file, else write after the existing bytes (a
	// torn tail, if any, is reclaimed by the first Load).
	if !l.rdOnly {
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		if st.Size() == 0 {
			if _, err := f.Write(l.header()); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: %w", err)
			}
		} else if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	return l, nil
}

// Load scans the log from the start, calling fn with each intact
// payload in append order. An empty file gets its header stamped (by
// the writer); a foreign or torn header counts as whole-file
// corruption and the writer starts the file over. A frame with a bad
// CRC but an in-bounds length and a fully readable payload counts one
// corruption and is skipped; the scan continues with the next frame. A
// corrupt suffix — torn frame, out-of-bounds length, or fn rejecting
// the payload — stops the scan and counts one corruption. Everything
// after the last intact entry (that suffix, and any skipped frames
// with no intact entry after them) is truncated away by the writer so
// the next append lands on an intact boundary; readers only skip,
// since truncating without the lease would race the writer. Loading
// again rescans everything; callers that keep state must reset it in
// fn or before calling.
func (l *Log) Load(fn func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	l.stats.Loaded = 0
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	st, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if st.Size() == 0 {
		// Fresh file: the writer stamps the header now so appends can
		// assume it exists; a reader of an empty file just has nothing.
		if !l.rdOnly {
			if _, err := l.f.Write(l.header()); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
		return nil
	}
	var hdr [8]byte
	if _, err := io.ReadFull(l.f, hdr[:]); err != nil || string(hdr[:4]) != l.opts.Magic ||
		binary.LittleEndian.Uint32(hdr[4:]) != l.opts.Version {
		// A file that is not ours (or a torn header) is wholly corrupt:
		// the writer starts over, a reader loads nothing.
		l.stats.Corruptions++
		if !l.rdOnly {
			if err := l.f.Truncate(0); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			if _, err := l.f.Seek(0, io.SeekStart); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			if _, err := l.f.Write(l.header()); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
		return nil
	}
	good := int64(len(hdr)) // end of the last intact entry
	off := good             // end of the last frame read in full
	var lenb [8]byte
	for {
		if _, err := io.ReadFull(l.f, lenb[:]); err != nil {
			if err != io.EOF {
				l.stats.Corruptions++ // torn length/CRC prefix
			}
			break
		}
		plen := binary.LittleEndian.Uint32(lenb[:4])
		crc := binary.LittleEndian.Uint32(lenb[4:])
		if plen == 0 || plen > uint32(l.opts.MaxPayload) {
			l.stats.Corruptions++
			break
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(l.f, payload); err != nil {
			l.stats.Corruptions++ // truncated tail
			break
		}
		off += int64(len(lenb)) + int64(plen)
		if crc32.ChecksumIEEE(payload) != crc {
			l.stats.Corruptions++ // flipped bits: skip this frame only
			continue
		}
		if err := fn(payload); err != nil {
			l.stats.Corruptions++ // undecodable record
			break
		}
		l.stats.Loaded++
		good = off
	}
	// Skip-and-truncate recovery: the writer drops the corrupt suffix
	// so the next append lands on an intact boundary.
	if !l.rdOnly {
		if err := l.f.Truncate(good); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		if _, err := l.f.Seek(good, io.SeekStart); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

func (l *Log) header() []byte {
	hdr := make([]byte, 8)
	copy(hdr[:4], l.opts.Magic)
	binary.LittleEndian.PutUint32(hdr[4:], l.opts.Version)
	return hdr
}

// frame returns the length+CRC prefix for a payload.
func frame(payload []byte) [8]byte {
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(pre[4:], crc32.ChecksumIEEE(payload))
	return pre
}

// Append durably appends one entry: framed, CRC'd, written and synced.
// Returns ErrReadOnly when this handle does not hold the writer lease.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(payload, true)
}

// AppendBatch appends every payload in one buffered write, without an
// fsync — the caller chose throughput over per-entry durability (the
// solver-cache flusher; a crash costs at most the unsynced tail, which
// the next load recovers from).
func (l *Log) AppendBatch(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(payloads) == 0 {
		return nil
	}
	if err := l.writeCheckLocked(); err != nil {
		return err
	}
	var buf []byte
	for _, payload := range payloads {
		if len(payload) == 0 || len(payload) > l.opts.MaxPayload {
			return fmt.Errorf("wal: entry size %d outside (0, %d]", len(payload), l.opts.MaxPayload)
		}
		pre := frame(payload)
		buf = append(buf, pre[:]...)
		buf = append(buf, payload...)
	}
	if err := l.writeFramedLocked(buf); err != nil {
		return err
	}
	l.stats.Appended += int64(len(payloads))
	return nil
}

func (l *Log) appendLocked(payload []byte, sync bool) error {
	if err := l.writeCheckLocked(); err != nil {
		return err
	}
	if len(payload) == 0 || len(payload) > l.opts.MaxPayload {
		return fmt.Errorf("wal: entry size %d outside (0, %d]", len(payload), l.opts.MaxPayload)
	}
	pre := frame(payload)
	if err := l.writeFramedLocked(append(pre[:], payload...)); err != nil {
		return err
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.stats.Appended++
	return nil
}

func (l *Log) writeCheckLocked() error {
	if l.closed {
		return errors.New("wal: closed")
	}
	if l.rdOnly {
		return ErrReadOnly
	}
	return nil
}

// writeFramedLocked lands one or more already-framed entries on disk,
// realizing any injected I/O fault. A failed (or injected short) write
// is truncated back to the pre-write offset, the way a careful writer
// recovers from a partial write, so the log stays appendable.
func (l *Log) writeFramedLocked(buf []byte) error {
	switch l.opts.Inject.Fire(faultinject.SiteWAL) {
	case faultinject.KindLease:
		return ErrReadOnly
	case faultinject.KindShortWrite:
		off, err := l.f.Seek(0, io.SeekCurrent)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.f.Write(buf[:len(buf)/2])
		if err := l.f.Truncate(off); err != nil {
			return fmt.Errorf("wal: truncate after short write: %w", err)
		}
		if _, err := l.f.Seek(off, io.SeekStart); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		return &InjectedError{Kind: faultinject.KindShortWrite}
	case faultinject.KindCRCFlip:
		// Silent bit rot: the write is acknowledged but the checksum on
		// disk is wrong, so the next Load detects exactly one corruption
		// and skips the frame (the writer truncates it while it is the
		// tail).
		buf = append([]byte(nil), buf...)
		buf[4] ^= 0x01
	}
	off, err := l.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.f.Write(buf); err != nil {
		l.f.Truncate(off)
		l.f.Seek(off, io.SeekStart)
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Rewrite replaces the whole log atomically with the given payloads:
// header and entries are written to a temp file in the same directory,
// the flock lease moves to the new inode, the temp file is synced and
// renamed over the log. On any failure the original file is untouched.
func (l *Log) Rewrite(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeCheckLocked(); err != nil {
		return err
	}
	kind := l.opts.Inject.Fire(faultinject.SiteWAL)
	switch kind {
	case faultinject.KindLease:
		return ErrReadOnly
	case faultinject.KindShortWrite:
		// A torn rewrite never replaces the log: the temp file is
		// discarded and the original stays intact.
		return &InjectedError{Kind: faultinject.KindShortWrite}
	}
	tmp, err := os.CreateTemp(filepath.Dir(l.path), "."+filepath.Base(l.path)+"-rewrite-*")
	if err != nil {
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	buf := l.header()
	for _, payload := range payloads {
		if len(payload) == 0 || len(payload) > l.opts.MaxPayload {
			tmp.Close()
			return fmt.Errorf("wal: entry size %d outside (0, %d]", len(payload), l.opts.MaxPayload)
		}
		pre := frame(payload)
		buf = append(buf, pre[:]...)
		buf = append(buf, payload...)
	}
	if kind == faultinject.KindCRCFlip && len(payloads) > 0 {
		// Silent bit rot in the rewritten log's first entry: detected as
		// one corruption (losing the tail) on the next Load.
		buf[12] ^= 0x01
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	// Move the flock lease to the new inode before it becomes the file.
	if err := syscall.Flock(int(tmp.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: rewrite lease: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	l.f.Close()
	l.f = tmp
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Rewrites++
	return nil
}

// Sync flushes buffered appends (AppendBatch) to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeCheckLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Stats returns load/append/corruption counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// ReadOnly reports whether this handle lost the writer-lease race.
func (l *Log) ReadOnly() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rdOnly
}

// Path returns the backing file path.
func (l *Log) Path() string { return l.path }

// Close releases the writer lease (if held) and the file handle.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close() // releases the flock lease
}
