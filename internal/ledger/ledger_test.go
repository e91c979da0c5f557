package ledger

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testRecord(digest string, wall time.Duration, i int) Record {
	return Record{
		Time:          1700000000 + int64(i),
		Source:        "symex",
		Label:         "t",
		Digest:        digest,
		ISA:           "tiny32",
		WallNS:        int64(wall),
		SolverNS:      int64(wall / 3),
		Instructions:  100 + int64(i),
		Paths:         int64(8 + i),
		Forks:         int64(7 + i),
		SolverQueries: 20,
		CacheHits:     15,
		CacheMisses:   5,
		Degraded:      map[string]int64{"branch-deadline": int64(i)},
		Coverage:      map[string]float64{"decode": 0.5, "sym": 0.25},
		CoverageAddrs: int64(40 + i),
		Hotspots:      []Hotspot{{PC: 0x100, Insn: "beq", Execs: 12, SolverNS: 5000}},
	}
}

// TestLedgerRoundTrip appends, closes, reopens, and expects every
// record back bit-for-bit, in order.
func TestLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		testRecord("d1", 5*time.Millisecond, 0),
		testRecord("d2", 7*time.Millisecond, 1),
		testRecord("d1", 6*time.Millisecond, 2),
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Loaded != len(want) || st.Corruptions != 0 || st.ReadOnly {
		t.Fatalf("reopen stats = %+v", st)
	}
	got := l2.Records()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Digest != want[i].Digest || got[i].WallNS != want[i].WallNS ||
			got[i].Degraded["branch-deadline"] != want[i].Degraded["branch-deadline"] ||
			got[i].Coverage["sym"] != want[i].Coverage["sym"] ||
			len(got[i].Hotspots) != 1 || got[i].Hotspots[0].PC != 0x100 {
			t.Errorf("record %d mismatch: got %+v want %+v", i, got[i], want[i])
		}
	}
	if d1 := l2.ByDigest("d1"); len(d1) != 2 {
		t.Errorf("ByDigest(d1) = %d records, want 2", len(d1))
	}
	if ds := l2.Digests(); len(ds) != 2 || ds[0] != "d1" || ds[1] != "d2" {
		t.Errorf("Digests() = %v", ds)
	}
}

// TestLedgerEmptyColdStart opens a fresh directory: no records, no
// corruption, writable, and the header is stamped so a follower can
// attach immediately.
func TestLedgerEmptyColdStart(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Loaded != 0 || st.Corruptions != 0 || st.ReadOnly {
		t.Fatalf("cold-start stats = %+v", st)
	}
	if n := len(l.Records()); n != 0 {
		t.Fatalf("cold start loaded %d records", n)
	}
	fi, err := os.Stat(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 8 {
		t.Fatalf("fresh file size = %d, want 8-byte header", fi.Size())
	}
}

// TestLedgerTruncatedTail cuts the file mid-entry; reopening must keep
// the intact prefix, count one corruption, truncate the torn suffix,
// and accept new appends cleanly.
func TestLedgerTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(testRecord("d", 5*time.Millisecond, i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	path := filepath.Join(dir, FileName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := l2.Stats()
	if st.Loaded != 3 || st.Corruptions != 1 {
		t.Fatalf("after torn tail: stats = %+v, want 3 loaded / 1 corruption", st)
	}
	// The writer truncated the torn suffix: an append must extend a
	// clean boundary and survive another reopen.
	if err := l2.Append(testRecord("d", 5*time.Millisecond, 9)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if st := l3.Stats(); st.Loaded != 4 || st.Corruptions != 0 {
		t.Fatalf("after repair+append: stats = %+v, want 4 loaded / 0 corruptions", st)
	}
}

// TestLedgerFlippedCRC flips one payload byte in the middle of the
// file; only that entry is lost (its frame fails its checksum and is
// skipped) and the entries after it still load — the wal contract
// shared with smt/persist and the job journal.
func TestLedgerFlippedCRC(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for i := 0; i < 4; i++ {
		if err := l.Append(testRecord("d", 5*time.Millisecond, i)); err != nil {
			t.Fatal(err)
		}
		fi, _ := os.Stat(l.Path())
		offsets = append(offsets, fi.Size())
	}
	l.Close()

	// Flip a byte inside entry 2's payload (after entry 1's end plus
	// the 8-byte frame prefix).
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := offsets[1] + 8 + 3
	var b [1]byte
	if _, err := f.ReadAt(b[:], pos); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], pos); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Loaded != 3 || st.Corruptions != 1 {
		t.Fatalf("after flipped byte: stats = %+v, want 3 loaded / 1 corruption", st)
	}
}

// TestLedgerForeignFile overwrites the header with garbage: the writer
// treats the file as wholly corrupt and starts over.
func TestLedgerForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	if err := os.WriteFile(path, []byte("this is not a ledger file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Loaded != 0 || st.Corruptions != 1 {
		t.Fatalf("foreign file: stats = %+v, want 0 loaded / 1 corruption", st)
	}
	if err := l.Append(testRecord("d", time.Millisecond, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerWriterLease opens the same directory twice: the second
// handle attaches read-only, fails Append with ErrReadOnly, and
// follows the writer's appends via Reload.
func TestLedgerWriterLease(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(testRecord("d", time.Millisecond, 0)); err != nil {
		t.Fatal(err)
	}

	ro, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if !ro.ReadOnly() {
		t.Fatal("second opener got the writer lease")
	}
	if err := ro.Append(testRecord("d", time.Millisecond, 1)); err != ErrReadOnly {
		t.Fatalf("read-only Append err = %v, want ErrReadOnly", err)
	}
	if n := len(ro.Records()); n != 1 {
		t.Fatalf("follower loaded %d records, want 1", n)
	}

	// The writer appends; the follower reloads and sees it.
	if err := w.Append(testRecord("d", time.Millisecond, 2)); err != nil {
		t.Fatal(err)
	}
	if err := ro.Reload(); err != nil {
		t.Fatal(err)
	}
	if n := len(ro.Records()); n != 2 {
		t.Fatalf("after Reload follower has %d records, want 2", n)
	}

	// Lease releases on Close: a fresh opener becomes the writer again.
	w.Close()
	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.ReadOnly() {
		t.Fatal("lease not released by Close")
	}
}

// TestLedgerConcurrentAppend hammers one writer from many goroutines;
// every record must land and reload intact. (The interesting race —
// two *processes* — is covered by the flock lease test; this one is
// the -race workout for the in-process mutex.)
func TestLedgerConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(testRecord("d", time.Millisecond, g*per+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	l.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Loaded != goroutines*per || st.Corruptions != 0 {
		t.Fatalf("reload stats = %+v, want %d loaded", st, goroutines*per)
	}
}
