// Publication-order invariants of the job lifecycle (docs/service.md):
// a job's terminal state becomes visible to observers — Client.Wait,
// a ?wait=1 results stream, the SSE done event — only after its
// "finished" journal record and its ledger record are written, and no
// runner touches a job before its "submitted" record is.
package service_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/obs"

	. "repro/internal/service"
)

// syncBuffer is a log sink that observers read while the server writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// journalRec is the subset of a journal record the invariants read.
type journalRec struct {
	Type string `json:"type"`
	ID   string `json:"id"`
}

// rawJournal reads the job journal's frames in file order straight from
// disk, while the server may still be appending. It stops at the first
// incomplete frame. Frame checksums are not verified: a frame whose
// checksum the fault injector flipped was still written in full before
// the append returned, which is the ordering these tests check.
func rawJournal(t *testing.T, dir string) []journalRec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "journal.sxjl"))
	if err != nil {
		t.Fatal(err)
	}
	var out []journalRec
	for off := 8; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || off+8+n > len(data) {
			break
		}
		var rec journalRec
		if json.Unmarshal(data[off+8:off+8+n], &rec) == nil {
			out = append(out, rec)
		}
		off += 8 + n
	}
	return out
}

// TestTerminalStatePublishedAfterDurableWrites: with injected wal
// faults (short writes, checksum flips, lost leases) hitting journal
// appends and checkpoints, every observer that sees a job terminal must
// find the job's finished record already in the journal — or the failed
// append already logged — and, for a done job, its run already in the
// ledger at /v1/runs.
func TestTerminalStatePublishedAfterDurableWrites(t *testing.T) {
	dir := t.TempDir()
	logs := &syncBuffer{}
	inj := faultinject.New(5, 3).Enable(faultinject.SiteWAL,
		faultinject.KindShortWrite, faultinject.KindCRCFlip, faultinject.KindLease)
	srv, hs, c := startServer(t, Config{
		MaxConcurrent:      1,
		Obs:                obs.New(),
		StateDir:           dir,
		LedgerDir:          t.TempDir(),
		CheckpointInterval: time.Millisecond,
		SnapshotInterval:   time.Millisecond,
		Inject:             inj,
		Logger:             slog.New(slog.NewTextHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	defer srv.Close()
	defer hs.Close()

	inLedger := func(id string) bool {
		runs, err := c.Runs("")
		if err != nil {
			t.Errorf("/v1/runs: %v", err)
			return false
		}
		for _, r := range runs.Runs {
			if r.Label == id {
				return true
			}
		}
		return false
	}
	// check asserts the invariant for one observation of a terminal job.
	check := func(observer, id, state string) {
		if state != StateDone && state != StateFailed && state != StateCanceled {
			t.Errorf("%s: job %s observed in non-terminal state %q", observer, id, state)
			return
		}
		// The ledger first: it is written last, so a premature
		// publication shows there soonest.
		if state == StateDone && !inLedger(id) {
			t.Errorf("%s: job %s observed done before its ledger record", observer, id)
		}
		for _, rec := range rawJournal(t, dir) {
			if rec.ID == id && rec.Type == "finished" {
				return
			}
		}
		if !strings.Contains(logs.String(), "type=finished job="+id) {
			t.Errorf("%s: job %s observed %s before its finished journal record (or the failed append) was written",
				observer, id, state)
		}
	}

	// Short crash-safe explorations, plus one long solver-bound needle
	// search whose large profile makes the ledger record the slowest
	// write to land.
	image := buildImage(t, "tiny32", crashSrc)
	needle := buildImage(t, "tiny32", harness.Needle("tiny32", []byte("abcdefghijkl")))
	var wg sync.WaitGroup
	var ids []string
	for i := 0; i < 6; i++ {
		spec := crashSpec(image)
		if i == 2 {
			spec = JobSpec{Image: needle, MaxPaths: 4096, MaxSteps: 200000, Inputs: 16}
		}
		st, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		id := st.ID
		ids = append(ids, id)
		if i == 5 {
			// Likely still queued behind the others: exercises the
			// canceled-while-queued path.
			if _, err := c.Cancel(id); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(3)
		go func() {
			defer wg.Done()
			fin, err := c.Wait(id, 60*time.Second)
			if err != nil {
				t.Errorf("wait %s: %v", id, err)
				return
			}
			check("Wait", id, fin.Status)
		}()
		go func() {
			defer wg.Done()
			if _, err := c.Results(id, true); err != nil {
				t.Errorf("results %s: %v", id, err)
				return
			}
			// The stream ended, so the job is terminal; read which state
			// it ended in.
			st, err := c.Status(id)
			if err != nil {
				t.Errorf("status %s: %v", id, err)
				return
			}
			check("results ?wait=1", id, st.Status)
		}()
		go func() {
			defer wg.Done()
			_, err := c.StreamEvents(id, 60*time.Second, func(name string, ev ProgressEvent) bool {
				if name == "done" {
					check("SSE done", id, ev.State)
				}
				return true
			})
			if err != nil {
				t.Errorf("events %s: %v", id, err)
			}
		}()
	}
	wg.Wait()
	fired := inj.Fired(faultinject.SiteWAL, faultinject.KindShortWrite) +
		inj.Fired(faultinject.SiteWAL, faultinject.KindCRCFlip) +
		inj.Fired(faultinject.SiteWAL, faultinject.KindLease)
	if fired == 0 {
		t.Error("no wal fault fired: the invariant was not tested under injection")
	}
	t.Logf("%d wal faults fired over %d jobs", fired, len(ids))
}

// TestJournalSubmittedBeforeStart: the journal holds every job's
// submitted record ahead of anything a runner appends for it, even when
// idle runners pick jobs up the moment they are queued.
func TestJournalSubmittedBeforeStart(t *testing.T) {
	dir := t.TempDir()
	srv, hs, c := startServer(t, Config{MaxConcurrent: 4, Obs: obs.New(), StateDir: dir})
	defer srv.Close()
	defer hs.Close()

	image := buildImage(t, "tiny32", "_start:\n\thalt\n")
	var ids []string
	for i := 0; i < 16; i++ {
		st, err := c.Submit(JobSpec{Image: image})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if _, err := c.Wait(id, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	first := map[string]string{}
	var order []string
	for _, rec := range rawJournal(t, dir) {
		if _, seen := first[rec.ID]; !seen {
			first[rec.ID] = rec.Type
		}
		order = append(order, fmt.Sprintf("%s:%s", rec.ID, rec.Type))
	}
	for _, id := range ids {
		if first[id] != "submitted" {
			t.Errorf("job %s: first journal record is %q, want submitted\njournal: %v", id, first[id], order)
		}
	}
}
