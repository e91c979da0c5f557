// In-package test for the incremental JSONL results stream: a ?wait=1
// client must see each event as it is emitted (per-record flush), not
// buffered until the job ends. The job here is a hand-built slow
// two-result job — the producer refuses to emit the second event until
// the client has observed the first, so the test deadlocks (and times
// out) if the handler buffers.
package service

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
)

func TestResultsStreamIncremental(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j := newJob(nil, nil, "explore", core.Options{}, nil, 0)
	j.id = "j-slow"
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	firstSeen := make(chan struct{})
	go func() {
		j.setRunning()
		j.emit(Event{Type: "path", Path: &PathEvent{ID: 1}})
		// Block until the client has read event 1 off the wire. Only a
		// flushing handler lets that happen while the job is still live.
		select {
		case <-firstSeen:
		case <-time.After(10 * time.Second):
			t.Error("client never observed the first event: results stream is buffering")
		}
		j.emit(Event{Type: "path", Path: &PathEvent{ID: 2}})
		j.finish(StateDone, nil, &JobStats{Paths: 2})
		j.publish()
	}()

	resp, err := hs.Client().Get(hs.URL + "/v1/jobs/j-slow/results?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var ids []int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if ev.Type != "path" || ev.Path == nil {
			t.Fatalf("unexpected event %+v", ev)
		}
		ids = append(ids, ev.Path.ID)
		if len(ids) == 1 {
			close(firstSeen)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("streamed path IDs %v, want [1 2]", ids)
	}
}

// TestResultsStreamCanceledWhileQueued: a streamer waiting on a queued
// job must wake and terminate when the job is canceled before it ever
// runs — the canceled transition is a wakeup like any other.
func TestResultsStreamCanceledWhileQueued(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j := newJob(nil, nil, "explore", core.Options{}, nil, 0)
	j.id = "j-queued"
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	done := make(chan error, 1)
	go func() {
		resp, err := hs.Client().Get(hs.URL + "/v1/jobs/j-queued/results?wait=1")
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
		done <- sc.Err()
	}()

	time.Sleep(20 * time.Millisecond) // let the streamer block on the wakeup
	j.requestCancel()
	if !j.canceledEarly() {
		t.Fatal("job did not cancel while queued")
	}
	j.publish()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream ended with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("results stream did not terminate after queued-job cancel")
	}
}
