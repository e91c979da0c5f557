// Structured exploration tracing: a bounded, concurrency-safe buffer of
// per-path lifecycle events (spawn, fork, branch-feasibility verdicts
// with solver time, kills with reason, path ends) that can be dumped as
// JSONL for machine consumption or as Chrome trace_event JSON, which
// chrome://tracing and Perfetto open as a per-worker timeline.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one trace record. Timestamps and durations are microseconds
// relative to the tracer's start, matching the Chrome trace_event clock.
type Event struct {
	TS     int64  `json:"ts"`               // µs since trace start
	Dur    int64  `json:"dur,omitempty"`    // span length in µs (0 = instant)
	Worker int    `json:"w"`                // exploration worker (0 in serial runs)
	Path   int    `json:"path"`             // state/path ID
	PC     uint64 `json:"pc"`               // program counter, when meaningful
	Kind   string `json:"kind"`             // spawn | fork | branch | kill | end | exec | ...
	Detail string `json:"detail,omitempty"` // verdict, kill reason, end status, ...
	Job    string `json:"job,omitempty"`    // owning service job, via Scoped
}

// DefaultTraceCap bounds the in-memory event buffer; events past the cap
// are dropped and counted, so a runaway soak cannot exhaust memory.
const DefaultTraceCap = 1 << 18

// Tracer collects events from any number of goroutines. The zero-cost
// off switch is a nil *Tracer: every method is nil-receiver safe.
// Scoped views share one underlying buffer while stamping a job
// correlation key on everything they record, so concurrent daemon jobs
// writing into one trace stay attributable.
type Tracer struct {
	buf *traceBuf
	job string
}

// traceBuf is the shared bounded event buffer behind a tracer and all
// its scoped views.
type traceBuf struct {
	mu      sync.Mutex
	start   time.Time
	events  []Event
	cap     int
	dropped int64
}

// NewTracer returns a tracer whose clock starts now, with the default
// buffer cap.
func NewTracer() *Tracer {
	return &Tracer{buf: &traceBuf{start: time.Now(), cap: DefaultTraceCap}}
}

// Scoped returns a view of the same tracer that stamps every recorded
// event with the given job ID (the service's correlation key). An
// empty job returns the tracer unchanged; a nil tracer stays nil.
func (t *Tracer) Scoped(job string) *Tracer {
	if t == nil || job == "" {
		return t
	}
	return &Tracer{buf: t.buf, job: job}
}

// SetCap changes the maximum number of buffered events.
func (t *Tracer) SetCap(n int) {
	if t == nil {
		return
	}
	t.buf.mu.Lock()
	t.buf.cap = n
	t.buf.mu.Unlock()
}

// Reset drops all buffered events and restarts the clock.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.buf.mu.Lock()
	t.buf.events = t.buf.events[:0]
	t.buf.dropped = 0
	t.buf.start = time.Now()
	t.buf.mu.Unlock()
}

// Append records a fully formed event (used by encoders' tests and by
// callers that manage their own timestamps).
func (t *Tracer) Append(ev Event) {
	if t == nil {
		return
	}
	if ev.Job == "" {
		ev.Job = t.job
	}
	t.buf.mu.Lock()
	if len(t.buf.events) >= t.buf.cap {
		t.buf.dropped++
	} else {
		t.buf.events = append(t.buf.events, ev)
	}
	t.buf.mu.Unlock()
}

// now returns the µs-since-start timestamp.
func (t *Tracer) now() int64 { return int64(time.Since(t.buf.start) / time.Microsecond) }

// Event records an instant event stamped now.
func (t *Tracer) Event(kind string, worker, path int, pc uint64, detail string) {
	if t == nil {
		return
	}
	t.Append(Event{TS: t.now(), Worker: worker, Path: path, PC: pc, Kind: kind, Detail: detail})
}

// Span records an event that began at begin and ends now.
func (t *Tracer) Span(kind string, worker, path int, pc uint64, begin time.Time, detail string) {
	if t == nil {
		return
	}
	ts := int64(begin.Sub(t.buf.start) / time.Microsecond)
	if ts < 0 {
		ts = 0
	}
	dur := int64(time.Since(begin) / time.Microsecond)
	if dur < 1 {
		dur = 1 // Chrome drops zero-length complete events
	}
	t.Append(Event{TS: ts, Dur: dur, Worker: worker, Path: path, PC: pc, Kind: kind, Detail: detail})
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.buf.mu.Lock()
	defer t.buf.mu.Unlock()
	return len(t.buf.events)
}

// Dropped returns the number of events lost to the buffer cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.buf.mu.Lock()
	defer t.buf.mu.Unlock()
	return t.buf.dropped
}

// Events returns a copy of the buffered events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.buf.mu.Lock()
	defer t.buf.mu.Unlock()
	return append([]Event(nil), t.buf.events...)
}

// WriteJSONL writes one JSON object per line, in emission order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one trace_event record; field names are fixed by the
// Chrome trace format.
type chromeEvent struct {
	Name  string                 `json:"name"`
	Phase string                 `json:"ph"`
	TS    int64                  `json:"ts"`
	Dur   int64                  `json:"dur,omitempty"`
	PID   int                    `json:"pid"`
	TID   int                    `json:"tid"`
	Scope string                 `json:"s,omitempty"`
	Args  map[string]interface{} `json:"args,omitempty"`
}

// WriteChrome writes the buffered events in Chrome trace_event JSON
// ({"traceEvents": [...]}), loadable by chrome://tracing and Perfetto.
// Spans become complete ("X") events and instants become thread-scoped
// instant ("i") events; workers map to threads of one process, each
// named by a metadata event.
func (t *Tracer) WriteChrome(w io.Writer) error {
	events := t.Events()
	out := make([]chromeEvent, 0, len(events)+4)
	workers := map[int]bool{}
	for _, ev := range events {
		workers[ev.Worker] = true
	}
	for wk := range workers {
		name := fmt.Sprintf("worker %d", wk)
		if wk < 0 {
			name = "engine" // events not attributable to one worker
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: wk + 1,
			Args: map[string]interface{}{"name": name},
		})
	}
	// Metadata order must be stable for golden tests.
	sortChromeMeta(out)
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Kind, TS: ev.TS, PID: 1, TID: ev.Worker + 1,
			Args: map[string]interface{}{"path": ev.Path},
		}
		if ev.PC != 0 {
			ce.Args["pc"] = fmt.Sprintf("%#x", ev.PC)
		}
		if ev.Detail != "" {
			ce.Args["detail"] = ev.Detail
		}
		if ev.Job != "" {
			ce.Args["job"] = ev.Job
		}
		if ev.Dur > 0 {
			ce.Phase, ce.Dur = "X", ev.Dur
		} else {
			ce.Phase, ce.Scope = "i", "t"
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]interface{}{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	})
}

// sortChromeMeta orders the leading thread_name metadata events by tid.
func sortChromeMeta(meta []chromeEvent) {
	for i := 1; i < len(meta); i++ {
		for j := i; j > 0 && meta[j].TID < meta[j-1].TID; j-- {
			meta[j], meta[j-1] = meta[j-1], meta[j]
		}
	}
}

// WriteChromeFile writes the Chrome trace to a file.
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
