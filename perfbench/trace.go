package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/profile"
)

// Span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Spans of one unit share Unit;
// Parent names the enclosing span of the same unit ("" at the top).
// Reported spans carry durations the program measured itself (the
// solver split inside core.run): the program gives only their totals, so
// they are laid back to back from the parent's start.
type Span struct {
	Name     string `json:"name"`
	Unit     int    `json:"unit"`
	Parent   string `json:"parent,omitempty"`
	StartNS  int64  `json:"start_ns"` // since the tracer's origin
	DurNS    int64  `json:"dur_ns"`
	Reported bool   `json:"reported,omitempty"`
}

func (s Span) end() int64 { return s.StartNS + s.DurNS }

// Tracer keeps spans in memory; they are written once, at the end.
// A nil *Tracer records nothing, so the untraced runs pay one nil test
// per call site. The symexd clients record from their own goroutines.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// span records a completed call that started at t0.
func (t *Tracer) span(name string, unit int, parent string, t0 time.Time) {
	if t == nil {
		return
	}
	sp := Span{Name: name, Unit: unit, Parent: parent, StartNS: int64(t0.Sub(t.origin)), DurNS: int64(time.Since(t0))}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// reported adds program-reported child durations under the last span
// recorded for (parent, unit), back to back from its start.
func (t *Tracer) reported(parent string, unit int, children []Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		p := t.spans[i]
		if p.Name != parent || p.Unit != unit {
			continue
		}
		at := p.StartNS
		for _, c := range children {
			c.Unit, c.Parent, c.StartNS, c.Reported = unit, parent, at, true
			at += c.DurNS
			t.spans = append(t.spans, c)
		}
		return
	}
}

// selfNS is a span's duration minus the part of its interval that its
// children cover (overlapping children count once).
func selfNS(parent Span, children []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.StartNS, parent.StartNS), min(c.end(), parent.end())
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, hi int64 = 0, parent.StartNS
	for _, v := range ivs {
		if v.b <= hi {
			continue
		}
		covered += v.b - max(v.a, hi)
		hi = v.b
	}
	return parent.DurNS - covered
}

// layerTimes sums, per span name, total duration and self time over all
// units, and returns the largest |children + self - duration| over the
// spans that have children (0 when the arithmetic closes).
func (t *Tracer) layerTimes() (total, self map[string]int64, residual int64) {
	total, self = map[string]int64{}, map[string]int64{}
	type key struct {
		unit int
		name string
	}
	kids := map[key][]Span{}
	for _, s := range t.spans {
		if s.Parent != "" {
			kids[key{s.Unit, s.Parent}] = append(kids[key{s.Unit, s.Parent}], s)
		}
	}
	for _, s := range t.spans {
		total[s.Name] += s.DurNS
		ch := kids[key{s.Unit, s.Name}]
		sf := selfNS(s, ch)
		self[s.Name] += sf
		if len(ch) > 0 {
			var sum int64
			for _, c := range ch {
				sum += c.DurNS
			}
			if r := sum + sf - s.DurNS; r > residual || -r > residual {
				residual = max(r, -r)
			}
		}
	}
	return total, self, residual
}

// write stores the spans as JSON lines at path.
func (t *Tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// cpuBuckets are the layers the sampled CPU profile is split into, most
// specific package prefix first; everything else is "other".
var cpuBuckets = []struct{ name, prefix string }{
	{"smt_sat", "repro/internal/smt/sat."},
	{"smt", "repro/internal/smt."},
	{"expr", "repro/internal/expr."},
	{"rtl", "repro/internal/rtl."},
	{"decoder", "repro/internal/decoder."},
	{"core", "repro/internal/core."},
	{"service", "repro/internal/service."},
	{"net_http", "net/http."},
	{"net", "net."},
	{"syscall", "syscall."},            // file I/O and fsync of the wal layer, sockets
	{"maps", "internal/runtime/maps."}, // Go map operations, whoever calls them
	{"runtime", "runtime."},
}

func bucketOf(fn string) string {
	for _, b := range cpuBuckets {
		if strings.HasPrefix(fn, b.prefix) {
			return b.name
		}
	}
	return "other"
}

// cpuProfile samples the process with runtime/pprof between start and
// stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	return p, pprof.StartCPUProfile(&p.buf)
}

// stop ends sampling and returns each bucket's share of the sampled
// self CPU time (leaf frames only), decoded with internal/profile.Parse.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	parsed, err := profile.Parse(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	idx := len(parsed.SampleTypes) - 1 // cpu nanoseconds, after the sample count
	for i, vt := range parsed.SampleTypes {
		if vt.Type == "cpu" {
			idx = i
		}
	}
	shares := map[string]float64{"other": 0}
	for _, b := range cpuBuckets {
		shares[b.name] = 0
	}
	var total float64
	for _, s := range parsed.Samples {
		if idx < 0 || idx >= len(s.Values) {
			continue
		}
		v := float64(s.Values[idx])
		shares[bucketOf(s.Func)] += v
		total += v
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}
