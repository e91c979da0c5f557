// Exploration checkpoint/resume (docs/robustness.md, docs/service.md).
//
// A Snapshot captures everything a one-worker exploration needs to
// continue after a process crash: the completed paths, the bug list,
// the per-pc visit counts, the ID allocator and — the expensive part —
// the live set, each state's symbolic registers, memory overlay,
// path condition and output stream. All expression terms are flattened
// through the internal/expr wire format into one deterministic blob;
// the JSON metadata references terms by root index, so rehydration is a
// single expr.Parse into the resuming engine's builder followed by
// pointer wiring.
//
// Resume is bit-identical for deterministic strategies (DFS, BFS,
// Coverage): the frontier order, path signatures and ID allocator are
// restored exactly, so the remainder of the exploration completes the
// same paths with the same IDs, statuses and signatures as an
// uninterrupted run. Strategy Random resumes correctly but not
// bit-identically (the rng state is not serialized). Parallel runs
// (Workers > 1) do not checkpoint — their schedule is nondeterministic
// anyway — and Run rejects Resume for them; the service layer restarts
// such jobs from scratch instead. PathResult.End (CaptureEndState) is
// not serialized: restored completed paths carry End == nil.
package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/bv"
	"repro/internal/expr"
	"repro/internal/prog"
)

// Snapshot file framing: "SXCK" | u32 version | u32 crc32(payload) |
// payload, where payload = u32 metaLen | meta JSON | u32 npaths |
// binary path records | u32 exprsLen | raw expr blob. Completed paths
// dominate a late-run snapshot (the frontier shrinks, the path list
// only grows) and are flat scalars plus root-index slices, so they get
// a dense binary encoding instead of JSON: checkpoints are written on
// a wall-clock pace and their cost is bounded by encoding throughput.
// The CRC makes torn or bit-rotted checkpoint files fail closed in
// UnmarshalSnapshot.
const (
	snapMagic   = "SXCK"
	snapVersion = 1
)

// ErrSnapshotMismatch is wrapped by resume errors caused by a snapshot
// taken for a different architecture or program image.
var ErrSnapshotMismatch = errors.New("core: snapshot does not match this engine's architecture/program")

// SnapPath is one completed path in a Snapshot. Cond and Out reference
// roots of the expression blob by index.
type SnapPath struct {
	ID        int        `json:"id"`
	Status    Status     `json:"status"`
	Fault     string     `json:"fault,omitempty"`
	EndPC     uint64     `json:"end_pc"`
	Steps     int64      `json:"steps"`
	Depth     int        `json:"depth"`
	Sig       uint64     `json:"sig"`
	Cond      []uint32   `json:"cond,omitempty"`
	Out       []uint32   `json:"out,omitempty"`
	PathFault *PathFault `json:"path_fault,omitempty"`
}

// SnapState is one live frontier state in a Snapshot. Regs has one root
// index per architecture register; OverlayAddrs/OverlayVals are the
// symbolic memory overlay as parallel slices in ascending address order
// (deterministic bytes for a given state).
type SnapState struct {
	ID           int      `json:"id"`
	Parent       int      `json:"parent"`
	PC           uint64   `json:"pc"`
	Steps        int64    `json:"steps"`
	Depth        int      `json:"depth"`
	InputCount   int      `json:"input_count"`
	Sig          uint64   `json:"sig"`
	Regs         []uint32 `json:"regs"`
	OverlayAddrs []uint64 `json:"overlay_addrs,omitempty"`
	OverlayVals  []uint32 `json:"overlay_vals,omitempty"`
	Cond         []uint32 `json:"cond,omitempty"`
	Out          []uint32 `json:"out,omitempty"`
}

// Snapshot is a resumable checkpoint of a serial exploration. Produce
// one through Options.Checkpoint, persist it with Marshal, rehydrate
// with UnmarshalSnapshot and hand it to Options.Resume.
type Snapshot struct {
	// Identity of the run the snapshot belongs to; Resume validates all
	// three against the resuming engine.
	Arch    string `json:"arch"`
	Entry   uint64 `json:"entry"`
	ProgSum uint64 `json:"prog_sum"`

	Strategy Strategy `json:"strategy"`

	Stats  Stats            `json:"stats"`
	NextID int              `json:"next_id"`
	Visits map[uint64]int64 `json:"visits,omitempty"`

	// Paths is framed as a binary section by Marshal, not JSON: it is
	// the size-dominant, append-only part of a snapshot.
	Paths []SnapPath `json:"-"`

	Bugs   []Bug       `json:"bugs,omitempty"`
	Faults []PathFault `json:"faults,omitempty"`

	// Frontier is the live state list in exploration-list order — the
	// order is load-bearing for deterministic strategies.
	Frontier []SnapState `json:"frontier"`

	// Exprs is the expr wire blob holding every term the snapshot
	// references. Framed as a raw binary section by Marshal (base64
	// through JSON would cost a third more space and an extra pass).
	Exprs []byte `json:"-"`
}

// progSum fingerprints a program image (FNV-1a over entry and
// segments) so a snapshot cannot be resumed against different code.
func progSum(p *prog.Program) uint64 {
	h := fnv.New64a()
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], p.Entry)
	h.Write(u64[:])
	for _, s := range p.Segments {
		binary.LittleEndian.PutUint64(u64[:], s.Addr)
		h.Write(u64[:])
		binary.LittleEndian.PutUint64(u64[:], uint64(len(s.Data)))
		h.Write(u64[:])
		h.Write(s.Data)
	}
	return h.Sum64()
}

// snapshot captures the engine's one-worker exploration state. live is
// the live set in frontier order, the worker's inline state last;
// elapsed the wall time of this process's leg of the run.
func (e *Engine) snapshot(live []*State, elapsed time.Duration) *Snapshot {
	var roots []*expr.Expr
	ref := func(x *expr.Expr) uint32 {
		roots = append(roots, x)
		return uint32(len(roots) - 1)
	}
	refs := func(xs []*expr.Expr) []uint32 {
		if len(xs) == 0 {
			return nil
		}
		out := make([]uint32, len(xs))
		for i, x := range xs {
			out[i] = ref(x)
		}
		return out
	}

	s := &Snapshot{
		Arch:     e.Arch.Name,
		Entry:    e.Prog.Entry,
		ProgSum:  progSum(e.Prog),
		Strategy: e.Opts.Strategy,
		NextID:   e.nextID,
	}
	s.Visits = make(map[uint64]int64)
	for i := range e.visits.shards { // one worker: nothing runs concurrently
		for pc, n := range e.visits.shards[i].m {
			s.Visits[pc] = n
		}
	}
	s.Bugs = append([]Bug(nil), e.report.Bugs...)
	s.Faults = append([]PathFault(nil), e.report.Faults...)
	for _, p := range e.report.Paths {
		s.Paths = append(s.Paths, SnapPath{
			ID:        p.ID,
			Status:    p.Status,
			Fault:     p.Fault,
			EndPC:     p.EndPC,
			Steps:     p.Steps,
			Depth:     p.Depth,
			Sig:       p.sig,
			Cond:      refs(p.PathCond),
			Out:       refs(p.Output),
			PathFault: p.PathFault,
		})
	}
	s.Frontier = make([]SnapState, 0, len(live))
	for _, st := range live {
		ss := SnapState{
			ID:         st.ID,
			Parent:     st.Parent,
			PC:         st.PC,
			Steps:      st.Steps,
			Depth:      st.Depth,
			InputCount: st.inputCount,
			Sig:        st.sig,
			Regs:       refs(st.regs),
			Cond:       refs(st.PathCond),
			Out:        refs(st.Output),
		}
		if n := st.mem.OverlaySize(); n > 0 {
			ss.OverlayAddrs = make([]uint64, 0, n)
			st.mem.each(func(a uint64, _ *expr.Expr) { ss.OverlayAddrs = append(ss.OverlayAddrs, a) })
			sort.Slice(ss.OverlayAddrs, func(i, j int) bool { return ss.OverlayAddrs[i] < ss.OverlayAddrs[j] })
			ss.OverlayVals = make([]uint32, n)
			for i, a := range ss.OverlayAddrs {
				ss.OverlayVals[i] = ref(st.mem.get(a))
			}
		}
		s.Frontier = append(s.Frontier, ss)
	}

	// Stats mid-run: the deferred end-of-run fills (solver, coverage,
	// compiled counters, wall time) have not happened yet — take them
	// from their live sources.
	e.snapshotCompileStats()
	st := e.report.Stats
	st.Solver = e.Solver.Stats
	st.Coverage = e.visits.distinct()
	st.WallTime = e.resumedWall + elapsed
	s.Stats = st

	s.Exprs = expr.Serialize(roots)
	return s
}

// restore rehydrates a snapshot into this (fresh) engine and returns
// the live set, which seeds the run's frontier in order. The engine must have been built for the same
// architecture and program the snapshot was taken from.
func (e *Engine) restore(s *Snapshot) ([]*State, error) {
	if s.Arch != e.Arch.Name || s.Entry != e.Prog.Entry || s.ProgSum != progSum(e.Prog) {
		return nil, fmt.Errorf("%w: snapshot for %s entry %#x sum %#x, engine has %s entry %#x sum %#x",
			ErrSnapshotMismatch, s.Arch, s.Entry, s.ProgSum, e.Arch.Name, e.Prog.Entry, progSum(e.Prog))
	}
	roots, err := expr.Parse(e.B, s.Exprs)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot expression blob: %w", err)
	}
	get := func(i uint32) (*expr.Expr, error) {
		if int(i) >= len(roots) {
			return nil, fmt.Errorf("core: snapshot references root %d of %d", i, len(roots))
		}
		return roots[i], nil
	}
	gets := func(idx []uint32) ([]*expr.Expr, error) {
		if len(idx) == 0 {
			return nil, nil
		}
		out := make([]*expr.Expr, len(idx))
		for i, r := range idx {
			x, err := get(r)
			if err != nil {
				return nil, err
			}
			out[i] = x
		}
		return out, nil
	}

	e.report = Report{
		Bugs:   append([]Bug(nil), s.Bugs...),
		Faults: append([]PathFault(nil), s.Faults...),
	}
	for _, p := range s.Paths {
		cond, err := gets(p.Cond)
		if err != nil {
			return nil, err
		}
		out, err := gets(p.Out)
		if err != nil {
			return nil, err
		}
		e.report.Paths = append(e.report.Paths, PathResult{
			ID:        p.ID,
			Status:    p.Status,
			Fault:     p.Fault,
			EndPC:     p.EndPC,
			Steps:     p.Steps,
			Depth:     p.Depth,
			PathCond:  cond,
			Output:    out,
			PathFault: p.PathFault,
			sig:       p.Sig,
		})
	}
	// Re-seed the bug dedup so a resumed exploration does not re-report
	// findings the interrupted leg already made.
	for _, b := range e.report.Bugs {
		e.bugSeen.first(dedupKey{check: b.Check, pc: b.PC, msg: b.Msg})
	}
	e.visits = newVisitTable()
	for pc, n := range s.Visits {
		e.visits.shard(pc).m[pc] = n
	}
	e.nextID = s.NextID
	e.resumedWall = s.Stats.WallTime
	e.Solver.Stats = s.Stats.Solver

	live := make([]*State, 0, len(s.Frontier))
	for i, ss := range s.Frontier {
		if len(ss.Regs) != len(e.Arch.Regs) {
			return nil, fmt.Errorf("core: snapshot frontier state %d has %d registers, architecture has %d",
				i, len(ss.Regs), len(e.Arch.Regs))
		}
		regs, err := gets(ss.Regs)
		if err != nil {
			return nil, err
		}
		for j, r := range e.Arch.Regs {
			if regs[j].Width() != r.Width {
				return nil, fmt.Errorf("core: snapshot register %s has width %d, want %d", r.Name, regs[j].Width(), r.Width)
			}
		}
		cond, err := gets(ss.Cond)
		if err != nil {
			return nil, err
		}
		out, err := gets(ss.Out)
		if err != nil {
			return nil, err
		}
		if len(ss.OverlayAddrs) != len(ss.OverlayVals) {
			return nil, fmt.Errorf("core: snapshot frontier state %d overlay addr/val length mismatch", i)
		}
		mem := newMemory(e.Prog.Image(), bv.Mask(e.Arch.Bits))
		for k, a := range ss.OverlayAddrs {
			v, err := get(ss.OverlayVals[k])
			if err != nil {
				return nil, err
			}
			if v.Width() != 8 {
				return nil, fmt.Errorf("core: snapshot overlay byte at %#x has width %d", a, v.Width())
			}
			mem.set(a&mem.mask, v)
		}
		live = append(live, &State{
			ID:         ss.ID,
			Parent:     ss.Parent,
			regs:       regs,
			mem:        mem,
			PathCond:   cond,
			PC:         ss.PC,
			Steps:      ss.Steps,
			Depth:      ss.Depth,
			Output:     out,
			inputCount: ss.InputCount,
			sig:        ss.Sig,
		})
	}
	e.rec.resume(s.Stats, len(live), len(s.Visits))
	return live, nil
}

// appendString emits a length-prefixed string (u32 length).
func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// appendRoots emits a root-index slice (u32 count + u32 indices).
func appendRoots(buf []byte, idx []uint32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(idx)))
	for _, i := range idx {
		buf = binary.LittleEndian.AppendUint32(buf, i)
	}
	return buf
}

// appendPath emits one completed path's binary record.
func appendPath(buf []byte, p *SnapPath) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.ID))
	buf = append(buf, byte(p.Status))
	buf = appendString(buf, p.Fault)
	buf = binary.LittleEndian.AppendUint64(buf, p.EndPC)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Steps))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Depth))
	buf = binary.LittleEndian.AppendUint64(buf, p.Sig)
	buf = appendRoots(buf, p.Cond)
	buf = appendRoots(buf, p.Out)
	if p.PathFault == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.LittleEndian.AppendUint64(buf, p.PathFault.PC)
	buf = appendString(buf, p.PathFault.Layer)
	buf = appendString(buf, p.PathFault.Msg)
	return appendString(buf, p.PathFault.Stack)
}

// snapReader walks the binary sections of a snapshot payload. The CRC
// has already been verified; length checks here only guard against a
// logically malformed (not bit-rotted) file.
type snapReader struct {
	b   []byte
	off int
}

var errSnapShort = errors.New("core: snapshot payload truncated")

func (r *snapReader) bytes(n int) ([]byte, error) {
	if n < 0 || len(r.b)-r.off < n {
		return nil, errSnapShort
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *snapReader) u8() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *snapReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *snapReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *snapReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *snapReader) roots() ([]uint32, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	// A root index is 4 bytes on the wire, so n is bounded by what is
	// actually left — rejects hostile counts before allocating.
	if int64(n)*4 > int64(len(r.b)-r.off) {
		return nil, errSnapShort
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint32, n)
	for i := range out {
		if out[i], err = r.u32(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *snapReader) path() (SnapPath, error) {
	var p SnapPath
	id, err := r.u64()
	if err != nil {
		return p, err
	}
	p.ID = int(id)
	st, err := r.u8()
	if err != nil {
		return p, err
	}
	p.Status = Status(st)
	if p.Fault, err = r.str(); err != nil {
		return p, err
	}
	if p.EndPC, err = r.u64(); err != nil {
		return p, err
	}
	steps, err := r.u64()
	if err != nil {
		return p, err
	}
	p.Steps = int64(steps)
	depth, err := r.u32()
	if err != nil {
		return p, err
	}
	p.Depth = int(depth)
	if p.Sig, err = r.u64(); err != nil {
		return p, err
	}
	if p.Cond, err = r.roots(); err != nil {
		return p, err
	}
	if p.Out, err = r.roots(); err != nil {
		return p, err
	}
	hasFault, err := r.u8()
	if err != nil {
		return p, err
	}
	if hasFault == 0 {
		return p, nil
	}
	var pf PathFault
	if pf.PC, err = r.u64(); err != nil {
		return p, err
	}
	if pf.Layer, err = r.str(); err != nil {
		return p, err
	}
	if pf.Msg, err = r.str(); err != nil {
		return p, err
	}
	if pf.Stack, err = r.str(); err != nil {
		return p, err
	}
	p.PathFault = &pf
	return p, nil
}

// pathWireSize is the exact on-wire size of one path record, so
// Marshal can allocate its buffer once (checkpoints are taken on the
// exploration goroutine — reallocation churn there is GC pressure on
// the whole run).
func pathWireSize(p *SnapPath) int {
	n := 8 + 1 + (4 + len(p.Fault)) + 8 + 8 + 4 + 8 +
		(4 + 4*len(p.Cond)) + (4 + 4*len(p.Out)) + 1
	if p.PathFault != nil {
		n += 8 + (4 + len(p.PathFault.Layer)) + (4 + len(p.PathFault.Msg)) + (4 + len(p.PathFault.Stack))
	}
	return n
}

// Marshal frames the snapshot for durable storage: "SXCK" | u32
// version | u32 crc32(payload) | payload. See the framing comment at
// the top of the file for the payload sections.
func (s *Snapshot) Marshal() ([]byte, error) {
	meta, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("core: marshal snapshot: %w", err)
	}
	hdr := len(snapMagic) + 8
	size := hdr + 4 + len(meta) + 4 + 4 + len(s.Exprs)
	for i := range s.Paths {
		size += pathWireSize(&s.Paths[i])
	}
	buf := make([]byte, hdr, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Paths)))
	for i := range s.Paths {
		buf = appendPath(buf, &s.Paths[i])
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Exprs)))
	buf = append(buf, s.Exprs...)
	if len(buf) != size {
		return nil, fmt.Errorf("core: marshal snapshot: sized %d, wrote %d", size, len(buf))
	}
	copy(buf, snapMagic)
	binary.LittleEndian.PutUint32(buf[4:], snapVersion)
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf[hdr:]))
	return buf, nil
}

// UnmarshalSnapshot validates the framing (magic, version, CRC) and
// decodes a snapshot. A torn, truncated or bit-flipped checkpoint file
// fails here — never inside a resuming run.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	hdr := len(snapMagic) + 8
	if len(data) < hdr {
		return nil, errors.New("core: snapshot too short")
	}
	if string(data[:4]) != snapMagic {
		return nil, fmt.Errorf("core: bad snapshot magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", v)
	}
	payload := data[hdr:]
	if crc := binary.LittleEndian.Uint32(data[8:]); crc != crc32.ChecksumIEEE(payload) {
		return nil, errors.New("core: snapshot CRC mismatch")
	}
	r := &snapReader{b: payload}
	metaLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	meta, err := r.bytes(int(metaLen))
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(meta, &s); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	npaths, err := r.u32()
	if err != nil {
		return nil, err
	}
	// A path record is at least 46 bytes on the wire; bound the
	// allocation by what is actually left.
	if int64(npaths)*46 > int64(len(r.b)-r.off) {
		return nil, errSnapShort
	}
	if npaths > 0 {
		s.Paths = make([]SnapPath, 0, npaths)
		for i := uint32(0); i < npaths; i++ {
			p, err := r.path()
			if err != nil {
				return nil, fmt.Errorf("core: decode snapshot path %d: %w", i, err)
			}
			s.Paths = append(s.Paths, p)
		}
	}
	exprsLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	exprs, err := r.bytes(int(exprsLen))
	if err != nil {
		return nil, err
	}
	if exprsLen > 0 {
		s.Exprs = append([]byte(nil), exprs...)
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("core: snapshot has %d trailing bytes", len(r.b)-r.off)
	}
	return &s, nil
}
