package core

import (
	"fmt"
	"maps"
	"sync/atomic"

	"repro/internal/adl"
	"repro/internal/expr"
)

// State is one symbolic execution path: a symbolic machine state plus the
// path condition that led to it.
type State struct {
	ID     int
	Parent int

	regs []*expr.Expr
	mem  *Memory

	// PathCond is the conjunction of branch conditions taken so far.
	PathCond []*expr.Expr

	// model, when non-nil, is an assignment known to satisfy PathCond:
	// the solver's answer that proved this side feasible. The solver
	// tries it on the next fork before blasting (smt.CheckUnder). It is
	// shared with siblings and the query cache and never mutated.
	model expr.Env

	// PC is the concrete program counter (instruction fetch requires a
	// concrete address; symbolic targets are resolved by forking).
	PC uint64

	Steps  int64
	Depth  int // number of forks on the path
	Output []*expr.Expr

	inputCount int

	// sig is an order-sensitive hash chain over the structural digests of
	// the appended path conditions. Unlike ID (an allocation order that is
	// schedule-dependent in parallel runs) it identifies a path by the
	// branch decisions that produced it, so the parallel engine can order
	// completed paths canonically.
	sig uint64

	// Terminal status, set when the path completes.
	Done   bool
	Status Status
	Fault  string

	// PathFault, set when Status is StatusPanic, records the recovered
	// panic that killed this path (docs/robustness.md).
	PathFault *PathFault
}

// appendCond extends the path condition and folds the condition's
// structural digest into the path signature. The model is dropped: it
// need not satisfy c.
func (st *State) appendCond(c *expr.Expr) {
	st.PathCond = append(st.PathCond, c)
	st.model = nil
	st.sig = expr.MixHash(st.sig, expr.Hash(c))
}

// Status tells how a path ended.
type Status int

// Path end statuses.
const (
	StatusRunning Status = iota
	StatusHalt           // halt() executed
	StatusExit           // exit trap
	StatusFault          // error() reached or checker-fatal condition
	StatusSteps          // per-path step budget exhausted
	StatusDecode         // undecodable bytes
	StatusKilled         // dropped by the engine (path budget)
	StatusPanic          // panic recovered at the per-path fault boundary
)

func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusHalt:
		return "halt"
	case StatusExit:
		return "exit"
	case StatusFault:
		return "fault"
	case StatusSteps:
		return "step-limit"
	case StatusDecode:
		return "decode-error"
	case StatusKilled:
		return "killed"
	case StatusPanic:
		return "panic"
	}
	return "unknown"
}

func (st *State) String() string {
	return fmt.Sprintf("state %d: pc=%#x steps=%d depth=%d |pc-cond|=%d",
		st.ID, st.PC, st.Steps, st.Depth, len(st.PathCond))
}

// clone copies the state for a fork.
func (st *State) clone(newID int) *State {
	c := *st
	c.ID = newID
	c.Parent = st.ID
	c.regs = append([]*expr.Expr(nil), st.regs...)
	c.mem = st.mem.clone()
	c.PathCond = append([]*expr.Expr(nil), st.PathCond...)
	c.Output = append([]*expr.Expr(nil), st.Output...)
	c.Depth++
	return &c
}

// Reg reads a register's symbolic value.
func (st *State) Reg(r *adl.Reg) *expr.Expr { return st.regs[r.Num] }

// SetReg writes a register's symbolic value.
func (st *State) SetReg(r *adl.Reg, v *expr.Expr) {
	if v.Width() != r.Width {
		panic(fmt.Sprintf("core: register %s width %d written with %d bits", r.Name, r.Width, v.Width()))
	}
	st.regs[r.Num] = v
}

// Memory is the byte-granular symbolic memory of one path: a shared
// concrete base image overlaid with symbolic writes. Addresses are
// concrete (the engine concretizes symbolic addresses before access).
//
// The overlay is copy-on-write in 64-byte pages (docs/engine.md): a fork
// shares the page table and every page, and a write first copies the
// table unless this Memory owns it, then the page unless its owner tag
// is this Memory's.
type Memory struct {
	base     map[uint64]byte
	pages    map[uint64]*page // page number -> page
	ownTable bool             // the page table is this Memory's alone
	tag      uint64           // owner tag of the pages this Memory may write in place
	n        int              // written bytes (non-nil cells), the exact OverlaySize
	mask     uint64           // address mask (2^bits - 1)
}

const (
	pageBits = 6
	pageSize = 1 << pageBits
)

// page is one copy-on-write unit of the overlay. A nil cell is
// unwritten: reads fall through to the base image.
type page struct {
	cells [pageSize]*expr.Expr
	owner uint64
}

// memTags issues owner tags. Only their uniqueness matters, and states
// move between workers, so one counter serves every engine.
var memTags atomic.Uint64

// newMemory returns an empty overlay over a concrete image.
func newMemory(base map[uint64]byte, mask uint64) *Memory {
	return &Memory{base: base, pages: make(map[uint64]*page), ownTable: true, tag: memTags.Add(1), mask: mask}
}

// clone shares the page table and pages with the copy and revokes the
// parent's ownership of both, so neither side can write through what the
// other still reads.
func (m *Memory) clone() *Memory {
	tag := memTags.Add(2)
	m.tag, m.ownTable = tag-1, false
	return &Memory{base: m.base, pages: m.pages, tag: tag, n: m.n, mask: m.mask}
}

// get returns the overlay cell at a masked address; nil if unwritten.
func (m *Memory) get(addr uint64) *expr.Expr {
	if p := m.pages[addr>>pageBits]; p != nil {
		return p.cells[addr&(pageSize-1)]
	}
	return nil
}

// set stores a byte term at a masked address, copying the page table
// and the page first when this Memory does not own them.
func (m *Memory) set(addr uint64, v *expr.Expr) {
	if !m.ownTable {
		m.pages, m.ownTable = maps.Clone(m.pages), true
	}
	k := addr >> pageBits
	p := m.pages[k]
	if p == nil {
		p = &page{owner: m.tag}
		m.pages[k] = p
	} else if p.owner != m.tag {
		p = &page{cells: p.cells, owner: m.tag}
		m.pages[k] = p
	}
	i := addr & (pageSize - 1)
	if p.cells[i] == nil {
		m.n++
	}
	p.cells[i] = v
}

// each calls fn for every written byte, in no particular order.
func (m *Memory) each(fn func(addr uint64, v *expr.Expr)) {
	for k, p := range m.pages {
		for i, v := range &p.cells {
			if v != nil {
				fn(k<<pageBits|uint64(i), v)
			}
		}
	}
}

// ByteAt returns the symbolic byte at addr. b is used to wrap concrete
// bytes; unwritten, unmapped memory reads as zero.
func (m *Memory) ByteAt(b *expr.Builder, addr uint64) *expr.Expr {
	addr &= m.mask
	if v := m.get(addr); v != nil {
		return v
	}
	return b.Const(8, uint64(m.base[addr]))
}

// SetByte stores a symbolic byte.
func (m *Memory) SetByte(addr uint64, v *expr.Expr) {
	if v.Width() != 8 {
		panic("core: SetByte with non-byte value")
	}
	m.set(addr&m.mask, v)
}

// OverlaySize reports the number of symbolically written bytes.
func (m *Memory) OverlaySize() int { return m.n }

// Read assembles cells bytes at addr in the given byte order.
func (m *Memory) Read(b *expr.Builder, addr uint64, cells uint, little bool) *expr.Expr {
	var out *expr.Expr
	for i := uint(0); i < cells; i++ {
		byt := m.ByteAt(b, addr+uint64(i))
		if out == nil {
			out = byt
		} else if little {
			out = b.Concat(byt, out)
		} else {
			out = b.Concat(out, byt)
		}
	}
	return out
}

// Write splits val into cells bytes at addr in the given byte order.
func (m *Memory) Write(b *expr.Builder, addr uint64, cells uint, val *expr.Expr, little bool) {
	for i := uint(0); i < cells; i++ {
		var byt *expr.Expr
		if little {
			byt = b.Extract(val, 8*i+7, 8*i)
		} else {
			byt = b.Extract(val, val.Width()-8*i-1, val.Width()-8*i-8)
		}
		m.SetByte(addr+uint64(i), byt)
	}
}

// ConcreteFetch reads n raw bytes for instruction decoding. Overlaid
// (written) code bytes must be constant: ok is false when one is
// symbolic.
func (m *Memory) ConcreteFetch(addr uint64, n int) ([]byte, bool) {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		a := (addr + uint64(i)) & m.mask
		if v := m.get(a); v != nil {
			if !v.IsConst() {
				return nil, false
			}
			out[i] = byte(v.ConstVal())
			continue
		}
		out[i] = m.base[a]
	}
	return out, true
}

// imageFetch reads n bytes at addr from the base image, ignoring the
// overlay: the bytes every state shares, which the compile cache
// decodes.
func (m *Memory) imageFetch(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.base[(addr+uint64(i))&m.mask]
	}
	return out
}
