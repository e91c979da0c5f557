// Compiled symbolic execution (docs/compile.md).
//
// Every engine instruction runs through execUnit, from execEntry or
// runBlock. An entry resolves, once per address, everything the step
// would otherwise recompute per execution: the decoded instruction, its
// rtl.Compiled closure chain, disassembly and fall-through
// continuation. The engine keeps a shared per-address cache of entries
// and, above it, superblocks: maximal runs of straightline entries (no
// pc write, no control event) executed back-to-back inside one step
// call.
//
// The cache is shared by every worker of a parallel run: compiled
// closures capture only immutable ADL data (resolved registers, widths,
// immediates), never a builder, so one unit serves every worker at
// execution time.
//
// Self-modifying code: a state whose memory overlay touches the bytes an
// instruction's decode depends on (its decode window, see
// decoder.Window) gets an uncached entry decoded from its own bytes,
// with no compiled unit; execUnit runs that one through the RTL
// interpreter (rtl.SymEval), because compiling a unit that is used once
// costs several times its interpretation. Superblock execution
// re-checks the window before every chained entry. The shared cache is
// only ever populated from unmodified image bytes, so it needs no
// invalidation.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bv"
	"repro/internal/cover"
	"repro/internal/decoder"
	"repro/internal/faultinject"
	"repro/internal/profile"
	"repro/internal/rtl"
)

// maxSuperblock bounds the chain length of one engine superblock.
const maxSuperblock = 64

// compEntry is one compiled instruction: everything the step loop would
// otherwise recompute per execution, resolved once per address.
type compEntry struct {
	dec    decoder.Decoded
	unit   *rtl.Compiled // nil for a self-modified window's uncached entry
	disasm string
	cont   uint64 // fall-through continuation (width-truncated)
	window int    // bytes the decode depends on (decoder.Window); cached entries only
}

// compBlock is a superblock: the straightline prefix starting at its
// key address. An empty block records a non-straightline head.
type compBlock struct {
	units []*compEntry
	prof  []profile.BlockUnit
	// shared is true for cache-resident blocks, whose pointer is a
	// stable profiling key; truncated (self-modified) blocks are rebuilt
	// per call and must record per unit instead.
	shared bool
}

// compileCache is the engine-wide compiled-code store, shared across
// workers. Counters are atomic; the maps are sync.Maps because workers
// populate them concurrently (a racing double-compile is resolved by
// LoadOrStore and only wastes the losing compile).
type compileCache struct {
	units  sync.Map // uint64 -> *compEntry
	blocks sync.Map // uint64 -> *compBlock

	unitCount  atomic.Int64
	blockCount atomic.Int64
}

func newCompileCache() *compileCache { return &compileCache{} }

// decodeEntry decodes and disassembles the instruction in buf, fetched
// at pc, without compiling it. The entry is returned by value so an
// uncached one can live on the caller's stack.
func (e *Engine) decodeEntry(pc uint64, buf []byte) (compEntry, error) {
	d, err := e.rec.decode(e.Dec, pc, buf)
	if err != nil {
		return compEntry{}, err
	}
	return compEntry{
		dec:    d,
		disasm: decoder.Disasm(d, pc),
		cont:   bv.Trunc(pc+uint64(d.Len), e.Arch.Bits),
	}, nil
}

// fetchEntry returns the entry for the instruction at st.PC: the shared
// compiled one, unless st's memory overlay touches the entry's decode
// window (self-modifying code) — then an uncached entry decoded from
// st's own bytes. Overlay bytes past the window, such as data written
// right behind a short instruction, do not count.
func (e *Engine) fetchEntry(st *State) (*compEntry, error) {
	pc, n := st.PC, e.Arch.MaxInsnBytes()
	ent, err := e.entryAt(st, pc)
	if err == nil && !st.mem.writtenRange(pc, ent.window) || err != nil && !st.mem.writtenRange(pc, n) {
		return ent, err
	}
	buf, ok := st.mem.ConcreteFetch(pc, n)
	if !ok {
		return nil, fmt.Errorf("symbolic instruction bytes at %#x", pc)
	}
	own, err := e.decodeEntry(pc, buf)
	return &own, err
}

// entryAt returns the compiled entry for the instruction at pc,
// compiling it on first use anywhere in the run. It decodes the image
// bytes under st's overlay, so the cached entry is the same for every
// state; callers check the entry's window against their own overlay.
func (e *Engine) entryAt(st *State, pc uint64) (*compEntry, error) {
	if ent, ok := e.compiled.units.Load(pc); ok {
		return ent.(*compEntry), nil
	}
	buf := st.mem.imageFetch(pc, e.Arch.MaxInsnBytes())
	ent, err := e.decodeEntry(pc, buf)
	if err != nil {
		return nil, err
	}
	ent.unit = rtl.Compile(ent.dec.Insn, ent.dec.Ops, e.Arch.PC)
	ent.window = e.Dec.Window(buf, ent.dec)
	if prev, loaded := e.compiled.units.LoadOrStore(pc, &ent); loaded {
		return prev.(*compEntry), nil
	}
	e.compiled.unitCount.Add(1)
	e.rec.compiled()
	return &ent, nil
}

// blockFor returns the superblock headed at st.PC, building and caching
// it on first use from image bytes. Blocks truncated by st's own memory
// writes past the head are not cached (they would shorten the block for
// every other state); the caller checks the head's window.
func (e *Engine) blockFor(st *State) *compBlock {
	pc := st.PC
	if blk, ok := e.compiled.blocks.Load(pc); ok {
		return blk.(*compBlock)
	}
	blk := &compBlock{}
	cur := pc
	truncated := false
	for len(blk.units) < maxSuperblock {
		ent, err := e.entryAt(st, cur)
		if err != nil {
			break // the single-step path surfaces decode errors
		}
		if cur != pc && st.mem.writtenRange(cur, ent.window) {
			truncated = true
			break
		}
		if !ent.unit.Straightline() {
			break
		}
		blk.units = append(blk.units, ent)
		blk.prof = append(blk.prof, profile.BlockUnit{
			PC: cur, Mnemonic: ent.unit.Mnemonic, Format: ent.unit.Format, Cont: ent.cont,
		})
		cur = ent.cont
	}
	if !truncated {
		blk.shared = true
		e.compiled.blocks.Store(pc, blk)
		if len(blk.units) > 0 {
			e.compiled.blockCount.Add(1)
			e.rec.blockBuilt(len(blk.units))
		}
	}
	return blk
}

// execUnit runs one entry's instruction on st, in superblock blk (nil
// for a single step): what every instruction owes (visit count, sym and
// translate coverage, translate injection site, step count), the pc
// continuation, and the compiled unit, or the RTL interpreter for an
// entry without one. ec is reset here, so a block run reuses one. A
// non-nil end is st killed as infeasible.
func (e *Engine) execUnit(ec *execCtx, st *State, ent *compEntry, blk *compBlock) (events []rtl.Event, end []*State, err error) {
	pc := st.PC
	e.rec.insn(pc, e.visits.inc(pc), ent, blk)
	e.cov.Hit(cover.LSym, ent.dec.Insn)
	st.Steps++
	e.inject.Fire(faultinject.SiteTranslate)
	e.cov.Hit(cover.LTranslate, ent.dec.Insn)

	// The pc register holds the fall-through continuation; semantic reads
	// of pc observe the instruction's own address via execCtx.ReadReg.
	pcReg := e.Arch.PC
	st.SetReg(pcReg, e.B.Const(pcReg.Width, ent.cont))

	*ec = execCtx{e: e, st: st, insAddr: pc, disasm: ent.disasm}
	if ent.unit != nil {
		events = ent.unit.ExecSym(e.B, ec, &e.scratch)
	} else {
		// Cov and Inject stay nil: the translate site and coverage hit
		// already fired above.
		ev := rtl.SymEval{B: e.B, A: e.Arch}
		events = ev.Exec(ec, ent.dec.Insn, ent.dec.Ops)
	}
	if ec.infeasible && ec.err == nil {
		return nil, []*State{st.done(StatusKilled)}, nil
	}
	return events, nil, ec.err
}

// runBlock executes the superblock's straightline prefix on st inside
// one step call. Straightline units cannot fork, halt or branch, so the
// state threads through unchanged; the block's terminator (and anything
// past a self-modified window) runs via the next step call. Every unit
// runs through execUnit and is checked against MaxSteps, so a block run
// is observationally per-instruction.
func (e *Engine) runBlock(st *State, blk *compBlock) ([]*State, error) {
	ec := &execCtx{}
	n := 0
	defer func() { e.rec.block(blk, n) }()
	for i, ent := range blk.units {
		pc := st.PC
		if i > 0 {
			// safeStep fired the per-step site for the first unit; keep
			// the fires-per-instruction contract for the rest.
			e.inject.Fire(faultinject.SiteSymStep)
			if st.mem.writtenRange(pc, ent.window) {
				break // self-modified under this state: re-enter via step
			}
		}
		n++
		events, end, err := e.execUnit(ec, st, ent, blk)
		if end != nil || err != nil {
			return end, err
		}
		if len(events) > 0 {
			// Straightline units raise only division observations
			// (HasCtl excludes trap/halt/fault), which never split.
			if _, _, err := e.handleEvents(st, events, pc, ent.disasm); err != nil {
				return nil, err
			}
		}
		if st.Steps >= e.Opts.MaxSteps {
			return []*State{st.done(StatusSteps)}, nil
		}
		// resolvePC records the fall-through branch outcome for the sym
		// coverage layer; a straightline unit always falls through.
		e.cov.Branch(cover.LSym, ent.dec.Insn, false)
		st.PC = ent.cont
	}
	return []*State{st}, nil
}

// execEntry executes one instruction with full control-flow handling:
// execUnit, then the control events and the pc resolution. An entry
// without a compiled unit is the uncached one step builds for a
// self-modified fetch window.
func (e *Engine) execEntry(st *State, ent *compEntry) ([]*State, error) {
	insAddr := st.PC
	events, end, err := e.execUnit(&execCtx{}, st, ent, nil)
	if end != nil || err != nil {
		return end, err
	}
	done, continuing, err := e.handleEvents(st, events, insAddr, ent.disasm)
	if err != nil {
		return nil, err
	}
	out := done
	for _, c := range continuing {
		if c.Steps >= e.Opts.MaxSteps {
			out = append(out, c.done(StatusSteps))
			continue
		}
		next, err := e.resolvePC(c, ent.dec, insAddr, ent.disasm)
		if err != nil {
			return nil, err
		}
		out = append(out, next...)
	}
	return out, nil
}

// snapshotCompileStats copies the shared cache counters into the
// report's deterministic stats block (end of run, both serial and
// parallel).
func (e *Engine) snapshotCompileStats() {
	e.report.Stats.CompiledUnits = e.compiled.unitCount.Load()
	e.report.Stats.Superblocks = e.compiled.blockCount.Load()
}
