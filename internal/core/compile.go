// Compiled symbolic execution (docs/compile.md).
//
// Every engine step runs through execEntry. An entry resolves, once per
// address, everything the step would otherwise recompute per execution:
// the decoded instruction, its rtl.Compiled closure chain, disassembly
// and fall-through continuation. The engine keeps a shared per-address
// cache of entries and, above it, superblocks: maximal runs of
// straightline entries (no pc write, no control event) executed
// back-to-back inside one step call.
//
// The cache is shared by every worker of a parallel run: compiled
// closures capture only immutable ADL data (resolved registers, widths,
// immediates), never a builder, so one unit serves any worker's builder
// at execution time.
//
// Self-modifying code: a state whose memory overlay touches an
// instruction's fetch window (mem.writtenRange) gets an uncached entry
// decoded from its own bytes, with no compiled unit; execEntry runs that
// one through the RTL interpreter (rtl.SymEval), because compiling a
// unit that is used once costs several times its interpretation.
// Superblock execution re-checks the window before every chained entry.
// The shared cache is only ever populated from unmodified image bytes,
// so it needs no invalidation.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	blockHits  atomic.Int64
	blockInsns atomic.Int64
}

func newCompileCache() *compileCache { return &compileCache{} }

// decodeEntry fetches, decodes and disassembles the instruction at pc
// from st's memory, without compiling it. It is the one place decode
// work is counted and timed. The entry is returned by value so an
// uncached one can live on the caller's stack.
func (e *Engine) decodeEntry(st *State, pc uint64) (compEntry, error) {
	buf, ok := st.mem.ConcreteFetch(pc, e.Arch.MaxInsnBytes())
	if !ok {
		return compEntry{}, fmt.Errorf("symbolic instruction bytes at %#x", pc)
	}
	e.report.Stats.DecodeCalls++
	e.m.decodeCalls.Inc()
	e.prof.CompileMiss(pc)
	// Only the decoder call is timed: cache hits (the common case) must
	// not pay for two clock reads per instruction.
	var t0 time.Time
	if e.m.on {
		t0 = time.Now()
	}
	d, err := e.Dec.Decode(buf)
	if e.m.on {
		e.m.decodeSeconds.ObserveSince(t0)
	}
	if err != nil {
		return compEntry{}, err
	}
	return compEntry{
		dec:    d,
		disasm: decoder.Disasm(d, pc),
		cont:   bv.Trunc(pc+uint64(d.Len), e.Arch.Bits),
	}, nil
}

// entryAt returns the compiled entry for the instruction at pc,
// compiling it on first use anywhere in the run. The caller must have
// established that st's overlay does not touch the fetch window, so the
// bytes — and therefore the cached entry — come from the shared image.
func (e *Engine) entryAt(st *State, pc uint64) (*compEntry, error) {
	if ent, ok := e.compiled.units.Load(pc); ok {
		return ent.(*compEntry), nil
	}
	ent, err := e.decodeEntry(st, pc)
	if err != nil {
		return nil, err
	}
	ent.unit = rtl.Compile(ent.dec.Insn, ent.dec.Ops, e.Arch.PC)
	if prev, loaded := e.compiled.units.LoadOrStore(pc, &ent); loaded {
		return prev.(*compEntry), nil
	}
	e.compiled.unitCount.Add(1)
	e.m.compiledUnits.Inc()
	return &ent, nil
}

// blockFor returns the superblock headed at st.PC, building and caching
// it on first use. Blocks truncated by st's own memory writes are not
// cached (they would shorten the block for every other state).
func (e *Engine) blockFor(st *State) *compBlock {
	pc := st.PC
	if blk, ok := e.compiled.blocks.Load(pc); ok {
		return blk.(*compBlock)
	}
	blk := &compBlock{}
	cur := pc
	maxLen := e.Arch.MaxInsnBytes()
	truncated := false
	for len(blk.units) < maxSuperblock {
		if cur != pc && st.mem.writtenRange(cur, maxLen) {
			truncated = true
			break
		}
		ent, err := e.entryAt(st, cur)
		if err != nil {
			break // the single-step path surfaces decode errors
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
			e.m.superblockBuilds.Inc()
			if e.m.on {
				e.m.superblockLen.Observe(float64(len(blk.units)))
			}
		}
	}
	return blk
}

// runBlock executes the superblock's straightline prefix on st inside
// one step call. Straightline units cannot fork, halt or branch, so the
// state threads through unchanged; the block's terminator (and anything
// past a self-modified window) runs via the next step call. Every
// per-instruction obligation of execEntry — visit counts, coverage
// hits, injection sites, the MaxSteps check — fires per unit, so a
// block run is observationally per-instruction.
func (e *Engine) runBlock(st *State, blk *compBlock) ([]*State, error) {
	e.compiled.blockHits.Add(1)
	e.m.superblockHits.Inc()
	maxLen := e.Arch.MaxInsnBytes()
	pcReg := e.Arch.PC
	ec := &execCtx{e: e}
	n := int64(0)
	defer func() {
		e.compiled.blockInsns.Add(n)
		e.m.superblockInsns.Add(n)
		if blk.shared {
			e.prof.ExecBlock(blk, blk.prof, int(n))
		}
	}()
	for i, ent := range blk.units {
		pc := st.PC
		if i > 0 {
			// safeStep fired the per-step site for the first unit; keep
			// the fires-per-instruction contract for the rest.
			e.inject.Fire(faultinject.SiteSymStep)
			if st.mem.writtenRange(pc, maxLen) {
				break // self-modified under this state: re-enter via step
			}
		}
		e.recordVisit(pc)
		e.report.Stats.Instructions++
		e.m.instructions.Inc()
		e.cov.Hit(cover.LSym, ent.dec.Insn)
		if e.prof != nil && !blk.shared {
			e.prof.Exec(pc, ent.unit.Mnemonic, ent.unit.Format)
			e.prof.Edge(pc, ent.cont)
		}
		st.Steps++
		n++
		// Translate layer: one injection site and coverage hit per
		// instruction, as in execEntry.
		e.inject.Fire(faultinject.SiteTranslate)
		e.cov.Hit(cover.LTranslate, ent.dec.Insn)
		st.SetReg(pcReg, e.B.Const(pcReg.Width, ent.cont))
		ec.st, ec.insAddr, ec.disasm = st, pc, ent.disasm
		ec.infeasible, ec.err = false, nil
		events := ent.unit.ExecSym(e.B, ec, &e.scratch)
		if ec.err != nil {
			return nil, ec.err
		}
		if ec.infeasible {
			return []*State{st.done(StatusKilled)}, nil
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

// execEntry executes one instruction with full control-flow handling;
// it is the engine's only step body. An entry without a compiled unit —
// the uncached entry step builds for a self-modified fetch window — runs
// through the RTL interpreter instead.
func (e *Engine) execEntry(st *State, ent *compEntry) ([]*State, error) {
	insAddr := st.PC
	e.recordVisit(insAddr)
	e.report.Stats.Instructions++
	e.m.instructions.Inc()
	e.cov.Hit(cover.LSym, ent.dec.Insn)
	if e.prof != nil {
		e.prof.Exec(insAddr, ent.dec.Insn.Mnemonic, formatName(ent.dec.Insn))
	}
	st.Steps++
	e.inject.Fire(faultinject.SiteTranslate)
	e.cov.Hit(cover.LTranslate, ent.dec.Insn)

	// The pc register holds the fall-through continuation; semantic reads
	// of pc observe the instruction's own address via execCtx.ReadReg.
	pcReg := e.Arch.PC
	st.SetReg(pcReg, e.B.Const(pcReg.Width, ent.cont))

	ec := &execCtx{e: e, st: st, insAddr: insAddr, disasm: ent.disasm}
	var events []rtl.Event
	if ent.unit != nil {
		events = ent.unit.ExecSym(e.B, ec, &e.scratch)
	} else {
		// Cov and Inject stay nil: the translate site and coverage hit
		// already fired above.
		ev := rtl.SymEval{B: e.B, A: e.Arch}
		events = ev.Exec(ec, ent.dec.Insn, ent.dec.Ops)
	}
	if ec.err != nil {
		return nil, ec.err
	}
	if ec.infeasible {
		return []*State{st.done(StatusKilled)}, nil
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
	e.report.Stats.SuperblockHits = e.compiled.blockHits.Load()
	e.report.Stats.SuperblockInsns = e.compiled.blockInsns.Load()
}
