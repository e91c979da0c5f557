// Compiled execution for the concrete emulator (docs/compile.md).
//
// Every step runs one unit through execUnit. Uncompiled, a unit costs,
// per instruction: a fetch of MaxInsnBytes from the memory map, a full
// decoder pass, and an AST walk of the semantics. All three are
// per-address constants while the code bytes do not change, so the
// machine keeps a per-address cache of compiled units (decoded
// instruction + rtl.Compiled closure chain) and, above it, a superblock
// cache: maximal runs of straightline units (no pc write, no control
// event) chained so Run executes them back-to-back with no
// per-instruction dispatch beyond one closure-chain call. Under
// NoCompile the machine caches nothing: every step decodes an uncached
// unit with no chain, which execUnit interprets (rtl.ConcExecScratch).
//
// Self-modification guard: the cache tracks the address span covered by
// compiled code, including the decoder's lookahead window; any store
// landing in the span flushes the whole cache (compiled code is cheap
// to rebuild and self-modifying programs are rare). A flush mid-
// superblock also ends that superblock after the current instruction,
// because the following units were decoded from the overwritten bytes.
package conc

import (
	"repro/internal/cover"
	"repro/internal/decoder"
	"repro/internal/faultinject"
	"repro/internal/rtl"
)

// maxSuperblock bounds the chain length of one superblock.
const maxSuperblock = 64

// concUnit is one decoded instruction: a compiled one in the machine's
// code cache, or under NoCompile an uncached one with no chain.
type concUnit struct {
	dec  decoder.Decoded
	unit *rtl.Compiled // nil under NoCompile
}

// concBlock is a superblock: consecutive straightline units starting at
// the cache key's address. A present-but-empty block records that the
// head instruction is not straightline.
type concBlock struct {
	units []concUnit
}

// codeCache is the machine's per-address compiled-code store.
type codeCache struct {
	units  map[uint64]concUnit
	blocks map[uint64]*concBlock
	lo, hi uint64 // address span covered by compiled code (incl. decode lookahead)
	gen    uint64 // bumped on every flush (superblocks in flight must stop)
}

// CompileStats counts the machine's compiled-execution activity; it is
// the deterministic snapshot mirrored by the registry metrics.
type CompileStats struct {
	Units      int64 // instructions compiled
	Blocks     int64 // superblocks built (non-empty)
	BlockHits  int64 // superblock executions
	BlockInsns int64 // instructions executed inside superblocks
	Flushes    int64 // self-modification cache flushes
}

func (m *Machine) codeCacheInit() *codeCache {
	if m.code == nil {
		m.code = &codeCache{
			units:  make(map[uint64]concUnit),
			blocks: make(map[uint64]*concBlock),
		}
	}
	return m.code
}

// flushCode drops every compiled unit and superblock. Called when a
// store lands inside the compiled span (self-modifying code) and when a
// new program image is loaded.
func (m *Machine) flushCode() {
	if m.code == nil {
		return
	}
	m.code.units = make(map[uint64]concUnit)
	m.code.blocks = make(map[uint64]*concBlock)
	m.code.lo, m.code.hi = 0, 0
	m.code.gen++
	m.CompileStats.Flushes++
}

// noteStore flushes the code cache when a store overlaps the compiled
// span. The span check runs per written cell because addresses wrap at
// the architecture's width.
func (m *Machine) noteStore(addr uint64, cells uint) {
	c := m.code
	if c == nil || c.hi <= c.lo {
		return
	}
	for i := uint(0); i < cells; i++ {
		a := m.trunc(addr + uint64(i))
		if a >= c.lo && a < c.hi {
			m.flushCode()
			return
		}
	}
}

// unitAt returns the compiled unit for the instruction at pc, compiling
// on first use; under NoCompile, an uncached unit decoded from the
// machine's bytes with no chain. The unit is returned by value so an
// uncached one stays on the caller's stack. The non-nil Stop reports
// undecodable bytes.
func (m *Machine) unitAt(pc uint64) (concUnit, *Stop) {
	var c *codeCache
	if !m.NoCompile {
		c = m.codeCacheInit()
		if u, ok := c.units[pc]; ok {
			return u, nil
		}
	}
	dec, err := m.Dec.Decode(m.fetch(pc))
	if err != nil {
		return concUnit{}, &Stop{Kind: StopDecode, PC: pc, Err: err}
	}
	u := concUnit{dec: dec}
	if c == nil {
		return u, nil
	}
	u.unit = rtl.Compile(dec.Insn, dec.Ops, m.Arch.PC)
	c.units[pc] = u
	// Extend the self-modification span over the decoder's full
	// lookahead window: a store beyond the matched encoding but inside
	// the window can still change which (longer) encoding matches.
	end := pc + uint64(m.Arch.MaxInsnBytes())
	if c.hi <= c.lo {
		c.lo, c.hi = pc, end
	} else {
		if pc < c.lo {
			c.lo = pc
		}
		if end > c.hi {
			c.hi = end
		}
	}
	m.CompileStats.Units++
	if m.Metrics != nil {
		m.Metrics.CompileUnits.Inc()
	}
	return u, nil
}

// blockAt returns the superblock starting at pc, building and caching
// it on first use (an empty block marks a non-straightline head). nil
// means the head instruction failed to decode, or NoCompile.
func (m *Machine) blockAt(pc uint64) *concBlock {
	if m.NoCompile {
		return nil
	}
	c := m.codeCacheInit()
	if b, ok := c.blocks[pc]; ok {
		return b
	}
	blk := &concBlock{}
	cur := pc
	for len(blk.units) < maxSuperblock {
		u, stop := m.unitAt(cur)
		if stop != nil {
			if cur == pc {
				return nil // let the single-step path surface the decode error
			}
			break
		}
		if !u.unit.Straightline() {
			break
		}
		blk.units = append(blk.units, u)
		cur = m.trunc(cur + uint64(u.dec.Len))
	}
	c.blocks[pc] = blk
	if len(blk.units) > 0 {
		m.CompileStats.Blocks++
		if m.Metrics != nil {
			m.Metrics.SuperblockBuilds.Inc()
			m.Metrics.SuperblockLen.Observe(float64(len(blk.units)))
		}
	}
	return blk
}

// execUnit executes the instruction at pc: its closure chain, or the
// RTL interpreter for a unit with none, then coverage, event handling
// and the fall-through pc update. It is the emulator's only step body;
// the caller has already fired the per-step injection site.
func (m *Machine) execUnit(pc uint64, u *concUnit) *Stop {
	m.pcWritten = false
	if m.Prof != nil {
		m.Prof.Exec(pc, u.dec.Insn.Mnemonic, u.dec.Insn.FormatName())
	}
	var res rtl.ConcResult
	if u.unit != nil {
		res = u.unit.ExecConc(m, &m.scratch)
	} else {
		res = rtl.ConcExecScratch(m, u.dec.Insn, u.dec.Ops, &m.scratch)
	}
	m.Steps++
	if m.Cov != nil {
		m.Cov.Hit(cover.LConc, u.dec.Insn)
		// For a branch-classified instruction the taken way is exactly
		// "the semantics wrote pc" (the not-taken way falls through).
		m.Cov.Branch(cover.LConc, u.dec.Insn, m.pcWritten)
	}
	switch {
	case res.Fault != "":
		m.Cov.Event(cover.LConc, cover.EvFault)
		return &Stop{Kind: StopFault, PC: pc, Fault: res.Fault}
	case res.Halted:
		m.Cov.Event(cover.LConc, cover.EvHalt)
		return &Stop{Kind: StopHalt, PC: pc}
	case res.Trapped:
		m.Cov.Event(cover.LConc, cover.EvTrap)
		halt, err := m.trap(res.TrapCode)
		if err != nil {
			return &Stop{Kind: StopFault, PC: pc, Fault: err.Error()}
		}
		if halt {
			return &Stop{Kind: StopExit, PC: pc}
		}
	}
	if !m.pcWritten {
		m.WriteReg(m.Arch.PC, pc+uint64(u.dec.Len))
	}
	return nil
}

// runChunk advances the machine by up to budget instructions: a whole
// superblock when the current pc heads one, a single step otherwise. It
// returns a non-nil Stop when the run ends. The recover boundary lives
// in Run (once per Run, not per chunk); curPC tracks the executing
// instruction for panic attribution.
func (m *Machine) runChunk(budget int64) (done *Stop) {
	pc := m.PC()
	m.curPC = pc
	blk := m.blockAt(pc)
	if blk != nil && len(blk.units) > 0 {
		n := len(blk.units)
		if int64(n) > budget {
			n = int(budget)
		}
		m.CompileStats.BlockHits++
		m.CompileStats.BlockInsns += int64(n)
		if m.Metrics != nil {
			m.Metrics.SuperblockHits.Inc()
			m.Metrics.SuperblockInsns.Add(int64(n))
		}
		gen := m.code.gen
		for i := range n {
			m.curPC = pc
			m.Inject.Fire(faultinject.SiteConcStep)
			if s := m.execUnit(pc, &blk.units[i]); s != nil {
				return s
			}
			pc = m.PC()
			if m.code.gen != gen {
				// A store inside this superblock's span invalidated the
				// units decoded after the current instruction.
				return nil
			}
		}
		return nil
	}
	// Non-straightline head (branch, trap, halt), undecodable bytes or
	// NoCompile: one step (the injection site fires before the decode
	// attempt).
	return m.step(pc)
}
