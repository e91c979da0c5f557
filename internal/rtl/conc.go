package rtl

import (
	"fmt"

	"repro/internal/adl"
	"repro/internal/bv"
)

// ConcState is the mutable concrete machine state. Addresses and values
// are width-truncated uint64s.
type ConcState interface {
	ReadReg(r *adl.Reg) uint64
	WriteReg(r *adl.Reg, v uint64)
	Load(addr uint64, cells uint) uint64
	Store(addr uint64, cells uint, val uint64)
}

// ConcResult reports the control outcome of one concretely executed
// instruction. At most one of Halted / Trapped / Fault applies; the first
// event encountered stops the remaining statements, like a hardware
// exception would.
type ConcResult struct {
	Halted   bool
	Trapped  bool
	TrapCode uint64
	Fault    string // empty = no fault
}

// ConcExec runs the semantics of ins concretely. The caller must have set
// pc to the instruction's address; on return, if the semantics did not
// assign pc, the caller advances it by the encoding length.
func ConcExec(st ConcState, ins *adl.Insn, ops Operands) ConcResult {
	return ConcExecScratch(st, ins, ops, nil)
}

// ConcExecScratch is ConcExec with a caller-owned scratch buffer: the
// local-slot slice and the evaluation context are reused across calls
// instead of allocated per instruction, which is the emulator's hot
// path. sc may be nil (allocate fresh); do not share one Scratch
// between goroutines.
func ConcExecScratch(st ConcState, ins *adl.Insn, ops Operands, sc *Scratch) ConcResult {
	if sc == nil {
		sc = &Scratch{}
	}
	c := &sc.ic
	c.st = st
	c.ops = ops
	if n := adl.NumLocals(ins.Sem); n == 0 {
		c.locals = nil
	} else {
		c.locals = sc.concLocals(n)
	}
	c.res = ConcResult{}
	c.stop = false
	c.stmts(ins.Sem)
	c.st = nil
	return c.res
}

type concCtx struct {
	st     ConcState
	ops    Operands
	locals []uint64
	res    ConcResult
	stop   bool
}

func (c *concCtx) stmts(ss []adl.Stmt) {
	for _, s := range ss {
		if c.stop {
			return
		}
		c.stmt(s)
	}
}

func (c *concCtx) stmt(s adl.Stmt) {
	switch s := s.(type) {
	case *adl.AssignStmt:
		v := c.expr(s.RHS)
		switch lv := s.LHS.(type) {
		case *adl.RegLV:
			c.st.WriteReg(lv.Reg, v)
		case *adl.RegOpLV:
			c.st.WriteReg(c.opReg(lv.Op), v)
		case *adl.SubLV:
			old := c.st.ReadReg(lv.Reg)
			w := lv.Hi - lv.Lo + 1
			mask := bv.Mask(w) << lv.Lo
			c.st.WriteReg(lv.Reg, old&^mask|(bv.Trunc(v, w)<<lv.Lo))
		case *adl.LocalLV:
			c.locals[lv.Idx] = v
		}
	case *adl.StoreStmt:
		c.st.Store(c.expr(s.Addr), s.Cells, c.expr(s.Val))
	case *adl.IfStmt:
		if c.boolExpr(s.Cond) {
			c.stmts(s.Then)
		} else {
			c.stmts(s.Else)
		}
	case *adl.LocalStmt:
		c.locals[s.Idx] = c.expr(s.Init)
	case *adl.TrapStmt:
		c.res.Trapped = true
		c.res.TrapCode = c.expr(s.Code)
		c.stop = true
	case *adl.HaltStmt:
		c.res.Halted = true
		c.stop = true
	case *adl.ErrorStmt:
		c.res.Fault = s.Msg
		c.stop = true
	default:
		panic(&UnsupportedError{Construct: fmt.Sprintf("%T", s), Evaluator: "conc"})
	}
}

func (c *concCtx) opReg(op *adl.Operand) *adl.Reg {
	return op.File.Regs[c.ops[op.Name]]
}

func (c *concCtx) boolExpr(e adl.Expr) bool {
	switch e := e.(type) {
	case *adl.CmpExpr:
		x, y := c.expr(e.X), c.expr(e.Y)
		w := e.X.Width()
		switch e.Op {
		case adl.CEq:
			return x == y
		case adl.CNe:
			return x != y
		case adl.CULt:
			return bv.ULt(x, y, w)
		case adl.CULe:
			return bv.ULe(x, y, w)
		case adl.CSLt:
			return bv.SLt(x, y, w)
		default:
			return bv.SLe(x, y, w)
		}
	case *adl.BoolExpr:
		switch e.Op {
		case adl.LNot:
			return !c.boolExpr(e.X)
		case adl.LAnd:
			return c.boolExpr(e.X) && c.boolExpr(e.Y)
		default:
			return c.boolExpr(e.X) || c.boolExpr(e.Y)
		}
	default:
		panic(&UnsupportedError{Construct: fmt.Sprintf("%T", e), Evaluator: "conc"})
	}
}

func (c *concCtx) expr(e adl.Expr) uint64 {
	switch e := e.(type) {
	case *adl.ConstExpr:
		return e.Val
	case *adl.RegExpr:
		return c.st.ReadReg(e.Reg)
	case *adl.RegOpExpr:
		return c.st.ReadReg(c.opReg(e.Op))
	case *adl.ImmExpr:
		return bv.Trunc(c.ops[e.Op.Name], e.Op.Bits())
	case *adl.SubExpr:
		return bv.Extract(c.st.ReadReg(e.Reg), e.Hi, e.Lo)
	case *adl.LocalExpr:
		return c.locals[e.Idx]
	case *adl.UnExpr:
		x := c.expr(e.X)
		w := e.X.Width()
		if e.Op == adl.UNot {
			return bv.Not(x, w)
		}
		return bv.Neg(x, w)
	case *adl.BinExpr:
		x, y := c.expr(e.X), c.expr(e.Y)
		w := e.X.Width()
		switch e.Op {
		case adl.BAdd:
			return bv.Add(x, y, w)
		case adl.BSub:
			return bv.Sub(x, y, w)
		case adl.BMul:
			return bv.Mul(x, y, w)
		case adl.BUDiv:
			return bv.UDiv(x, y, w)
		case adl.BURem:
			return bv.URem(x, y, w)
		case adl.BSDiv:
			return bv.SDiv(x, y, w)
		case adl.BSRem:
			return bv.SRem(x, y, w)
		case adl.BAnd:
			return x & y
		case adl.BOr:
			return x | y
		case adl.BXor:
			return x ^ y
		case adl.BShl:
			return bv.Shl(x, y, w)
		case adl.BLShr:
			return bv.LShr(x, y, w)
		default:
			return bv.AShr(x, y, w)
		}
	case *adl.CmpExpr, *adl.BoolExpr:
		if c.boolExpr(e) {
			return 1
		}
		return 0
	case *adl.TernExpr:
		if c.boolExpr(e.Cond) {
			return c.expr(e.T)
		}
		return c.expr(e.F)
	case *adl.ExtractExpr:
		return bv.Extract(c.expr(e.X), e.Hi, e.Lo)
	case *adl.ExtendExpr:
		x := c.expr(e.X)
		if e.Signed {
			return bv.Trunc(bv.SExt(x, e.X.Width()), e.W)
		}
		return x
	case *adl.CatExpr:
		return bv.Concat(c.expr(e.Hi), c.expr(e.Lo), e.Hi.Width(), e.Lo.Width())
	case *adl.LoadExpr:
		return c.st.Load(c.expr(e.Addr), e.Cells)
	default:
		panic(&UnsupportedError{Construct: fmt.Sprintf("%T", e), Evaluator: "conc"})
	}
}
