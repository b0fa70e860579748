// Per-function predecoder: lowers isa.Inst once into a dense, decoded form
// the threaded dispatch loop (dispatch.go) executes directly, one decoded
// record per isa instruction. Decoding happens exactly once per program —
// the result is cached on the *isa.Program itself, so fan-out trials over
// internal/pool and repeated halod training runs share one decode.
package vm

import (
	"halo/internal/isa"
	"halo/internal/obs"
)

// dop is a decoded opcode, the threaded dispatcher's switch tag.
type dop uint8

// Decoded opcodes. They mirror isa's, with calls split by target kind.
const (
	dIllegal dop = iota // undefined isa opcode; traps when reached
	dNop
	dConst
	dMov
	dAdd
	dSub
	dMul
	dDiv
	dMod
	dAnd
	dOr
	dXor
	dShl
	dShr
	dAddImm
	dEq
	dNe
	dLt
	dLe
	dJmp
	dBz
	dBnz
	dCall    // direct internal call; fn holds the callee index
	dCallExt // external call, pre-classified; fn holds the isa.Extern
	dCallInd
	dRet
	dLoad
	dStore
	dGroupSet
	dGroupClr
	dHalt
	dopCount
)

// dinst is one decoded instruction: operands pulled out of the packed
// isa.Inst encoding into directly indexable fields, call targets and
// externs pre-classified. 24 bytes, accessed by pointer in the dispatch
// loop (the seed interpreter copied the 32-byte isa.Inst per step).
type dinst struct {
	op         dop
	size       uint8 // load/store access width
	a, b, c, d uint8
	fn         int32    // dCall callee index; dCallExt extern id
	addr       isa.Addr // call-site address (EvCall, alloc sites)
	imm        int64
}

// dfunc is one function's decoded body plus the frame geometry the call
// path needs, kept dense beside the code for locality.
type dfunc struct {
	code    []dinst
	nregs   int
	nparams int
}

// Decoded is a program lowered for the threaded dispatcher. Instances are
// immutable after construction and shared freely between VMs.
type Decoded struct {
	funcs []dfunc
}

// Predecode returns the program's decoded form, lowering it on first use
// and caching the result on the program. Safe for concurrent use: racing
// decoders produce identical values and the last atomic store wins.
// Callers that fan a program out over a worker pool (internal/measure)
// pre-warm the cache once to avoid redundant racing decodes.
func Predecode(p *isa.Program) *Decoded {
	if c := p.DecodeCache(); c != nil {
		if d, ok := c.(*Decoded); ok {
			if obs.Enabled() {
				mPredecodeHits.Inc()
			}
			return d
		}
	}
	if obs.Enabled() {
		mPredecodeMisses.Inc()
	}
	d := decodeProgram(p)
	p.SetDecodeCache(d)
	return d
}

// opMap lowers defined isa opcodes to their decoded counterparts.
var opMap = [...]dop{
	isa.OpNop: dNop, isa.OpConst: dConst, isa.OpMov: dMov,
	isa.OpAdd: dAdd, isa.OpSub: dSub, isa.OpMul: dMul, isa.OpDiv: dDiv,
	isa.OpMod: dMod, isa.OpAnd: dAnd, isa.OpOr: dOr, isa.OpXor: dXor,
	isa.OpShl: dShl, isa.OpShr: dShr, isa.OpAddImm: dAddImm,
	isa.OpEq: dEq, isa.OpNe: dNe, isa.OpLt: dLt, isa.OpLe: dLe,
	isa.OpJmp: dJmp, isa.OpBz: dBz, isa.OpBnz: dBnz,
	isa.OpCall: dCall, isa.OpCallInd: dCallInd, isa.OpRet: dRet,
	isa.OpLoad: dLoad, isa.OpStore: dStore,
	isa.OpGroupSet: dGroupSet, isa.OpGroupClr: dGroupClr,
	isa.OpHalt: dHalt,
}

// decodeInst lowers one instruction.
func decodeInst(in isa.Inst) dinst {
	d := dinst{
		size: in.Size, a: in.A, b: in.B, c: in.C, d: in.D,
		imm: in.Imm, addr: in.Addr,
	}
	if !in.Op.Valid() {
		// Preserve the reference interpreter's lazy trap: the illegal
		// opcode only faults if execution reaches it.
		d.op = dIllegal
		d.imm = int64(in.Op)
		return d
	}
	d.op = opMap[in.Op]
	if in.Op == isa.OpCall {
		if in.Fn.IsExtern() {
			d.op = dCallExt
			d.fn = int32(in.Fn.ExternOf())
		} else {
			d.fn = int32(in.Fn)
		}
	}
	return d
}

// decodeProgram lowers every function. Fully deterministic: the same
// program always decodes to the same Decoded.
func decodeProgram(p *isa.Program) *Decoded {
	d := &Decoded{funcs: make([]dfunc, len(p.Funcs))}
	for fi, f := range p.Funcs {
		code := make([]dinst, len(f.Code))
		for pc, in := range f.Code {
			code[pc] = decodeInst(in)
		}
		d.funcs[fi] = dfunc{code: code, nregs: f.NRegs, nparams: f.NParams}
	}
	return d
}
