package isa

import (
	"fmt"
	"strings"
)

// Disasm renders the program as readable assembly, one function per block.
// It is the debugging companion to the binary encoder and is used by the
// halo CLI's `disasm` subcommand to inspect rewritten binaries.
func (p *Program) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %q  entry=%s  globals=%d\n", p.Name, p.Funcs[p.Entry].Name, p.Globals)
	for fi, f := range p.Funcs {
		lib := ""
		if f.Lib {
			lib = " [lib]"
		}
		fmt.Fprintf(&b, "\nfunc %s(%d)%s  ; #%d, %d regs\n", f.Name, f.NParams, lib, fi, f.NRegs)
		for pc, in := range f.Code {
			fmt.Fprintf(&b, "  %4d: %s\n", pc, p.disasmInst(in))
		}
	}
	return b.String()
}

// disasmInst renders one instruction.
func (p *Program) disasmInst(in Inst) string {
	mark := ""
	if in.Addr == NoAddr {
		mark = " ; <synth>"
	}
	switch in.Op {
	case OpNop:
		return "nop" + mark
	case OpConst:
		return fmt.Sprintf("const r%d, %d%s", in.A, in.Imm, mark)
	case OpMov:
		return fmt.Sprintf("mov r%d, r%d%s", in.A, in.B, mark)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr, OpEq, OpNe, OpLt, OpLe:
		return fmt.Sprintf("%s r%d, r%d, r%d%s", in.Op, in.A, in.B, in.C, mark)
	case OpAddImm:
		return fmt.Sprintf("addi r%d, r%d, %d%s", in.A, in.B, in.Imm, mark)
	case OpJmp:
		return fmt.Sprintf("jmp %d%s", in.Imm, mark)
	case OpBz:
		return fmt.Sprintf("bz r%d, %d%s", in.A, in.Imm, mark)
	case OpBnz:
		return fmt.Sprintf("bnz r%d, %d%s", in.A, in.Imm, mark)
	case OpCall:
		target := ""
		if in.Fn.IsExtern() {
			target = in.Fn.ExternOf().String()
		} else if int(in.Fn) < len(p.Funcs) {
			target = p.Funcs[in.Fn].Name
		} else {
			target = fmt.Sprintf("fn#%d", in.Fn)
		}
		return fmt.Sprintf("call r%d, %s(r%d:%d)%s", in.A, target, in.B, in.C, mark)
	case OpCallInd:
		return fmt.Sprintf("icall r%d, [r%d](r%d:%d)%s", in.A, in.D, in.B, in.C, mark)
	case OpRet:
		return fmt.Sprintf("ret r%d%s", in.A, mark)
	case OpLoad:
		return fmt.Sprintf("load%d r%d, [r%d%+d]%s", in.Size, in.A, in.B, in.Imm, mark)
	case OpStore:
		return fmt.Sprintf("store%d [r%d%+d], r%d%s", in.Size, in.B, in.Imm, in.A, mark)
	case OpGroupSet:
		return fmt.Sprintf("gset %d%s", in.Imm, mark)
	case OpGroupClr:
		return fmt.Sprintf("gclr %d%s", in.Imm, mark)
	case OpHalt:
		return "halt" + mark
	}
	return fmt.Sprintf("%s ???%s", in.Op, mark)
}
