// Threaded dispatch: the predecoded execution core. A handler table
// indexed by decoded opcode replaces the reference interpreter's giant
// switch (vm.go), in the style of classic func-table ISA simulators — with
// the hottest paths kept inline in the loop itself: loads and stores (the
// event-emit fast path), constants, adds, branches and calls/returns.
// Everything else costs one indirect call through the table. Every step
// executes exactly one decoded record.
//
// Hot state lives in locals for the whole run — pc, step/load/store
// counters, the register window — and is written back to the VM and frame
// only at call boundaries and exits, so the per-instruction loop touches no
// VM fields except the event buffer.
package vm

import (
	"encoding/binary"
	"errors"

	"halo/internal/isa"
	"halo/internal/mem"
)

// dhandler executes one table-dispatched instruction and returns the next
// pc. Errors are sentinel trap causes; the loop wraps them with frame
// context.
type dhandler func(v *VM, in *dinst, regs []int64, pc int) (int, error)

// Sentinel trap causes for table handlers, formatted exactly like the
// reference interpreter's messages.
var (
	errDivZero = errors.New("division by zero")
	errModZero = errors.New("mod by zero")
)

// dtab is the handler table. Slots the loop handles inline are backed by
// hIllegal for safety; they are never reached through the table.
var dtab = [dopCount]dhandler{}

func init() {
	for i := range dtab {
		dtab[i] = hIllegal
	}
	dtab[dNop] = hNop
	dtab[dMov] = hMov
	dtab[dSub] = hSub
	dtab[dMul] = hMul
	dtab[dDiv] = hDiv
	dtab[dMod] = hMod
	dtab[dAnd] = hAnd
	dtab[dOr] = hOr
	dtab[dXor] = hXor
	dtab[dShl] = hShl
	dtab[dShr] = hShr
	dtab[dEq] = hEq
	dtab[dNe] = hNe
	dtab[dLt] = hLt
	dtab[dLe] = hLe
	dtab[dGroupSet] = hGroupSet
	dtab[dGroupClr] = hGroupClr
}

func hIllegal(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	return 0, &illegalOp{op: isa.Opcode(in.imm)}
}

// illegalOp formats the reference interpreter's illegal-opcode trap cause.
type illegalOp struct{ op isa.Opcode }

func (e *illegalOp) Error() string { return "illegal opcode " + e.op.String() }

func hNop(v *VM, in *dinst, regs []int64, pc int) (int, error) { return pc + 1, nil }
func hMov(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = regs[in.b]
	return pc + 1, nil
}
func hSub(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = regs[in.b] - regs[in.c]
	return pc + 1, nil
}
func hMul(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = regs[in.b] * regs[in.c]
	return pc + 1, nil
}
func hDiv(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	if regs[in.c] == 0 {
		return 0, errDivZero
	}
	regs[in.a] = regs[in.b] / regs[in.c]
	return pc + 1, nil
}
func hMod(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	if regs[in.c] == 0 {
		return 0, errModZero
	}
	regs[in.a] = regs[in.b] % regs[in.c]
	return pc + 1, nil
}
func hAnd(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = regs[in.b] & regs[in.c]
	return pc + 1, nil
}
func hOr(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = regs[in.b] | regs[in.c]
	return pc + 1, nil
}
func hXor(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = regs[in.b] ^ regs[in.c]
	return pc + 1, nil
}
func hShl(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = regs[in.b] << (uint64(regs[in.c]) & 63)
	return pc + 1, nil
}
func hShr(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = int64(uint64(regs[in.b]) >> (uint64(regs[in.c]) & 63))
	return pc + 1, nil
}
func hEq(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = b2i(regs[in.b] == regs[in.c])
	return pc + 1, nil
}
func hNe(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = b2i(regs[in.b] != regs[in.c])
	return pc + 1, nil
}
func hLt(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = b2i(regs[in.b] < regs[in.c])
	return pc + 1, nil
}
func hLe(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	regs[in.a] = b2i(regs[in.b] <= regs[in.c])
	return pc + 1, nil
}
func hGroupSet(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	v.group.Set(int(in.imm))
	return pc + 1, nil
}
func hGroupClr(v *VM, in *dinst, regs []int64, pc int) (int, error) {
	v.group.Clear(int(in.imm))
	return pc + 1, nil
}

const pageMask = mem.PageSize - 1

// Direct-mapped software TLB geometry: 1<<tlbBits entries indexed by the
// low page-number bits. 16 entries covers the working sets of the
// pointer-chasing workloads (omnetpp's event lists walk several pages per
// loop iteration, which thrashed the previous one-entry cache); the sweep
// in EXPERIMENTS.md pins the choice.
const (
	tlbBits = 4
	tlbSize = 1 << tlbBits
)

// tlbEntry caches one resolved page. tag is the page number + 1 (0 =
// empty). Entries are only ever installed for materialised pages, so
// page is non-nil whenever tag != 0 — a tag match grants both read and
// write without a nil re-check on the store path. Reads of untouched
// pages return zeros without installing anything; the first store to such
// a page misses, materialises it via PageFor(create), and installs it.
type tlbEntry struct {
	tag  uint64 // page number + 1 (0 = empty)
	gen  uint64 // flush generation the entry was installed in
	page *[mem.PageSize]byte
}

// tlbFlush invalidates the MRU filter and every direct-mapped entry.
// Called at run start and after every extern, since allocators can unmap,
// purge or recreate pages. Externs are frequent (every malloc/free), so
// the array is invalidated in O(1) by bumping the generation stamp instead
// of zeroing it; entries from older generations simply fail the gen check
// in tlbFill.
func (v *VM) tlbFlush() {
	v.tlbID, v.tlbPage = 0, nil
	v.tlbGen++
}

// tlbFill is the shared fill path behind the MRU filter: it consults the
// direct-mapped array and, on a true miss, resolves the page through
// Memory.PageFor. A nil return means a load touched a page that was never
// written (reads as zeros; nothing is installed, preserving the non-nil
// invariant). write fills always materialise and never return nil. On
// success both the array entry and the MRU filter point at the page.
//
//halo:hot
func (v *VM) tlbFill(addr, pn1 uint64, write bool) *[mem.PageSize]byte {
	e := &v.tlb[(pn1-1)&(tlbSize-1)]
	if e.tag != pn1 || e.gen != v.tlbGen {
		v.tlbMiss++
		p := v.mem.PageFor(addr, write)
		if p == nil {
			return nil
		}
		e.tag, e.gen, e.page = pn1, v.tlbGen, p
	}
	v.tlbID, v.tlbPage = pn1, e.page
	return e.page
}

// loadFast reads size bytes at addr through the dispatcher's direct-mapped
// software TLB, turning the per-byte page-map lookups of Memory.Read into
// a single in-page little-endian load on the (overwhelmingly common) hit
// path. Page-straddling accesses fall back to the reference byte path,
// which keeps the semantics identical.
//
//halo:hot
func (v *VM) loadFast(addr uint64, size uint8) uint64 {
	off := addr & pageMask
	if off+uint64(size) > mem.PageSize {
		v.tlbBypass++
		return v.mem.Read(addr, size)
	}
	pn1 := (addr >> mem.PageShift) + 1
	p := v.tlbPage
	if pn1 != v.tlbID {
		if p = v.tlbFill(addr, pn1, false); p == nil {
			return 0 // untouched page reads as zeros; never cached
		}
	}
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(p[off:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[off:]))
	case 2:
		return uint64(binary.LittleEndian.Uint16(p[off:]))
	case 1:
		return uint64(p[off])
	default:
		return v.mem.Read(addr, size) // unreachable for validated programs
	}
}

// storeFast is the store-side TLB path; see loadFast. Store misses
// materialise the page, exactly as Memory.Write does; store hits write
// straight through the entry — the non-nil invariant makes the old
// per-store nil re-check unnecessary.
//
//halo:hot
func (v *VM) storeFast(addr uint64, size uint8, val uint64) {
	off := addr & pageMask
	if off+uint64(size) > mem.PageSize {
		v.tlbBypass++
		v.mem.Write(addr, size, val)
		return
	}
	pn1 := (addr >> mem.PageShift) + 1
	p := v.tlbPage
	if pn1 != v.tlbID {
		p = v.tlbFill(addr, pn1, true) // write fills always materialise
	}
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(p[off:], val)
	case 4:
		binary.LittleEndian.PutUint32(p[off:], uint32(val))
	case 2:
		binary.LittleEndian.PutUint16(p[off:], uint16(val))
	case 1:
		p[off] = byte(val)
	default:
		v.mem.Write(addr, size, val) // unreachable for validated programs
	}
}

// errFrameUnderflow is preallocated so the dispatch loop's exit check
// stays allocation-free.
var errFrameUnderflow = errors.New("vm: frame stack underflow")

// runThreaded executes the decoded program. Entry frame and registers have
// been set up by Run.
//
//halo:hot
func (v *VM) runThreaded(dp *Decoded) (res int64, err error) {
	limit := v.cfg.MaxSteps
	sinkOn := v.sink != nil
	steps, loads, stores := v.steps, v.loads, v.stores
	// Counter writeback on every exit path; break inner only re-enters the
	// outer loop, which never reads them.
	sync := func() { //halo:hotalloc-ok non-escaping closure, called only below; it never leaves the stack
		v.steps, v.loads, v.stores = steps, loads, stores
	}

	for {
		if len(v.frames) == 0 {
			sync()
			return 0, errFrameUnderflow
		}
		f := &v.frames[len(v.frames)-1]
		fc := &dp.funcs[f.fn]
		code := fc.code
		regs := v.regs[f.base : f.base+fc.nregs]
		pc := f.pc

	inner:
		for {
			if pc >= len(code) {
				f.pc = pc
				sync()
				return 0, v.trap(*f, "fell off function end")
			}
			if steps >= limit {
				f.pc = pc
				sync()
				return 0, ErrMaxSteps
			}
			in := &code[pc]
			steps++
			switch in.op {
			case dConst:
				regs[in.a] = in.imm
				pc++
			case dAdd:
				regs[in.a] = regs[in.b] + regs[in.c]
				pc++
			case dAddImm:
				regs[in.a] = regs[in.b] + in.imm
				pc++
			case dLoad:
				addr := uint64(regs[in.b] + in.imm)
				if sinkOn {
					// Inlined emit: the hottest observation site.
					v.events = append(v.events, Event{Kind: EvAccess, Addr: addr, Size: in.size})
					if len(v.events) == cap(v.events) {
						v.flushEvents()
					}
				}
				loads++
				regs[in.a] = int64(v.loadFast(addr, in.size))
				pc++
			case dStore:
				addr := uint64(regs[in.b] + in.imm)
				if sinkOn {
					v.events = append(v.events, Event{Kind: EvAccess, Addr: addr, Size: in.size, Write: true})
					if len(v.events) == cap(v.events) {
						v.flushEvents()
					}
				}
				stores++
				v.storeFast(addr, in.size, uint64(regs[in.a]))
				pc++
			case dJmp:
				pc = int(in.imm)
			case dBz:
				if regs[in.a] == 0 {
					pc = int(in.imm)
				} else {
					pc++
				}
			case dBnz:
				if regs[in.a] != 0 {
					pc = int(in.imm)
				} else {
					pc++
				}

			// ---- control transfers ----
			case dRet:
				val := regs[in.a]
				if f.entry {
					sync()
					return val, nil
				}
				if sinkOn {
					v.emit(Event{Kind: EvReturn, Fn: int32(f.fn)})
				}
				dst, ret, base := f.dst, f.ret, f.base
				v.frames = v.frames[:len(v.frames)-1]
				v.regs = v.regs[:base]
				pf := &v.frames[len(v.frames)-1]
				v.regs[pf.base+int(dst)] = val
				pf.pc = ret
				break inner
			case dCall, dCallInd:
				var target int32
				if in.op == dCall {
					target = in.fn
				} else {
					t := regs[in.d]
					if t < 0 || t >= int64(len(v.prog.Funcs)) {
						f.pc = pc
						sync()
						return 0, v.trap(*f, "indirect call to bad function index %d", t) //halo:hotalloc-ok cold trap exit: execution ends here
					}
					target = int32(t)
				}
				if len(v.frames) >= v.cfg.MaxDepth {
					f.pc = pc
					sync()
					return 0, v.trap(*f, "call stack overflow (%d frames)", len(v.frames)) //halo:hotalloc-ok cold trap exit: execution ends here
				}
				callee := &dp.funcs[target]
				if int(in.c) != callee.nparams {
					f.pc = pc
					sync()
					return 0, v.trap(*f, "call to %s with %d args, want %d",
						v.prog.Funcs[target].Name, in.c, callee.nparams) //halo:hotalloc-ok cold trap exit: execution ends here
				}
				newBase := len(v.regs)
				v.regs = append(v.regs, make([]int64, callee.nregs)...) //halo:hotalloc-ok append(s, make(...)...) extends in place; the compiler elides the temporary
				for i := 0; i < int(in.c); i++ {
					v.regs[newBase+i] = regs[int(in.b)+i]
				}
				v.frames = append(v.frames, frame{
					fn:   int(target),
					base: newBase,
					dst:  in.a,
					ret:  pc + 1,
				})
				if sinkOn {
					v.emit(Event{Kind: EvCall, Site: in.addr, Fn: target})
				}
				break inner
			case dCallExt:
				f.pc = pc
				sync()
				res, err := v.callExtern(f, in.addr, in.b, in.c, regs, isa.Extern(in.fn))
				// The extern may have unmapped, purged or recreated pages.
				v.tlbFlush()
				if err != nil {
					return 0, err
				}
				if v.halted {
					return res, nil
				}
				regs[in.a] = res
				pc++
			case dHalt:
				sync()
				return 0, nil
			default:
				npc, herr := dtab[in.op](v, in, regs, pc)
				if herr != nil {
					f.pc = pc
					sync()
					return 0, v.trap(*f, "%s", herr)
				}
				pc = npc
			}
		}
	}
}
