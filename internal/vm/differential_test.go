package vm

import (
	"math/rand"
	"testing"

	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/prog"
)

// The differential harness: random well-defined programs run through the
// reference switch interpreter and the predecoded threaded dispatcher,
// which must agree on everything observable — result, error, retired-step
// and load/store counts, and the complete event stream — at any batch size
// and at any step budget.

// captureSink accumulates the complete event stream across flushes.
type captureSink struct{ events []Event }

func (c *captureSink) ConsumeEvents(batch []Event) {
	c.events = append(c.events, batch...)
}

const fuzzBufSize = 256

// genOps emits n random operations into f. Inline divisors are non-zero,
// memory accesses stay inside the buf/big scratch buffers and loops are
// bounded; the only trap a generated program can reach is leaf_divp's
// division or mod by a zero argument. Common adjacent idioms —
// pairs (const+add, cmp+branch, addi+load, load+add, const+store,
// load+store) and triples (const+add+load, load+cmp+branch,
// addi+load+add) — are emitted deliberately and repeatedly, and big spans
// tlbSize+ pages so direct-mapped TLB slot collisions (two pages, same
// index) occur.
func genOps(rng *rand.Rand, f *prog.FuncBuilder, temps []prog.Reg, buf, big prog.Reg, callees []string, n int) {
	rr := func() prog.Reg { return temps[rng.Intn(len(temps))] }
	off := func(size int64) int64 { return rng.Int63n(fuzzBufSize - size + 1) }
	nz := f.ConstReg(int64(rng.Intn(7)) + 1) // safe divisor
	for i := 0; i < n; i++ {
		switch rng.Intn(20) {
		case 0:
			f.Const(rr(), rng.Int63n(1<<20)-1<<19)
		case 1:
			f.Add(rr(), rr(), rr())
		case 2:
			f.Sub(rr(), rr(), rr())
		case 3:
			f.Mul(rr(), rr(), rr())
		case 4:
			if rng.Intn(2) == 0 {
				f.Div(rr(), rr(), nz)
			} else {
				f.Mod(rr(), rr(), nz)
			}
		case 5:
			f.AddImm(rr(), rr(), rng.Int63n(64)-32)
		case 6:
			sz := uint8(1 << rng.Intn(4))
			f.Load(rr(), buf, off(int64(sz)), sz)
		case 7:
			sz := uint8(1 << rng.Intn(4))
			f.Store(buf, off(int64(sz)), rr(), sz)
		case 8: // const+add
			f.Const(rr(), rng.Int63n(100))
			f.Add(rr(), rr(), rr())
		case 9: // cmp+branch over a skipped op
			c := rr()
			switch rng.Intn(4) {
			case 0:
				f.Eq(c, rr(), rr())
			case 1:
				f.Ne(c, rr(), rr())
			case 2:
				f.Lt(c, rr(), rr())
			default:
				f.Le(c, rr(), rr())
			}
			skip := f.NewLabel()
			if rng.Intn(2) == 0 {
				f.Bz(c, skip)
			} else {
				f.Bnz(c, skip)
			}
			f.AddImm(rr(), rr(), 1)
			f.Bind(skip)
		case 10: // addi+load
			d := rr()
			f.AddImm(d, rr(), rng.Int63n(16))
			f.Load(rr(), buf, off(8), 8)
		case 11: // load+add
			f.Load(rr(), buf, off(8), 8)
			f.Add(rr(), rr(), rr())
		case 12: // const+store
			v := rr()
			f.Const(v, rng.Int63n(1<<16))
			f.Store(buf, off(8), v, 8)
		case 13: // load+store
			v := rr()
			f.Load(v, buf, off(4), 4)
			f.Store(buf, off(4), v, 4)
		case 14:
			if len(callees) > 0 {
				f.Mov(rr(), f.Call(callees[rng.Intn(len(callees))], rr(), rr()))
			} else {
				f.Xor(rr(), rr(), rr())
			}
		case 15: // const+add+load
			f.Const(rr(), rng.Int63n(64))
			f.Add(rr(), rr(), rr())
			f.Load(rr(), buf, off(8), 8)
		case 16: // load+cmp+branch triple over a skipped op
			v := rr()
			f.Load(v, buf, off(8), 8)
			c := rr()
			switch rng.Intn(4) {
			case 0:
				f.Eq(c, v, rr())
			case 1:
				f.Ne(c, v, rr())
			case 2:
				f.Lt(c, v, rr())
			default:
				f.Le(c, v, rr())
			}
			skip := f.NewLabel()
			if rng.Intn(2) == 0 {
				f.Bz(c, skip)
			} else {
				f.Bnz(c, skip)
			}
			f.AddImm(rr(), rr(), 1)
			f.Bind(skip)
		case 17: // addi+load+add triple
			f.AddImm(rr(), rr(), rng.Int63n(16))
			f.Load(rr(), buf, off(8), 8)
			f.Add(rr(), rr(), rr())
		case 18: // TLB slot collision: two pages, same direct-mapped index
			const stride = tlbSize * mem.PageSize
			v := rr()
			f.Store(big, 0, v, 8)
			f.Store(big, stride, v, 8)
			f.Load(rr(), big, 0, 8)
			f.Load(rr(), big, stride, 8)
		default:
			f.Mov(rr(), f.RandConst(1000))
		}
	}
}

// fuzzBigSize spans the whole direct-mapped TLB plus one slack page, so
// stride-tlbSize*PageSize accesses collide in one slot.
const fuzzBigSize = (tlbSize+1)*mem.PageSize + 64

// genProgram builds a deterministic random program: two straight-line
// helpers, three lib leaf functions (one straight-line, one that divides
// by 3, and one that divides or mods by its second argument, so a zero
// argument traps in the callee's frame), and a main
// that mixes direct computation, loops, calls and memory traffic over a
// small scratch buffer plus a TLB-spanning big buffer.
func genProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := prog.NewBuilder("fuzz")

	{ // straight-line, tiny, no trapping ops
		h := b.LibFunc("leaf_inl", 2)
		r := h.Reg()
		h.Add(r, h.Param(0), h.Param(1))
		h.AddImm(r, r, rng.Int63n(16))
		h.Ret(r)
	}
	{ // contains div, a trap that reports the callee's frame
		h := b.LibFunc("leaf_div", 2)
		r := h.Reg()
		three := h.ConstReg(3)
		h.Div(r, h.Param(0), three)
		h.Add(r, r, h.Param(1))
		h.Ret(r)
	}
	{ // div or mod by the caller's operand, on the dividend's low bit
		h := b.LibFunc("leaf_divp", 2)
		r := h.Reg()
		h.And(r, h.Param(0), h.ConstReg(1))
		mod := h.NewLabel()
		h.Bz(r, mod)
		h.Div(r, h.Param(0), h.Param(1))
		h.Ret(r)
		h.Bind(mod)
		h.Mod(r, h.Param(0), h.Param(1))
		h.Ret(r)
	}

	for _, name := range []string{"h1", "h2"} {
		h := b.Func(name, 2)
		sz := h.ConstReg(fuzzBufSize)
		buf := h.Malloc(sz)
		bsz := h.ConstReg(fuzzBigSize)
		big := h.Malloc(bsz)
		temps := []prog.Reg{h.Param(0), h.Param(1)}
		for i := 0; i < 3; i++ {
			temps = append(temps, h.ConstReg(rng.Int63n(50)))
		}
		genOps(rng, h, temps, buf, big, []string{"leaf_inl", "leaf_div", "leaf_divp"}, 6+rng.Intn(10))
		h.Free(big)
		h.Free(buf)
		h.Ret(temps[rng.Intn(len(temps))])
	}

	f := b.Func("main", 0)
	sz := f.ConstReg(fuzzBufSize)
	buf := f.Malloc(sz)
	bsz := f.ConstReg(fuzzBigSize)
	big := f.Malloc(bsz)
	temps := make([]prog.Reg, 0, 6)
	for i := 0; i < 6; i++ {
		temps = append(temps, f.ConstReg(rng.Int63n(100)))
	}
	callees := []string{"h1", "h2", "leaf_inl", "leaf_div", "leaf_divp"}
	genOps(rng, f, temps, buf, big, callees, 8+rng.Intn(12))
	for l := 0; l < 2+rng.Intn(2); l++ {
		f.LoopN(2+rng.Int63n(4), func(prog.Reg) {
			genOps(rng, f, temps, buf, big, callees, 4+rng.Intn(8))
		})
	}
	f.Free(big)
	f.Free(buf)
	acc := f.Reg()
	f.Const(acc, 0)
	for _, r := range temps {
		f.Add(acc, acc, r)
	}
	f.Ret(acc)
	return b.MustBuild()
}

// runOutcome is everything observable about one execution.
type runOutcome struct {
	res    int64
	err    string
	steps  uint64
	loads  uint64
	stores uint64
	events []Event
}

func runEngine(p *isa.Program, mode DispatchMode, batch int, maxSteps uint64) runOutcome {
	m := mem.NewMemory()
	sink := &captureSink{}
	v := New(p, m, newBump(m), sink, Config{
		Seed: 99, Dispatch: mode, BatchSize: batch, MaxSteps: maxSteps,
	})
	res, err := v.Run()
	out := runOutcome{res: res, steps: v.Steps(), loads: v.Loads(), stores: v.Stores(), events: sink.events}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

func diffOutcomes(t *testing.T, label string, ref, got runOutcome) {
	t.Helper()
	if got.res != ref.res || got.err != ref.err {
		t.Errorf("%s: result %d err %q, want %d %q", label, got.res, got.err, ref.res, ref.err)
	}
	if got.steps != ref.steps || got.loads != ref.loads || got.stores != ref.stores {
		t.Errorf("%s: steps/loads/stores %d/%d/%d, want %d/%d/%d",
			label, got.steps, got.loads, got.stores, ref.steps, ref.loads, ref.stores)
	}
	if len(got.events) != len(ref.events) {
		t.Errorf("%s: %d events, want %d", label, len(got.events), len(ref.events))
		return
	}
	for i := range got.events {
		if got.events[i] != ref.events[i] {
			t.Errorf("%s: event %d = %+v, want %+v", label, i, got.events[i], ref.events[i])
			return
		}
	}
}

// diffProgram checks both engines agree on a program at several batch
// sizes and step budgets.
func diffProgram(t *testing.T, p *isa.Program, seed int64) {
	t.Helper()
	ref := runEngine(p, DispatchSwitch, 1, 0)
	budgets := []uint64{0} // 0 = default (run to completion)
	if ref.steps > 4 {
		budgets = append(budgets, ref.steps-1, ref.steps/2, ref.steps/3+1, 7)
	}
	for _, ms := range budgets {
		r := ref
		if ms != 0 {
			r = runEngine(p, DispatchSwitch, 1, ms)
		}
		for _, batch := range []int{1, 64, 4096} {
			got := runEngine(p, DispatchThreaded, batch, ms)
			diffOutcomes(t, prettyLabel(seed, ms, batch), r, got)
		}
	}
}

func prettyLabel(seed int64, maxSteps uint64, batch int) string {
	return "seed=" + itoa(seed) + " maxSteps=" + itoa(int64(maxSteps)) + " batch=" + itoa(int64(batch))
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestDispatchDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		diffProgram(t, genProgram(seed), seed)
	}
}

// FuzzDispatchDifferential drives the same comparison from the fuzzer:
// any seed must produce identical observable behaviour on both engines.
// The seed corpus is chosen so the generated programs hit the three-op
// idioms, straight-line leaf calls and TLB index-collision address
// patterns (genOps cases 15-18) as well as the original pair idioms.
func FuzzDispatchDifferential(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 12345, 31, 77, 4242, 98765} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffProgram(t, genProgram(seed), seed)
	})
}
