package vm

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"

	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/prog"
)

// bumpAlloc is a trivial allocator for VM tests.
type bumpAlloc struct {
	next  uint64
	sizes map[uint64]uint64
	m     *mem.Memory
	frees int
}

func newBump(m *mem.Memory) *bumpAlloc {
	return &bumpAlloc{next: mem.HeapBase, sizes: map[uint64]uint64{}, m: m}
}

func (b *bumpAlloc) Malloc(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	p := b.next
	b.next += (size + 7) &^ 7
	b.sizes[p] = size
	return p
}
func (b *bumpAlloc) Calloc(n, size uint64) uint64 { return b.Malloc(n * size) }
func (b *bumpAlloc) Realloc(p, size uint64) uint64 {
	np := b.Malloc(size)
	old := b.sizes[p]
	if old > size {
		old = size
	}
	b.m.Copy(np, p, old)
	return np
}
func (b *bumpAlloc) Free(p uint64) { b.frees++ }

func run(t *testing.T, build func(b *prog.Builder), cfg Config) (int64, *VM) {
	t.Helper()
	b := prog.NewBuilder("test")
	build(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	v := New(p, m, newBump(m), nil, cfg)
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, v
}

func TestArithmetic(t *testing.T) {
	res, _ := run(t, func(b *prog.Builder) {
		f := b.Func("main", 0)
		a := f.ConstReg(21)
		two := f.ConstReg(2)
		r := f.Reg()
		f.Mul(r, a, two)
		f.Ret(r)
	}, Config{})
	if res != 42 {
		t.Fatalf("got %d", res)
	}
}

func TestCallsAndReturns(t *testing.T) {
	res, _ := run(t, func(b *prog.Builder) {
		sq := b.Func("square", 1)
		r := sq.Reg()
		sq.Mul(r, sq.Param(0), sq.Param(0))
		sq.Ret(r)

		f := b.Func("main", 0)
		x := f.ConstReg(7)
		y := f.Call("square", x)
		f.Ret(y)
	}, Config{})
	if res != 49 {
		t.Fatalf("got %d", res)
	}
}

func TestRecursion(t *testing.T) {
	res, _ := run(t, func(b *prog.Builder) {
		fib := b.Func("fib", 1)
		n := fib.Param(0)
		two := fib.ConstReg(2)
		cond := fib.Reg()
		fib.Lt(cond, n, two)
		rec := fib.NewLabel()
		fib.Bz(cond, rec)
		fib.Ret(n)
		fib.Bind(rec)
		a := fib.Reg()
		fib.AddImm(a, n, -1)
		r1 := fib.Call("fib", a)
		bb := fib.Reg()
		fib.AddImm(bb, n, -2)
		r2 := fib.Call("fib", bb)
		sum := fib.Reg()
		fib.Add(sum, r1, r2)
		fib.Ret(sum)

		f := b.Func("main", 0)
		x := f.ConstReg(10)
		f.Ret(f.Call("fib", x))
	}, Config{})
	if res != 55 {
		t.Fatalf("fib(10) = %d, want 55", res)
	}
}

func TestIndirectCall(t *testing.T) {
	res, _ := run(t, func(b *prog.Builder) {
		inc := b.Func("inc", 1)
		r := inc.Reg()
		inc.AddImm(r, inc.Param(0), 1)
		inc.Ret(r)
		dbl := b.Func("dbl", 1)
		r2 := dbl.Reg()
		dbl.Add(r2, dbl.Param(0), dbl.Param(0))
		dbl.Ret(r2)

		f := b.Func("main", 0)
		fn := f.Reg()
		f.ConstFunc(fn, "dbl")
		x := f.ConstReg(21)
		f.Ret(f.CallInd(fn, x))
	}, Config{})
	if res != 42 {
		t.Fatalf("got %d", res)
	}
}

func TestLoadStoreAndGlobals(t *testing.T) {
	res, _ := run(t, func(b *prog.Builder) {
		b.Globals(2)
		f := b.Func("main", 0)
		x := f.ConstReg(123)
		f.StoreGlobal(1, x)
		y := f.Reg()
		f.LoadGlobal(y, 1)
		f.Ret(y)
	}, Config{})
	if res != 123 {
		t.Fatalf("got %d", res)
	}
}

func TestMallocFreeEvents(t *testing.T) {
	b := prog.NewBuilder("test")
	f := b.Func("main", 0)
	size := f.ConstReg(24)
	p := f.Malloc(size)
	v := f.ConstReg(7)
	f.StoreWord(p, 0, v)
	got := f.Reg()
	f.LoadWord(got, p, 0)
	f.Free(p)
	f.Ret(got)
	pr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	sink := &recordSink{}
	machine := New(pr, m, newBump(m), sink, Config{})
	res, err := machine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res != 7 {
		t.Fatalf("heap round trip = %d", res)
	}
	var events []Event
	for _, ev := range sink.events {
		if ev.Kind == EvAlloc {
			events = append(events, ev)
		}
	}
	if len(events) != 2 || events[0].AKind != KindMalloc || events[1].AKind != KindFree {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Bytes != 24 || events[0].Addr == 0 {
		t.Fatalf("malloc event = %+v", events[0])
	}
	if events[0].Site == isa.NoAddr {
		t.Fatal("malloc site missing")
	}
}

func TestCallHooksBalance(t *testing.T) {
	b := prog.NewBuilder("test")
	leaf := b.Func("leaf", 0)
	leaf.RetConst(1)
	mid := b.Func("mid", 0)
	mid.Ret(mid.Call("leaf"))
	f := b.Func("main", 0)
	f.LoopN(3, func(prog.Reg) { f.Call("mid") })
	f.RetConst(0)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	sink := &recordSink{}
	if _, err := New(p, m, newBump(m), sink, Config{}).Run(); err != nil {
		t.Fatal(err)
	}
	depth, maxDepth, calls := 0, 0, 0
	for _, ev := range sink.events {
		switch ev.Kind {
		case EvCall:
			depth++
			calls++
			maxDepth = max(maxDepth, depth)
		case EvReturn:
			depth--
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced call/return events: depth %d", depth)
	}
	if calls != 6 || maxDepth != 2 {
		t.Fatalf("calls=%d maxDepth=%d", calls, maxDepth)
	}
}

func TestGroupStateOps(t *testing.T) {
	b := prog.NewBuilder("test")
	f := b.Func("main", 0)
	f.RetConst(0)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Hand-insert group ops (normally the rewriter's job).
	p.Funcs[0].Code = append([]isa.Inst{
		{Op: isa.OpGroupSet, Imm: 3},
		{Op: isa.OpGroupSet, Imm: 5},
		{Op: isa.OpGroupClr, Imm: 3},
	}, p.Funcs[0].Code...)
	p.Link()
	m := mem.NewMemory()
	v := New(p, m, newBump(m), nil, Config{})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.GroupState().Test(3) || !v.GroupState().Test(5) {
		t.Fatalf("group state = %s", v.GroupState())
	}
}

func TestRandDeterminism(t *testing.T) {
	build := func(b *prog.Builder) {
		f := b.Func("main", 0)
		sum := f.ConstReg(0)
		f.LoopN(10, func(prog.Reg) {
			r := f.RandConst(100)
			f.Add(sum, sum, r)
		})
		f.Ret(sum)
	}
	r1, _ := run(t, build, Config{Seed: 42})
	r2, _ := run(t, build, Config{Seed: 42})
	r3, _ := run(t, build, Config{Seed: 43})
	if r1 != r2 {
		t.Fatalf("same seed diverged: %d != %d", r1, r2)
	}
	if r1 == r3 {
		t.Fatalf("different seeds agreed: %d", r1)
	}
}

func TestPrintAndExit(t *testing.T) {
	var out bytes.Buffer
	b := prog.NewBuilder("test")
	f := b.Func("main", 0)
	x := f.ConstReg(99)
	f.Print(x)
	code := f.ConstReg(3)
	f.CallExt(isa.ExtExit, code)
	f.RetConst(0) // unreachable
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	v := New(p, m, newBump(m), nil, Config{Out: &out})
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res != 3 {
		t.Fatalf("exit code = %d", res)
	}
	if out.String() != "99\n" {
		t.Fatalf("print output = %q", out.String())
	}
}

// TestTraps runs each trapping program under both engines: each must
// trap, with the same message from either engine.
func TestTraps(t *testing.T) {
	divLike := func(op func(f *prog.FuncBuilder, dst, a, b prog.Reg)) *isa.Program {
		b := prog.NewBuilder("test")
		f := b.Func("main", 0)
		x := f.ConstReg(1)
		z := f.ConstReg(0)
		r := f.Reg()
		op(f, r, x, z)
		f.Ret(r)
		return b.MustBuild()
	}
	// illegalAt hand-builds main(): r0 = flag; bnz r0 over an undefined
	// opcode; ret r0. The builder refuses undefined opcodes, and the trap
	// must fire only when execution reaches one.
	illegalAt := func(flag int64) *isa.Program {
		p := &isa.Program{Name: "test", Funcs: []*isa.Func{{
			Name: "main", NRegs: 1,
			Code: []isa.Inst{
				{Op: isa.OpConst, A: 0, Imm: flag},
				{Op: isa.OpBnz, A: 0, Imm: 3},
				{Op: isa.Opcode(200)},
				{Op: isa.OpRet, A: 0},
			},
		}}}
		p.Link()
		return p
	}
	stackOverflow := func() *isa.Program {
		b := prog.NewBuilder("test")
		f := b.Func("main", 0)
		f.Ret(f.Call("main"))
		return b.MustBuild()
	}
	badIndirect := func() *isa.Program {
		b := prog.NewBuilder("test")
		f := b.Func("main", 0)
		bad := f.ConstReg(99)
		f.Ret(f.CallInd(bad))
		return b.MustBuild()
	}
	cases := []struct {
		name string
		p    *isa.Program
		want string // substring of the trap message
	}{
		{"div by zero", divLike((*prog.FuncBuilder).Div), "division by zero"},
		{"mod by zero", divLike((*prog.FuncBuilder).Mod), "mod by zero"},
		{"illegal opcode", illegalAt(0), "illegal opcode op(200)"},
		{"stack overflow", stackOverflow(), "call stack overflow"},
		{"bad indirect target", badIndirect(), "indirect call to bad function index 99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var msgs [2]string
			for i, mode := range []DispatchMode{DispatchSwitch, DispatchThreaded} {
				m := mem.NewMemory()
				_, err := New(tc.p, m, newBump(m), nil, Config{MaxDepth: 64, Dispatch: mode}).Run()
				if err == nil {
					t.Fatalf("mode %d: no trap", mode)
				}
				msgs[i] = err.Error()
			}
			if msgs[0] != msgs[1] {
				t.Fatalf("trap text differs:\n switch:   %s\n threaded: %s", msgs[0], msgs[1])
			}
			if !strings.Contains(msgs[0], tc.want) {
				t.Fatalf("trap %q does not mention %q", msgs[0], tc.want)
			}
		})
	}
	t.Run("illegal opcode not reached", func(t *testing.T) {
		p := illegalAt(1)
		for _, mode := range []DispatchMode{DispatchSwitch, DispatchThreaded} {
			m := mem.NewMemory()
			res, err := New(p, m, newBump(m), nil, Config{Dispatch: mode}).Run()
			if err != nil || res != 1 {
				t.Fatalf("mode %d: res %d err %v, want 1 <nil>", mode, res, err)
			}
		}
	})
	t.Run("step budget", func(t *testing.T) {
		b := prog.NewBuilder("test")
		f := b.Func("main", 0)
		l := f.NewLabel()
		f.Bind(l)
		f.Jmp(l)
		p, _ := b.Build()
		for _, mode := range []DispatchMode{DispatchSwitch, DispatchThreaded} {
			m := mem.NewMemory()
			_, err := New(p, m, newBump(m), nil, Config{MaxSteps: 1000, Dispatch: mode}).Run()
			if err != ErrMaxSteps {
				t.Fatalf("mode %d: err = %v", mode, err)
			}
		}
	})
}

func TestAccessHookSeesSizes(t *testing.T) {
	type acc struct {
		size  uint8
		write bool
	}
	b := prog.NewBuilder("test")
	f := b.Func("main", 0)
	size := f.ConstReg(64)
	p := f.Malloc(size)
	v := f.ConstReg(1)
	f.Store(p, 0, v, 4)
	r := f.Reg()
	f.Load(r, p, 0, 2)
	f.Ret(r)
	pr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	sink := &recordSink{}
	if _, err := New(pr, m, newBump(m), sink, Config{}).Run(); err != nil {
		t.Fatal(err)
	}
	var got []acc
	for _, ev := range sink.events {
		if ev.Kind == EvAccess {
			got = append(got, acc{ev.Size, ev.Write})
		}
	}
	want := []acc{{4, true}, {2, false}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("accesses = %+v", got)
	}
}

func TestStepAndOpCounts(t *testing.T) {
	_, v := run(t, func(b *prog.Builder) {
		f := b.Func("main", 0)
		size := f.ConstReg(8)
		p := f.Malloc(size)
		x := f.ConstReg(5)
		f.StoreWord(p, 0, x)
		y := f.Reg()
		f.LoadWord(y, p, 0)
		f.Ret(y)
	}, Config{})
	if v.Loads() != 1 || v.Stores() != 1 {
		t.Fatalf("loads=%d stores=%d", v.Loads(), v.Stores())
	}
	if v.Steps() == 0 {
		t.Fatal("no steps counted")
	}
}

func TestCallocZeroesReusedMemory(t *testing.T) {
	res, _ := run(t, func(b *prog.Builder) {
		f := b.Func("main", 0)
		size := f.ConstReg(16)
		p1 := f.Malloc(size)
		x := f.ConstReg(0xFF)
		f.StoreWord(p1, 0, x)
		f.Free(p1)
		n := f.ConstReg(2)
		sz := f.ConstReg(8)
		p2 := f.Calloc(n, sz)
		r := f.Reg()
		f.LoadWord(r, p2, 0)
		f.Ret(r)
	}, Config{})
	// The bump allocator never reuses, but calloc must still yield zeros.
	if res != 0 {
		t.Fatalf("calloc memory = %d, want 0", res)
	}
}

func TestReallocPreservesData(t *testing.T) {
	res, _ := run(t, func(b *prog.Builder) {
		f := b.Func("main", 0)
		size := f.ConstReg(8)
		p := f.Malloc(size)
		x := f.ConstReg(1234)
		f.StoreWord(p, 0, x)
		big := f.ConstReg(64)
		q := f.Realloc(p, big)
		r := f.Reg()
		f.LoadWord(r, q, 0)
		f.Ret(r)
	}, Config{})
	if res != 1234 {
		t.Fatalf("realloc lost data: %d", res)
	}
}

func TestCallocOverflowReturnsNull(t *testing.T) {
	// POSIX calloc: when n*size overflows, the call must fail with NULL.
	// Before the VM checked the product, the wrapped (tiny) size reached
	// the allocator, which happily returned a live pointer to a block far
	// smaller than the program asked for.
	for _, mode := range []DispatchMode{DispatchThreaded, DispatchSwitch} {
		res, _ := run(t, func(b *prog.Builder) {
			f := b.Func("main", 0)
			n := f.ConstReg(1 << 33)
			sz := f.ConstReg(1 << 33) // n*size = 2^66, wraps to 0
			f.Ret(f.Calloc(n, sz))
		}, Config{Dispatch: mode})
		if res != 0 {
			t.Errorf("dispatch=%d: calloc(2^33, 2^33) = %#x, want NULL", mode, res)
		}
	}
	// A wrap that lands on a non-zero product must fail too.
	for _, mode := range []DispatchMode{DispatchThreaded, DispatchSwitch} {
		res, _ := run(t, func(b *prog.Builder) {
			f := b.Func("main", 0)
			n := f.ConstReg(3)
			sz := f.Reg()
			f.Const(sz, -9) // 2^64-9; 3*(2^64-9) wraps to 2^64-27
			f.Ret(f.Calloc(n, sz))
		}, Config{Dispatch: mode})
		if res != 0 {
			t.Errorf("dispatch=%d: overflowing calloc = %#x, want NULL", mode, res)
		}
	}
}

func TestTLBLoadThenStoreFreshPage(t *testing.T) {
	// Regression: a load from an untouched (never-written) page must not
	// poison the TLB for the store that follows. The old one-entry cache
	// kept a nil page pointer with a matching tag after such a load, and
	// storeFast had to re-check for nil on every store to survive; the
	// direct-mapped TLB never installs unmaterialised pages, so a tag
	// match is proof of a writable page. The load must read 0, the store
	// must materialise the page, and the re-load must see the stored value.
	res, v := run(t, func(b *prog.Builder) {
		f := b.Func("main", 0)
		p := f.Malloc(f.ConstReg(64))
		first := f.Reg()
		f.LoadWord(first, p, 0) // fresh page: reads 0, must not cache nil
		f.StoreWord(p, 0, f.ConstReg(77))
		got := f.Reg()
		f.LoadWord(got, p, 0)
		r := f.Reg()
		f.Add(r, got, first)
		f.Ret(r)
	}, Config{})
	if res != 77 {
		t.Fatalf("load-store-load on fresh page = %d, want 77", res)
	}
	if v.TLBMisses() == 0 {
		t.Fatalf("no TLB misses recorded")
	}
}

func TestTLBIndexCollision(t *testing.T) {
	// Two pages tlbSize pages apart map to the same direct-mapped slot.
	// Alternating stores and loads across them must stay correct while the
	// entries evict each other.
	const stride = tlbSize * mem.PageSize
	res, v := run(t, func(b *prog.Builder) {
		f := b.Func("main", 0)
		p := f.Malloc(f.ConstReg(stride + 64))
		q := f.Reg()
		f.AddImm(q, p, stride) // same slot as p, different tag
		f.StoreWord(p, 0, f.ConstReg(40))
		f.StoreWord(q, 0, f.ConstReg(2))
		a := f.Reg()
		f.LoadWord(a, p, 0)
		c := f.Reg()
		f.LoadWord(c, q, 0)
		r := f.Reg()
		f.Add(r, a, c)
		f.Ret(r)
	}, Config{})
	if res != 42 {
		t.Fatalf("colliding-slot sum = %d, want 42", res)
	}
	if v.TLBMisses() < 2 {
		t.Fatalf("TLB misses = %d, want >= 2 (conflicting tags must evict)", v.TLBMisses())
	}
}

func TestTLBHitAccounting(t *testing.T) {
	// hits = loads + stores - misses - bypasses must come out positive and
	// consistent on a loop that re-touches one page.
	_, v := run(t, func(b *prog.Builder) {
		f := b.Func("main", 0)
		p := f.Malloc(f.ConstReg(256))
		f.LoopN(100, func(i prog.Reg) {
			f.StoreWord(p, 0, i)
			r := f.Reg()
			f.LoadWord(r, p, 0)
		})
		f.RetConst(0)
	}, Config{})
	acc := v.Loads() + v.Stores()
	if acc == 0 {
		t.Fatal("no accesses")
	}
	hits := acc - v.TLBMisses() - v.TLBBypasses()
	if hits < acc*9/10 {
		t.Fatalf("hits %d of %d accesses; one-page loop should hit nearly always", hits, acc)
	}
}

// TestDinstSize pins the decoded record's layout: field order keeps it at
// 24 bytes, which the dispatch loop walks one record per step.
func TestDinstSize(t *testing.T) {
	if n := unsafe.Sizeof(dinst{}); n != 24 {
		t.Fatalf("dinst is %d bytes, want 24", n)
	}
}
