package profile

import (
	"slices"
	"testing"
	"testing/quick"

	"halo/internal/affinity"
	"halo/internal/alloc"
	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/prog"
	"halo/internal/vm"
)

// runProfiled executes a builder-defined program under the profiler.
func runProfiled(t *testing.T, cfg Config, build func(b *prog.Builder)) *Profile {
	t.Helper()
	b := prog.NewBuilder("t")
	build(b)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := New(p, cfg)
	m := mem.NewMemory()
	v := vm.New(p, m, alloc.NewSizeSeg(mem.NewOS(m)), pr, vm.Config{Seed: 3})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	return pr.Finish()
}

// chainNames renders a context chain as function names for assertions.
func chainNames(p *Profile, c *Context) []string {
	var out []string
	for _, e := range c.Chain {
		if e.Fn == AllocFn {
			out = append(out, "alloc")
		} else {
			out = append(out, p.Prog.Funcs[e.Fn].Name)
		}
	}
	return out
}

func TestContextsDistinguishCallers(t *testing.T) {
	prof := runProfiled(t, Config{}, func(b *prog.Builder) {
		mk := b.Func("mk", 0)
		sz := mk.ConstReg(16)
		mk.Ret(mk.Malloc(sz))
		f := b.Func("siteA", 0)
		f.Ret(f.Call("mk"))
		g := b.Func("siteB", 0)
		g.Ret(g.Call("mk"))
		m := b.Func("main", 0)
		pa := m.Call("siteA")
		pb := m.Call("siteB")
		va := m.Reg()
		m.LoadWord(va, pa, 0)
		vb := m.Reg()
		m.LoadWord(vb, pb, 0)
		m.RetConst(0)
	})
	// Two distinct allocation contexts: via siteA and via siteB.
	if len(prof.Contexts) != 2 {
		t.Fatalf("contexts = %d, want 2", len(prof.Contexts))
	}
}

func TestLibraryFramesSkipped(t *testing.T) {
	prof := runProfiled(t, Config{}, func(b *prog.Builder) {
		opn := b.LibFunc("operator_new", 1)
		opn.Ret(opn.Malloc(opn.Param(0)))
		mk := b.Func("make_node", 0)
		sz := mk.ConstReg(16)
		mk.Ret(mk.Call("operator_new", sz))
		m := b.Func("main", 0)
		p := m.Call("make_node")
		v := m.Reg()
		m.LoadWord(v, p, 0)
		m.RetConst(0)
	})
	if len(prof.Contexts) != 1 {
		t.Fatalf("contexts = %d, want 1", len(prof.Contexts))
	}
	names := chainNames(prof, prof.Contexts[0])
	for _, n := range names {
		if n == "operator_new" {
			t.Fatalf("library frame in chain: %v", names)
		}
	}
	// The alloc entry's site must be traced back into main-binary code.
	last := prof.Contexts[0].Chain[len(prof.Contexts[0].Chain)-1]
	if last.Fn != AllocFn {
		t.Fatalf("chain does not end at the allocator: %v", names)
	}
	f := prof.Prog.FuncOf(last.Site)
	if f == nil || f.Lib {
		t.Fatalf("alloc site not traced to the main binary: %v", last.Site)
	}
}

func TestRecursionReduced(t *testing.T) {
	prof := runProfiled(t, Config{}, func(b *prog.Builder) {
		rec := b.Func("rec", 1)
		d := rec.Param(0)
		leaf := rec.NewLabel()
		one := rec.ConstReg(1)
		c := rec.Reg()
		rec.Lt(c, d, one)
		rec.Bnz(c, leaf)
		d1 := rec.Reg()
		rec.AddImm(d1, d, -1)
		rec.Call("rec", d1)
		rec.Bind(leaf)
		sz := rec.ConstReg(16)
		p := rec.Malloc(sz)
		v := rec.Reg()
		rec.LoadWord(v, p, 0)
		rec.RetConst(0)

		m := b.Func("main", 0)
		// One call site, varying depth: recursion depth must not mint new
		// contexts beyond the reduced forms.
		m.LoopN(9, func(i prog.Reg) {
			m.Call("rec", i)
		})
		m.RetConst(0)
	})
	// Any recursion depth >= 2 canonicalises to the same reduced chain;
	// depth 1 differs (no repeated (rec, self-site) pair). So exactly 2
	// contexts, not one per depth.
	if len(prof.Contexts) != 2 {
		for _, c := range prof.Contexts {
			t.Logf("ctx: %v", chainNames(prof, c))
		}
		t.Fatalf("contexts = %d, want 2 (reduced recursion)", len(prof.Contexts))
	}
}

func TestObjectTrackingAndAffinity(t *testing.T) {
	prof := runProfiled(t, Config{}, func(b *prog.Builder) {
		mkA := b.Func("mkA", 0)
		szA := mkA.ConstReg(16)
		mkA.Ret(mkA.Malloc(szA))
		mkB := b.Func("mkB", 0)
		szB := mkB.ConstReg(16)
		mkB.Ret(mkB.Malloc(szB))
		m := b.Func("main", 0)
		a := m.Call("mkA")
		bb := m.Call("mkB")
		// Alternate accesses: strong affinity between the contexts.
		m.LoopN(50, func(prog.Reg) {
			va := m.Reg()
			m.LoadWord(va, a, 0)
			vb := m.Reg()
			m.LoadWord(vb, bb, 0)
		})
		m.RetConst(0)
	})
	if prof.TrackedAllocs != 2 {
		t.Fatalf("tracked = %d", prof.TrackedAllocs)
	}
	g := prof.RawGraph
	var ctxA, ctxB affinity.Ctx = -1, -1
	for _, c := range prof.Contexts {
		names := chainNames(prof, c)
		if names[0] == "mkA" {
			ctxA = c.ID
		}
		if names[0] == "mkB" {
			ctxB = c.ID
		}
	}
	if g.Weight(ctxA, ctxB) == 0 {
		t.Fatal("no affinity recorded between alternating contexts")
	}
}

func TestFreedObjectsUntracked(t *testing.T) {
	prof := runProfiled(t, Config{}, func(b *prog.Builder) {
		m := b.Func("main", 0)
		sz := m.ConstReg(32)
		p := m.Malloc(sz)
		v := m.Reg()
		m.LoadWord(v, p, 0)
		m.Free(p)
		// Dangling access: must not be attributed to the freed object.
		m.LoadWord(v, p, 0)
		m.RetConst(0)
	})
	if n := prof.RawGraph.TotalAccesses(); n != 1 {
		t.Fatalf("accesses = %d, want 1 (freed object untracked)", n)
	}
}

func TestLargeObjectsNotTracked(t *testing.T) {
	prof := runProfiled(t, Config{MaxObjectSize: 64}, func(b *prog.Builder) {
		m := b.Func("main", 0)
		szBig := m.ConstReg(128)
		big := m.Malloc(szBig)
		v := m.Reg()
		m.LoadWord(v, big, 0)
		szOk := m.ConstReg(64)
		ok := m.Malloc(szOk)
		m.LoadWord(v, ok, 0)
		m.RetConst(0)
	})
	if prof.TrackedAllocs != 1 {
		t.Fatalf("tracked = %d, want 1", prof.TrackedAllocs)
	}
	if prof.TotalAllocs != 2 {
		t.Fatalf("total = %d, want 2", prof.TotalAllocs)
	}
}

func TestTraceRecordsMacroAccesses(t *testing.T) {
	prof := runProfiled(t, Config{RecordTrace: true}, func(b *prog.Builder) {
		m := b.Func("main", 0)
		sz := m.ConstReg(16)
		a := m.Malloc(sz)
		sz2 := m.ConstReg(16)
		bb := m.Malloc(sz2)
		v := m.Reg()
		m.LoadWord(v, a, 0)
		m.LoadWord(v, a, 8) // same object: same macro access
		m.LoadWord(v, bb, 0)
		m.LoadWord(v, a, 0)
		m.RetConst(0)
	})
	refs := slices.Concat(prof.Trace.Blocks()...)
	if prof.Trace.Len() != 3 || len(refs) != 3 {
		t.Fatalf("trace = %d refs (%d in blocks), want 3 (a, b, a)", prof.Trace.Len(), len(refs))
	}
	if refs[0] == refs[1] {
		t.Fatal("distinct objects share identity")
	}
	if refs[0] != refs[2] {
		t.Fatal("revisited object changed identity")
	}
	for _, s := range refs {
		if size := prof.Trace.Objects()[s].Size; size != 16 {
			t.Fatalf("serial %d recorded with size %d, want 16", s, size)
		}
	}
}

func TestReduceChainProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		chain := make([]ChainEntry, len(raw))
		for i, v := range raw {
			chain[i] = ChainEntry{Fn: int32(v % 7), Site: isa.Addr(v % 13)}
		}
		red := reduceChain(chain)
		// No duplicate pairs.
		seen := map[ChainEntry]bool{}
		for _, e := range red {
			if seen[e] {
				return false
			}
			seen[e] = true
		}
		// Every input pair present.
		for _, e := range chain {
			if !seen[e] {
				return false
			}
		}
		// Idempotent.
		again := reduceChain(red)
		if len(again) != len(red) {
			return false
		}
		for i := range red {
			if red[i] != again[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestObjIndexProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		idx := newObjIndex()
		live := map[uint64]uint64{} // base -> serial
		for i, op := range ops {
			base := uint64(op%512)*16 + 16
			if _, ok := live[base]; ok && op%3 == 0 {
				idx.remove(base)
				delete(live, base)
				continue
			}
			idx.insert(object{base: base, size: 16, serial: uint64(i)})
			live[base] = uint64(i)
		}
		if idx.len() != len(live) {
			return false
		}
		for base, serial := range live {
			if got := idx.find(base + 7); got == nil || got.serial != serial {
				return false
			}
		}
		// Gap addresses miss.
		return idx.find(5) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestObjIndexSharedGranulePanics pins the index's one-object-per-granule
// invariant: a second live object in an occupied 8-byte granule panics,
// whether it starts inside the granule or straddles into it, while objects
// in the neighbouring granules and a re-allocation at the same base are
// accepted.
func TestObjIndexSharedGranulePanics(t *testing.T) {
	build := func() *objIndex {
		idx := newObjIndex()
		idx.insert(object{base: 64, size: 2, serial: 1}) // granule 8 (64..71)
		idx.insert(object{base: 56, size: 8, serial: 2}) // granule 7
		idx.insert(object{base: 72, size: 8, serial: 3}) // granule 9
		idx.insert(object{base: 64, size: 4, serial: 4}) // replaces serial 1
		return idx
	}
	idx := build()
	if idx.len() != 3 {
		t.Fatalf("len = %d, want 3", idx.len())
	}
	for addr, want := range map[uint64]uint64{56: 2, 67: 4, 79: 3} {
		if got := idx.find(addr); got == nil || got.serial != want {
			t.Fatalf("find(%d) = %v, want serial %d", addr, got, want)
		}
	}
	for _, tc := range []struct {
		o      object
		shared bool
	}{
		{object{base: 66, size: 2, serial: 5}, true},   // inside granule 8
		{object{base: 60, size: 8, serial: 6}, true},   // straddles granules 7 and 8
		{object{base: 68, size: 8, serial: 7}, true},   // straddles granules 8 and 9
		{object{base: 80, size: 8, serial: 8}, false},  // granule 10
		{object{base: 40, size: 16, serial: 9}, false}, // granules 5 and 6
	} {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			build().insert(tc.o)
			return false
		}()
		if panicked != tc.shared {
			t.Errorf("insert %+v: panicked = %v, want %v", tc.o, panicked, tc.shared)
		}
	}
}
