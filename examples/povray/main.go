// The paper's §3 motivating example, built from scratch with the program
// builder: a parser allocates three object types (A, B, C); types A and B
// are linked into a list and traversed hot, C is left cold. Under a
// size-segregated allocator the C objects scatter between the A/B objects
// (Figure 3a); HALO's grouping reproduces the layout of Figure 3(b) and
// the example shows the resulting miss difference, plus why the wrapper
// function (pov_malloc) defeats call-site-keyed identification.
//
//	go run ./examples/povray
package main

import (
	"fmt"
	"log"

	"halo/internal/cache"
	"halo/internal/core"
	"halo/internal/halloc"
	"halo/internal/isa"
	"halo/internal/measure"
	"halo/internal/prog"
)

// buildFigure2 assembles the paper's Figure 2 program. All three create_*
// procedures allocate through a shared wrapper, as povray's pov_malloc
// does, so the immediate call site of malloc is useless for telling the
// types apart.
func buildFigure2(tokens, passes int64) *isa.Program {
	b := prog.NewBuilder("figure2")
	b.Globals(1) // g0: list head

	pm := b.Func("pov_malloc", 1)
	pm.Ret(pm.Malloc(pm.Param(0)))

	mk := func(name string, size int64) {
		f := b.Func(name, 0)
		sz := f.ConstReg(size)
		p := f.Call("pov_malloc", sz)
		zero := f.ConstReg(0)
		f.StoreWord(p, 0, zero) // sibling
		f.StoreWord(p, 8, sz)   // payload
		f.Ret(p)
	}
	mk("create_a", 40)
	mk("create_b", 40)
	mk("create_c", 40)

	ds := b.Func("do_something", 1)
	{
		f := ds
		v := f.Reg()
		f.LoadWord(v, f.Param(0), 8)
		f.Ret(v)
	}

	main := b.Func("main", 0)
	{
		f := main
		// Allocate: one object per token, types interleaved at random.
		f.LoopN(tokens, func(prog.Reg) {
			tok := f.RandConst(3)
			isA := f.NewLabel()
			isB := f.NewLabel()
			done := f.NewLabel()
			two := f.ConstReg(2)
			one := f.ConstReg(1)
			cmpA := f.Reg()
			f.Lt(cmpA, tok, one)
			f.Bnz(cmpA, isA)
			cmpB := f.Reg()
			f.Lt(cmpB, tok, two)
			f.Bnz(cmpB, isB)
			// Type C: used once, never again.
			c := f.Call("create_c")
			f.Call("do_something", c)
			f.Jmp(done)
			f.Bind(isA)
			a := f.Call("create_a")
			pushList(f, a)
			f.Jmp(done)
			f.Bind(isB)
			bb := f.Call("create_b")
			pushList(f, bb)
			f.Bind(done)
		})
		// Access: traverse the A/B list repeatedly.
		acc := f.ConstReg(0)
		f.LoopN(passes, func(prog.Reg) {
			p := f.Reg()
			head := f.ConstReg(int64(isa.GlobalAddr(0)))
			f.LoadWord(p, head, 0)
			loop := f.NewLabel()
			out := f.NewLabel()
			f.Bind(loop)
			f.Bz(p, out)
			v := f.Reg()
			f.LoadWord(v, p, 8)
			f.Add(acc, acc, v)
			f.LoadWord(p, p, 0)
			f.Jmp(loop)
			f.Bind(out)
		})
		f.Ret(acc)
	}
	return b.MustBuild()
}

func pushList(f *prog.FuncBuilder, obj prog.Reg) {
	head := f.ConstReg(int64(isa.GlobalAddr(0)))
	old := f.Reg()
	f.LoadWord(old, head, 0)
	f.StoreWord(obj, 0, old)
	f.StoreWord(head, 0, obj)
}

func main() {
	p := buildFigure2(4000, 60)

	fmt.Println("== the paper's Figure 2 program ==")
	opt, err := core.Optimize(p, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(opt.GroupReport())
	fmt.Println("\nselectors (note: they distinguish create_a/create_b from create_c")
	fmt.Println("through the full chain, even though all three share pov_malloc):")
	for _, s := range opt.Selectors.Selectors {
		fmt.Printf("  %s\n", s)
	}

	machine := cache.XeonW2195()
	base, err := measure.Run(p, measure.Policy{Kind: measure.Jemalloc}, 42, machine)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := opt.HALOPolicy(p, halloc.Config{})
	if err != nil {
		log.Fatal(err)
	}
	hal, err := measure.Run(p, pol, 42, machine)
	if err != nil {
		log.Fatal(err)
	}
	if base.Result != hal.Result {
		log.Fatalf("optimisation changed the program result: %d != %d", base.Result, hal.Result)
	}

	fmt.Printf("\nFigure 3(a) — size-segregated layout: %s\n", base.Cache)
	fmt.Printf("Figure 3(b) — grouped layout:         %s\n", hal.Cache)
	fmt.Printf("\nL1D miss reduction: %+.2f%%   speedup: %+.2f%%\n",
		measure.Improvement(float64(base.Cache.L1D.Misses), float64(hal.Cache.L1D.Misses)),
		measure.Improvement(base.Seconds, hal.Seconds))
}
