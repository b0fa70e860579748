// Custom workload: author a brand-new program with the builder DSL and
// push it through the HALO pipeline — the workflow a user follows to test
// the optimiser on their own allocation patterns (§A.7, "different
// programs and parameters can be tested").
//
// The program is a tiny in-memory key-value store: a hash index whose
// buckets chain entry records; values live in separate blobs; an
// append-only write-ahead-log record is allocated per insert (cold).
// Lookups walk bucket chains and read values — entries and values are hot
// and co-accessed, WAL records are pure dilution.
//
//	go run ./examples/customworkload
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

// Layouts:
//
//	entry (40B): 0 next, 8 key, 16 value ptr
//	value (56B): 0 len, 8.. bytes
//	wal (40B):   0 next, 8 seq — shares the entries' size class
const (
	nBuckets = 256
	gTable   = 0 // bucket array base
	gWAL     = 1 // WAL list head
)

func buildKVStore(inserts, lookups int64) *isa.Program {
	b := prog.NewBuilder("kvstore")
	b.Globals(2)

	me := b.Func("new_entry", 1) // (key)
	{
		f := me
		sz := f.ConstReg(40)
		p := f.Malloc(sz)
		f.StoreWord(p, 8, f.Param(0))
		f.Ret(p)
	}
	mv := b.Func("new_value", 0)
	{
		f := mv
		sz := f.ConstReg(56)
		p := f.Malloc(sz)
		v := f.RandConst(1 << 16)
		f.StoreWord(p, 0, v)
		f.Ret(p)
	}
	mw := b.Func("wal_append", 0)
	{
		f := mw
		sz := f.ConstReg(40)
		p := f.Malloc(sz)
		seq := f.RandConst(1 << 20)
		f.StoreWord(p, 8, seq)
		head := f.ConstReg(int64(isa.GlobalAddr(gWAL)))
		old := f.Reg()
		f.LoadWord(old, head, 0)
		f.StoreWord(p, 0, old)
		f.StoreWord(head, 0, p)
		f.RetConst(0)
	}

	// bucket(key) -> address of the bucket slot.
	bk := b.Func("bucket_slot", 1)
	{
		f := bk
		key := f.Param(0)
		mask := f.ConstReg(nBuckets - 1)
		h := f.Reg()
		f.And(h, key, mask)
		eight := f.ConstReg(8)
		f.Mul(h, h, eight)
		tab := f.Reg()
		base := f.ConstReg(int64(isa.GlobalAddr(gTable)))
		f.LoadWord(tab, base, 0)
		f.Add(h, tab, h)
		f.Ret(h)
	}

	ins := b.Func("insert", 1) // (key)
	{
		f := ins
		key := f.Param(0)
		e := f.Call("new_entry", key)
		v := f.Call("new_value")
		f.StoreWord(e, 16, v)
		f.Call("wal_append")
		slot := f.Call("bucket_slot", key)
		old := f.Reg()
		f.LoadWord(old, slot, 0)
		f.StoreWord(e, 0, old)
		f.StoreWord(slot, 0, e)
		f.RetConst(0)
	}

	lk := b.Func("lookup", 1) // (key)
	{
		f := lk
		key := f.Param(0)
		slot := f.Call("bucket_slot", key)
		e := f.Reg()
		f.LoadWord(e, slot, 0)
		acc := f.ConstReg(0)
		loop := f.NewLabel()
		out := f.NewLabel()
		hit := f.NewLabel()
		f.Bind(loop)
		f.Bz(e, out)
		k := f.Reg()
		f.LoadWord(k, e, 8)
		eq := f.Reg()
		f.Eq(eq, k, key)
		f.Bnz(eq, hit)
		f.LoadWord(e, e, 0)
		f.Jmp(loop)
		f.Bind(hit)
		vp := f.Reg()
		f.LoadWord(vp, e, 16)
		val := f.Reg()
		f.LoadWord(val, vp, 0)
		f.Add(acc, acc, val)
		f.Bind(out)
		f.Ret(acc)
	}

	main := b.Func("main", 0)
	{
		f := main
		sz := f.ConstReg(nBuckets * 8)
		tab := f.Malloc(sz)
		base := f.ConstReg(int64(isa.GlobalAddr(gTable)))
		f.StoreWord(base, 0, tab)
		f.LoopN(inserts, func(prog.Reg) {
			key := f.RandConst(1 << 14)
			f.Call("insert", key)
		})
		acc := f.ConstReg(0)
		f.LoopN(lookups, func(prog.Reg) {
			key := f.RandConst(1 << 14)
			r := f.Call("lookup", key)
			f.Add(acc, acc, r)
		})
		f.Ret(acc)
	}
	return b.MustBuild()
}

func main() {
	p := buildKVStore(4000, 60000)
	fmt.Println("== custom kv-store workload through the HALO pipeline ==")
	opt, err := core.Optimize(p, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(opt.GroupReport())

	machine := cache.XeonW2195()
	base, err := measure.Run(p, measure.Policy{Kind: measure.Jemalloc}, 9, machine)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := opt.HALOPolicy(p, halloc.Config{})
	if err != nil {
		log.Fatal(err)
	}
	hal, err := measure.Run(p, pol, 9, machine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbaseline: %s\n", base.Cache)
	fmt.Printf("HALO:     %s\n", hal.Cache)
	fmt.Printf("L1D miss reduction %+.2f%%, speedup %+.2f%%\n",
		measure.Improvement(float64(base.Cache.L1D.Misses), float64(hal.Cache.L1D.Misses)),
		measure.Improvement(base.Seconds, hal.Seconds))
}
