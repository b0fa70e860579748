// Package workloads provides the benchmark programs of the paper's
// evaluation (§5.1), rebuilt as mini-ISA programs whose allocation and
// access structure reproduces what the paper reports about each original:
//
//   - povray: heap data allocated through the pov_malloc wrapper; geometry
//     objects of different types interleaved at allocation, traversed by
//     type (the paper's §3 motivating example, with Copy_* contexts).
//   - omnetpp: discrete-event simulation; per-module messages and payloads
//     allocated through two levels of wrappers, processed from an event heap.
//   - xalanc: deep call-chain indirection — all DOM nodes allocated through
//     a shared three-helper allocator chain, distinguishable only by the
//     full stack ("requiring the traversal of tens of stack frames").
//   - leela: every allocation flows through C++ operator new, a library
//     function: the immediate malloc call site is useless for identification.
//   - roms: direct malloc calls of many uniform field tiles, accessed in
//     shifting sweeps; highly regular yet stream-count-explosive for the
//     hot-data-streams technique.
//   - health, ft, analyzer, ammp, art, equake: the six programs from prior
//     work with direct, distinct allocation sites (§5.1's "easy targets").
//
// Each workload builds at a test scale (profiled) and a ref scale
// (measured); both scales emit byte-identical code apart from immediate
// operands, so call-site addresses — and therefore profiles and selectors —
// carry over, exactly as profiles collected on SPEC test inputs apply to
// ref-input binaries.
package workloads

import (
	"fmt"
	"sort"

	"halo/internal/halloc"
	"halo/internal/isa"
	"halo/internal/prog"
)

// Workload describes one benchmark.
type Workload struct {
	Name        string
	Description string
	// Build assembles the program at the given scale.
	Build func(scale int) *isa.Program
	// TestScale is profiled; RefScale is measured (§5.1).
	TestScale int
	RefScale  int

	// Allocator tuning from the artifact appendix (§A.8).
	ChunkSize   uint64 // 0 = default 1 MiB; omnetpp uses 128 KiB
	NoSpare     bool   // --max-spare-chunks 0 (omnetpp, xalanc)
	AlwaysReuse bool   // chunk-reuse limitation (omnetpp, xalanc)
	MaxGroups   int    // --max-groups (roms: 4); 0 = default

	// Adversarial marks workloads from the hostile-heap family
	// (internal/adversary): excluded from the paper-figure experiments,
	// evaluated by the adversarial suite.
	Adversarial bool
}

// HallocConfig is the group-allocator tuning the artifact appendix gives
// this benchmark.
func (w Workload) HallocConfig() halloc.Config {
	return halloc.Config{
		ChunkSize:         w.ChunkSize,
		NoSpare:           w.NoSpare,
		AlwaysReuseChunks: w.AlwaysReuse,
	}
}

var registry []Workload

func register(w Workload) { registry = append(registry, w) }

// All returns every workload in the paper's presentation order (the six
// prior-work programs, then the five CPU2017 programs).
func All() []Workload {
	order := []string{"health", "ft", "analyzer", "ammp", "art", "equake",
		"povray", "omnetpp", "xalanc", "leela", "roms"}
	out := make([]Workload, 0, len(registry))
	for _, name := range order {
		if w, ok := Get(name); ok {
			out = append(out, w)
		}
	}
	// Append any extras not in the canonical order.
	for _, w := range registry {
		found := false
		for _, name := range order {
			if w.Name == name {
				found = true
				break
			}
		}
		if !found {
			out = append(out, w)
		}
	}
	return out
}

// Get looks a workload up by name.
func Get(name string) (Workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names lists registered workloads alphabetically.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, w := range registry {
		out = append(out, w.Name)
	}
	sort.Strings(out)
	return out
}

// MustGet is Get, panicking for unknown names (harness configuration
// errors are programming errors).
func MustGet(name string) Workload {
	w, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("workloads: unknown workload %q", name)) //halo:errfmt-ok MustGet is the documented panicking variant for harness configuration
	}
	return w
}

// --- shared assembly idioms -------------------------------------------

// listPush links object p to the front of the intrusive list whose head
// lives in global slot g; the next pointer is stored at offset nextOff.
func listPush(f *prog.FuncBuilder, g int, p prog.Reg, nextOff int64) {
	head := f.Reg()
	f.LoadGlobal(head, g)
	f.StoreWord(p, nextOff, head)
	f.StoreGlobal(g, p)
}

// listWalk traverses the list headed at global g, invoking body with the
// current object pointer; nextOff locates the next pointer.
func listWalk(f *prog.FuncBuilder, g int, nextOff int64, body func(p prog.Reg)) {
	p := f.Reg()
	f.LoadGlobal(p, g)
	head := f.NewLabel()
	done := f.NewLabel()
	f.Bind(head)
	f.Bz(p, done)
	body(p)
	f.LoadWord(p, p, nextOff)
	f.Jmp(head)
	f.Bind(done)
}

// listFreeAll frees every element of the list headed at global g.
func listFreeAll(f *prog.FuncBuilder, g int, nextOff int64) {
	p := f.Reg()
	f.LoadGlobal(p, g)
	head := f.NewLabel()
	done := f.NewLabel()
	f.Bind(head)
	f.Bz(p, done)
	next := f.Reg()
	f.LoadWord(next, p, nextOff)
	f.Free(p)
	f.Mov(p, next)
	f.Jmp(head)
	f.Bind(done)
	zero := f.ConstReg(0)
	f.StoreGlobal(g, zero)
}

// touch performs a load-modify-store of the word at [p+off], a generic
// "use this field" idiom.
func touch(f *prog.FuncBuilder, p prog.Reg, off int64) {
	v := f.Reg()
	f.LoadWord(v, p, off)
	f.AddImm(v, v, 1)
	f.StoreWord(p, off, v)
}

// readField loads the word at [p+off] into a fresh register.
func readField(f *prog.FuncBuilder, p prog.Reg, off int64) prog.Reg {
	v := f.Reg()
	f.LoadWord(v, p, off)
	return v
}
