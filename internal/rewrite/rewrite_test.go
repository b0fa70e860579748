package rewrite

import (
	"strings"
	"testing"

	"halo/internal/alloc"
	"halo/internal/bits"
	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/vm"
	"halo/internal/workloads"
)

// runProg executes a program under the size-segregated allocator and
// returns (result, steps, loads, stores).
func runProg(t *testing.T, p *isa.Program, seed uint64) (int64, uint64, uint64, uint64) {
	t.Helper()
	m := mem.NewMemory()
	osm := mem.NewOS(m)
	v := vm.New(p, m, alloc.NewSizeSeg(osm), nil, vm.Config{Seed: seed, GroupState: bits.New(4096)})
	res, err := v.Run()
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return res, v.Steps(), v.Loads(), v.Stores()
}

// TestInstrumentPreservesSemantics is the rewriter's key property: for
// every workload, instrumenting EVERY call site must not change the
// program's result or its memory-operation counts.
func TestInstrumentPreservesSemantics(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(w.TestScale)
			sites := p.CallSites()
			res, err := Instrument(p, sites)
			if err != nil {
				t.Fatal(err)
			}
			r0, _, l0, s0 := runProg(t, p, 11)
			r1, steps1, l1, s1 := runProg(t, res.Prog, 11)
			if r0 != r1 {
				t.Fatalf("result changed: %d != %d", r0, r1)
			}
			if l0 != l1 || s0 != s1 {
				t.Fatalf("memory ops changed: loads %d->%d stores %d->%d", l0, l1, s0, s1)
			}
			if res.Inserted == 0 {
				t.Fatal("nothing instrumented")
			}
			_ = steps1
		})
	}
}

// TestMissingSiteErrorDeterministic is the regression test for a real
// nondeterminism halovet's determinism analyzer found: checkSites used to
// report whichever missing site a `range` over the siteBits map reached
// first, so the error text varied run to run. It must always name the
// numerically smallest missing site.
func TestMissingSiteErrorDeterministic(t *testing.T) {
	w := workloads.MustGet("health")
	p := w.Build(w.TestScale)
	bogus := []isa.Addr{0xDEAD00, 0xDEAD10, 0xDEAD20, 0xDEAD30}

	var first string
	for i := 0; i < 50; i++ {
		// Shuffle the declaration order too: determinism must hold for
		// any input order, not just one.
		sites := append([]isa.Addr(nil), bogus...)
		sites[i%len(sites)], sites[0] = sites[0], sites[i%len(sites)]
		_, err := Instrument(p, sites)
		if err == nil {
			t.Fatal("expected missing-site error")
		}
		if first == "" {
			first = err.Error()
			continue
		}
		if err.Error() != first {
			t.Fatalf("error text varies across runs:\n  %s\n  %s", first, err.Error())
		}
	}
	want := isa.Addr(0xDEAD00).String()
	if !strings.Contains(first, want) {
		t.Fatalf("error %q does not name the smallest missing site %s", first, want)
	}
}
